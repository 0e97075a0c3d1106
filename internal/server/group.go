package server

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"sensjoin/internal/core"
	"sensjoin/internal/proto"
	"sensjoin/internal/trace"
)

// Shared execution of continuous queries. A continuous SENS-Join query
// arriving at the daemon waits one BatchWindow for companions; every
// compatible query that arrives within the window for the same
// (deployment, period, start time) joins the same core.QueryGroup and
// the whole group runs ONE shared protocol round per epoch on a private
// runner. Each member still receives exactly its own result table (the
// group's correctness contract), so sharing is invisible to clients
// except through the Header's Shared/ClusterSize facts and the lower
// network cost per query.
//
// Queries arriving after a window closed simply form a new group: the
// incremental filter state of a running group is epoch-aligned, so late
// joiners cannot splice into it.

// groupSub is one query's membership in a pending batch.
type groupSub struct {
	ss   *session
	q    proto.Query
	prep *core.Prepared
	hit  bool
	rq   *runningQuery
	// rounds is the epoch budget requested by the client (capped).
	rounds int

	// dead stops emission (send failure); the admission slot is still
	// released exactly once at batch end.
	dead       bool
	headerSent bool
	epochs     int
}

// groupHub collects compatible continuous queries into batches.
type groupHub struct {
	s       *Server
	mu      sync.Mutex
	pending map[string]*batch
}

type batch struct {
	pool   *pool
	at     float64
	period float64
	subs   []*groupSub
}

func newGroupHub(s *Server) *groupHub {
	return &groupHub{s: s, pending: make(map[string]*batch)}
}

// enqueue adds a query to the open batch for its (deployment, period,
// start) — opening one, and arming its window timer, if none is open.
func (h *groupHub) enqueue(sub *groupSub, pl *pool) {
	period := sub.prep.Period()
	key := fmt.Sprintf("%s|%x|%x", pl.key, math.Float64bits(sub.q.At), math.Float64bits(period))
	h.mu.Lock()
	b := h.pending[key]
	if b == nil {
		b = &batch{pool: pl, at: sub.q.At, period: period}
		h.pending[key] = b
		time.AfterFunc(h.s.cfg.BatchWindow, func() {
			h.mu.Lock()
			delete(h.pending, key)
			h.mu.Unlock()
			h.run(b)
		})
	}
	b.subs = append(b.subs, sub)
	h.mu.Unlock()
}

// acquireGroup takes an execution slot for one shared round. Unlike the
// per-query acquire it only gives up when the server drains — a group
// outlives any single member's cancelation.
func (s *Server) acquireGroup() bool {
	select {
	case s.execSem <- struct{}{}:
		s.met.activeQueries.Inc()
		return true
	case <-s.closing:
		return false
	}
}

// run executes one batch to completion: every member's epochs stream
// from shared rounds, and every member's admission slot is released.
func (h *groupHub) run(b *batch) {
	s := h.s
	qg := core.NewQueryGroup(core.Options{})
	var members []*groupSub
	var idx []int
	for _, sub := range b.subs {
		i, err := qg.Add(sub.prep)
		if err != nil {
			// Pre-validation (Shareable) makes this unreachable in
			// practice, but a group must never strand a member's slot.
			sub.ss.sendErr(sub.q.ID, proto.CodeExec, err.Error())
			sub.ss.finish(sub.q.ID)
			continue
		}
		members = append(members, sub)
		idx = append(idx, i)
	}
	if len(members) == 0 {
		return
	}
	defer func() {
		for _, sub := range members {
			if !sub.dead {
				sub.ss.sendDone(sub.q.ID, sub.epochs)
			}
			sub.ss.finish(sub.q.ID)
		}
	}()
	s.met.sharedQueries.Add(int64(len(members)))
	clusterSize := make(map[int]int)
	for k := range members {
		clusterSize[qg.ClusterOf(idx[k])]++
	}

	// Trace identity: the group's shared protocol rounds (radio traffic,
	// phase brackets) carry the group's trace ID as the recorder's
	// ambient tag, while each member's per-epoch result fan-out spans
	// carry that member's own ID — so a member's span tree holds exactly
	// its own slice of the shared execution.
	groupID := fmt.Sprintf("g-%d", s.traceSeq.Add(1))
	sampled := s.cfg.TraceSample >= 1 ||
		(s.cfg.TraceSample > 0 && rand.Float64() < s.cfg.TraceSample)
	memberTrace := make([]string, len(members))
	recs := make([]QueryRecord, len(members))
	for k, sub := range members {
		id := sub.q.TraceID
		if id == "" {
			id = fmt.Sprintf("q-%d-%d-%d", sub.ss.id, sub.q.ID, s.traceSeq.Add(1))
		}
		memberTrace[k] = id
		cs := clusterSize[qg.ClusterOf(idx[k])]
		recs[k] = QueryRecord{
			TraceID: id, Group: groupID, Session: sub.ss.id, ID: sub.q.ID,
			Src: sub.q.Src, Method: "sens", Shared: cs > 1, ClusterSize: cs,
			CacheHit: sub.hit, Sampled: sampled,
		}
	}
	var (
		tr         *trace.Recorder
		mark       int
		spans      []trace.Event
		groupPhase []PhaseLatency
	)
	capture := func() {
		if tr == nil {
			return
		}
		j := tr.JournalSince(mark)
		spans = append([]trace.Event(nil), j.Events...)
		groupPhase = phaseBreakdown(spans)
		s.met.observePhases(groupPhase)
		tr = nil
	}
	wallStart := time.Now()
	defer func() {
		capture()
		total := time.Since(wallStart).Seconds()
		if sampled {
			// The group's own record carries the shared radio timeline.
			s.flight.Record(QueryRecord{
				TraceID: groupID, Src: fmt.Sprintf("<shared group of %d>", len(members)),
				Method: "sens", Shared: true, ClusterSize: len(members),
				Epochs: maxEpochs(members), Complete: true,
				Phases: groupPhase, TotalSeconds: total, Sampled: true,
			}, spans)
		}
		for k := range members {
			recs[k].Phases = groupPhase
			recs[k].TotalSeconds = total
			s.flight.Record(recs[k], filterByTrace(spans, memberTrace[k]))
		}
	}()

	// One lease for all epochs: the group's incremental filter state
	// spans them, so its executions must not interleave with other
	// queries on the same runner.
	r, err := b.pool.runners.Get()
	if err != nil {
		for k, sub := range members {
			recs[k].Error = proto.CodeExec + ": " + err.Error()
			sub.ss.sendErr(sub.q.ID, proto.CodeExec, err.Error())
			sub.dead = true
		}
		return
	}
	if sampled {
		s.met.tracedQueries.Add(int64(len(members)))
		tr = r.EnableTrace()
		tr.SetTag(groupID)
		mark = tr.Mark()
		for k := range members {
			qg.SetMemberTag(idx[k], memberTrace[k])
		}
	}
	maxRounds := 0
	for _, sub := range members {
		maxRounds = max(maxRounds, sub.rounds)
	}

	for e := 0; e < maxRounds; e++ {
		if s.isClosing() && e > 0 {
			break
		}
		wanted := false
		for _, sub := range members {
			if !sub.dead && !sub.rq.canceled() && e < sub.rounds {
				wanted = true
				break
			}
		}
		if !wanted {
			break
		}
		if !s.acquireGroup() {
			break
		}
		t := b.at + float64(e)*b.period
		start := time.Now()
		results, err, timedOut := bounded(s.cfg.QueryTimeout, func() ([]*core.Result, error) {
			return qg.RunRound(r, t)
		})
		s.release()
		s.met.querySeconds.Observe(time.Since(start).Seconds())
		s.met.sharedRounds.Inc()
		if timedOut {
			s.met.queryTimeouts.Inc()
			tr = nil // the abandoned round still writes the recorder
			for k, sub := range members {
				if !sub.dead {
					recs[k].Error = proto.CodeTimeout
					recs[k].IncompleteReason = "execution deadline exceeded"
					sub.ss.sendErr(sub.q.ID, proto.CodeTimeout,
						fmt.Sprintf("shared round %d exceeded the %v execution deadline", e, s.cfg.QueryTimeout))
					sub.dead = true
				}
			}
			return // the group's runner is abandoned with the round, not returned
		}
		if err != nil {
			for k, sub := range members {
				if !sub.dead {
					recs[k].Error = proto.CodeExec + ": " + err.Error()
					sub.ss.sendErr(sub.q.ID, proto.CodeExec, err.Error())
					sub.dead = true
				}
			}
			return
		}
		for k, sub := range members {
			if sub.dead || sub.rq.canceled() || e >= sub.rounds {
				continue
			}
			res := results[idx[k]]
			if !sub.headerSent {
				cs := clusterSize[qg.ClusterOf(idx[k])]
				if !sub.ss.send(proto.KindHeader, proto.Header{
					ID: sub.q.ID, Columns: res.Columns, CacheHit: sub.hit,
					Shared: cs > 1, ClusterSize: cs,
					TraceID: memberTrace[k], Sampled: sampled,
				}) {
					sub.dead = true
					continue
				}
				sub.headerSent = true
			}
			if !sub.ss.emitEpoch(sub.q.ID, e, t, res) {
				sub.dead = true
				continue
			}
			sub.epochs++
			recs[k].Epochs++
			recs[k].Rows += len(res.Rows)
			recs[k].Complete = res.Complete
		}
	}
	capture() // before the runner, and with it the recorder, changes hands
	if sampled {
		r.DisableTrace()
	}
	b.pool.runners.Put(r)
}

// maxEpochs is the largest epoch count any member streamed.
func maxEpochs(members []*groupSub) int {
	n := 0
	for _, sub := range members {
		n = max(n, sub.epochs)
	}
	return n
}
