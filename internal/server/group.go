package server

import (
	"fmt"
	"math"
	"sync"
	"time"

	"sensjoin/internal/core"
	"sensjoin/internal/proto"
)

// Shared execution of continuous queries. A shareable continuous
// SENS-Join query waits one BatchWindow for companions; every one that
// arrives within the window for the same (deployment, start time,
// period) joins the same batch, and the batch becomes one execution of
// many members whose round is a core.QueryGroup's: ONE shared protocol
// round per epoch on one runner. The epoch loop, tracing, the flight
// recorder and the answers are the one execute every query goes through
// (server.go). Each member still receives exactly its own result table
// (the group's correctness contract), so sharing is invisible to
// clients except through the Header's Shared/ClusterSize facts and the
// lower network cost per query.
//
// Queries arriving after a window closed simply form a new batch: the
// incremental filter state of a running group is epoch-aligned, so late
// joiners cannot splice into it.

// groupHub collects compatible continuous queries into batches.
type groupHub struct {
	s       *Server
	mu      sync.Mutex
	pending map[string]*execution
}

func newGroupHub(s *Server) *groupHub {
	return &groupHub{s: s, pending: make(map[string]*execution)}
}

// enqueue adds a query to the open batch for its (deployment, start,
// period) — opening one, and arming its window timer, if none is open.
func (h *groupHub) enqueue(m *member, pl *pool, at float64) {
	period := m.prep.Period()
	key := fmt.Sprintf("%s|%x|%x", pl.key, math.Float64bits(at), math.Float64bits(period))
	h.mu.Lock()
	b := h.pending[key]
	if b == nil {
		b = &execution{pool: pl, at: at, period: period, shared: true}
		h.pending[key] = b
		time.AfterFunc(h.s.cfg.BatchWindow, func() {
			h.mu.Lock()
			delete(h.pending, key)
			h.mu.Unlock()
			h.run(b)
		})
	}
	b.members = append(b.members, m)
	h.mu.Unlock()
}

// run builds the batch's query group and executes the batch.
func (h *groupHub) run(b *execution) {
	qg := core.NewQueryGroup(core.Options{})
	members := b.members[:0]
	for _, m := range b.members {
		// A member's result slot in RunRound's output is its index in
		// Add order, which is its index in members.
		i, err := qg.Add(m.prep)
		if err != nil {
			// Pre-validation (Shareable) makes this unreachable in
			// practice, but a batch must never strand a member's slot.
			m.ss.sendErr(m.rec.ID, proto.CodeExec, err.Error())
			m.ss.finish(m.rec.ID)
			continue
		}
		qg.SetMemberTag(i, m.rec.TraceID)
		members = append(members, m)
	}
	if len(members) == 0 {
		return
	}
	clusterSize := make(map[int]int)
	for i := range members {
		clusterSize[qg.ClusterOf(i)]++
	}
	for i, m := range members {
		m.rec.ClusterSize = clusterSize[qg.ClusterOf(i)]
		m.rec.Shared = m.rec.ClusterSize > 1
	}
	b.members = members
	b.round = func(r *core.Runner, t float64, opts ...core.RunOption) ([]*core.Result, error) {
		return qg.RunRound(r, t, opts...)
	}
	h.s.execute(b)
}
