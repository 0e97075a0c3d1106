package netsim

// Sharded event execution: conservative time-window parallelism.
//
// The deployment is partitioned into regions (PartitionStrips); each
// region owns an event heap, a clock and the network's per-region radio
// state. The loop repeatedly picks the global minimum event time T and
// lets every region execute its events with t < T + lookahead
// concurrently — the classic conservative synchronization window. The
// lookahead is the minimum cross-region latency: the air time of a single
// empty packet, because every interaction between nodes travels over the
// radio and no message arrives earlier than that. Events a region
// schedules for itself go straight into its own heap; events it schedules
// for another region are appended to the destination's inbox and merged
// at the next window barrier, where the lookahead guarantees their
// timestamps lie at or beyond the window end — the merge can never
// reorder causality. A coordinator event closes the window before it:
// regions stop, it runs alone, they resume. One region is the same loop
// with an infinite lookahead: a window runs until the queue drains or a
// coordinator event is due.
//
// Determinism contract: a run is the same run at every region count. An
// event's tie-break key is (scheduling node, that node's call count), not
// an arrival order, so every heap orders the events it holds the way one
// heap holding all of them would, and each node executes the same events
// in the same order under any partition. What differs between partitions
// is only the interleaving of different nodes' events inside a window,
// which the sharding contract makes invisible: a node event touches the
// state of the node it runs for, and whatever is shared is written
// between windows. The network keeps that contract for everything it
// offers (network.go, reliable.go) — shadow counters, trace buffers and
// give-ups per region, folded at drain; a stateless loss draw; ARQ state
// that the sender's region and the receiver's delivery event touch at
// instants a lookahead apart — and churn mutates topology only in
// coordinator events. So the best-effort radio, the loss models, reliable
// transport, churn, tracing and live metrics all run sharded, and so do
// continuous SENS-Join and QueryGroup rounds (their per-node state lives
// in runner-owned slabs). The journals internal/core records are
// byte-identical across region counts (TestShardTraceDeterministicJournal).

import (
	"fmt"
	"math"
	"sync"

	"sensjoin/internal/topology"
)

// shardRegion is one region's private execution state. During a window
// only the region's worker touches heap, now and steps; the inbox is the
// one mutex-guarded hand-off point.
type shardRegion struct {
	heap  eventHeap
	now   Time
	steps int64

	inMu  sync.Mutex
	inbox []event

	// pad keeps concurrently written regions off each other's cache
	// lines.
	_ [64]byte
}

// PartitionStrips assigns every node of the deployment to one of shards
// regions by slicing the area into equal strips along its longer axis.
// Strips keep most radio traffic region-local (load balance), but
// correctness never depends on the strip width: the conservative window
// makes any partition sound, including strips narrower than the radio
// range. The base station in the default corner placement lands in
// region 0.
func PartitionStrips(dep *topology.Deployment, shards int) []int32 {
	out := make([]int32, dep.N())
	if shards <= 1 {
		return out
	}
	span := dep.Area.Width()
	min := dep.Area.MinX
	useX := dep.Area.Width() >= dep.Area.Height()
	if !useX {
		span = dep.Area.Height()
		min = dep.Area.MinY
	}
	if span <= 0 {
		return out
	}
	for i, p := range dep.Pos {
		c := p.X
		if !useX {
			c = p.Y
		}
		r := int32(float64(shards) * (c - min) / span)
		if r < 0 {
			r = 0
		}
		if r >= int32(shards) {
			r = int32(shards) - 1
		}
		out[i] = r
	}
	return out
}

// EnableSharding partitions the simulator into shards regions with the
// given node-to-region assignment. lookahead is the conservative window
// width; workers bounds the parallel goroutines per window (0 means one
// per region). It must be called while the event queue is empty, and a
// network on this simulator must be bound again (Network.BindSharding).
func (s *Sim) EnableSharding(regionOf []int32, shards int, lookahead Time, workers int) {
	if s.Pending() > 0 {
		panic("netsim: EnableSharding with events pending")
	}
	if s.Sharded() {
		panic("netsim: sharding already enabled")
	}
	if shards <= 1 {
		return
	}
	if lookahead <= 0 {
		panic(fmt.Sprintf("netsim: non-positive lookahead %g", lookahead))
	}
	if workers <= 0 || workers > shards {
		workers = shards
	}
	s.steps = s.Steps()
	s.regions = make([]shardRegion, shards)
	for i := range s.regions {
		s.regions[i].now = s.now
	}
	s.regionOf, s.lookahead, s.workers = regionOf, lookahead, workers
	s.runnable = make([]int32, 0, shards)
	s.growNodes(len(regionOf))
}

// Sharded reports whether the simulator runs more than one region.
func (s *Sim) Sharded() bool { return len(s.regions) > 1 }

// run is the event loop: execute the coordinator's head when nothing
// precedes it, otherwise a window of region events up to min+lookahead
// (never past the coordinator's head), merge the cross-region inboxes,
// repeat. until bounds execution like RunUntil (+Inf for Run).
func (s *Sim) run(until Time) {
	counted := s.Steps()
	for {
		T := inf()
		for i := range s.regions {
			if h := s.regions[i].heap; len(h) > 0 && h[0].t < T {
				T = h[0].t
			}
		}
		end := T + s.lookahead
		if len(s.coord) > 0 {
			if c := s.coord[0].t; c <= T {
				if c > until {
					break
				}
				s.drain() // a coordinator event sees the global view
				e := s.coord.pop()
				s.now = e.t
				s.steps++
				e.fn()
				counted = s.meter(counted)
				continue
			} else if c < end {
				end = c
			}
		}
		if math.IsInf(T, 1) || T > until {
			break
		}
		s.window(end, until)
		counted = s.meter(counted)
	}
	// Every clock ends where the run ended.
	now := s.now
	for i := range s.regions {
		now = max(now, s.regions[i].now)
	}
	if !math.IsInf(until, 1) && now < until {
		now = until
	}
	s.now = now
	for i := range s.regions {
		s.regions[i].now = now
	}
	if s.met.Events != nil {
		s.met.Events.Add(s.Steps() - counted)
		s.met.Queue.Set(int64(s.Pending()))
	}
	s.drain()
}

// window runs every region's events with t < end (and t <= until), in
// parallel when more than one region has work, then merges the inboxes.
func (s *Sim) window(end, until Time) {
	runnable := s.runnable[:0]
	for i := range s.regions {
		if h := s.regions[i].heap; len(h) > 0 && h[0].t < end && h[0].t <= until {
			runnable = append(runnable, int32(i))
		}
	}
	s.runnable = runnable
	s.running.Store(true)
	if len(runnable) > 1 && s.workers > 1 {
		var wg sync.WaitGroup
		wg.Add(len(runnable))
		for _, ri := range runnable {
			r := &s.regions[ri]
			go func() {
				defer wg.Done()
				r.runWindow(end, until)
			}()
		}
		wg.Wait()
	} else {
		for _, ri := range runnable {
			s.regions[ri].runWindow(end, until)
		}
	}
	s.running.Store(false)
	s.mergeInboxes(end)
}

// meter adds the events executed since counted to the live counter once
// a sample's worth accumulated, and returns the new mark.
func (s *Sim) meter(counted int64) int64 {
	if s.met.Events == nil {
		return counted
	}
	n := s.Steps()
	if n-counted < simMetricsSample {
		return counted
	}
	s.met.Events.Add(n - counted)
	s.met.Queue.Set(int64(s.Pending()))
	return n
}

// runWindow executes this region's events with t < end (and t <= until),
// advancing the region clock.
func (r *shardRegion) runWindow(end, until Time) {
	for len(r.heap) > 0 {
		t := r.heap[0].t
		if t >= end || t > until {
			return
		}
		e := r.heap.pop()
		r.now = t
		r.steps++
		e.fn()
	}
}

// mergeInboxes moves cross-region events into their destination heaps.
// Their keys came with them, so the heap orders them exactly as if they
// had been pushed directly: the merge order is immaterial. The
// conservative window guarantees every handed-off event lies at or
// beyond the window end; anything earlier would have to reorder
// causality, so it panics.
func (s *Sim) mergeInboxes(end Time) {
	for i := range s.regions {
		r := &s.regions[i]
		for _, e := range r.inbox {
			if e.t < end {
				panic(fmt.Sprintf("netsim: cross-region event at %.6f inside window ending %.6f (latency below lookahead)", e.t, end))
			}
			r.heap.push(e)
		}
		clear(r.inbox)
		r.inbox = r.inbox[:0]
	}
}
