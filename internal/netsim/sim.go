// Package netsim is a discrete-event simulator for wireless sensor
// networks at packet granularity.
//
// It stands in for the ns-2 simulator the paper used (§VI): the paper's
// evaluation metric is the number of packet transmissions with a maximum
// packet size of 48 bytes, counted overall and per node, so the simulator
// models exactly that observable — a broadcast radio medium, link-level
// neighborhoods, message packetization, transmission accounting per
// protocol phase, and link-failure injection. MAC-level effects
// (collisions, retransmissions) are abstracted into per-packet cost; they
// are common-mode between the join methods being compared.
package netsim

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Time is simulated time in seconds.
type Time = float64

func inf() Time { return math.Inf(1) }

// event is one queue entry. key breaks ties at equal t: a coordinator
// event's scheduling order, or for a node event the scheduling node
// packed above that node's own count (Sim.nextKey).
type event struct {
	t   Time
	key int64
	fn  func()
}

// eventHeap is a binary min-heap ordered by (t, key) — keys are unique
// within a heap, so the order is total and pops are deterministic. The
// sift operations are typed: container/heap would box every event
// through interface{}, one allocation per Push on the simulator's
// hottest loop.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].key < h[j].key
}

// push appends e and sifts it up.
func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

// pop removes and returns the minimum event.
func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{} // release the fn reference for the collector
	s = s[:n]
	*h = s
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && s.less(r, l) {
			m = r
		}
		if !s.less(m, i) {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return top
}

// Sim is the event loop. It has one engine: the nodes are partitioned
// into regions — one, unless EnableSharding asks for more — each with
// its own queue and clock, plus a coordinator queue for the events that
// belong to no node.
//
// Node events (ScheduleNode, ScheduleNodes) run on their node's region.
// Two of them at one instant run in the order of the node that scheduled
// them and, for one scheduling node, in the order it scheduled them. That
// key names no region, so every node executes the same events in the
// same order under any partition, and a run is the same run at every
// region count; shard.go runs the regions in parallel.
//
// Coordinator events (Schedule) run with every region stopped, before the
// node events of their instant, in scheduling order. They are what may
// touch many nodes at once: churn ticks, a link failure a test injects.
//
// The queue holds entries, not events. Schedule and ScheduleNode queue
// one entry for one event. ScheduleNodes queues a schedule — "these
// nodes, in this order, at t" — as one entry per region and counts one
// event per node when it runs, so Steps and the event counter read what
// per-node scheduling would have read while Pending and the queue gauge
// read what is actually queued: for a protocol round, the routing tree's
// depth plus the messages in flight. Steps count events because that is
// the unit every figure derived from them uses (events per second, events
// per node-round, the benchmark's goldens); a cheaper spelling of the
// same deadlines must not move them.
type Sim struct {
	now Time
	// steps counts coordinator events; node events count in their region.
	steps int64
	met   SimMetrics

	coord    eventHeap
	coordSeq int64

	regions []shardRegion
	// regionOf maps a node to its region; nil while there is one.
	regionOf []int32
	// nodeSeq counts each node's scheduling calls (nextKey).
	nodeSeq []int64
	// lookahead is the conservative window width: the minimum latency of
	// any cross-region interaction. Infinite with one region.
	lookahead Time
	// workers bounds the goroutines running one window.
	workers int
	// running is set while region windows execute: node-event context.
	running  atomic.Bool
	runnable []int32 // scratch for the window loop
	// drain folds per-region buffers (trace events, counter shadows,
	// give-ups) back into the global view before every coordinator event
	// and after every run; the network installs its own in BindSharding.
	drain func()
}

// simMetricsSample batches event-counter updates and queue-gauge samples
// in the metered loop: exact totals, 1/1024th of the hot-loop cost.
const simMetricsSample = 1024

// NewSim returns a simulator at time zero with one region.
func NewSim() *Sim {
	return &Sim{regions: make([]shardRegion, 1), lookahead: inf(), workers: 1, runnable: make([]int32, 0, 1), drain: func() {}}
}

// Reset rewinds an idle simulator to the state NewSim left it in — clock,
// sequence and step counters at zero in every region — keeping the
// queues' capacity, its instruments and its regions. Event times and
// tie-breaking keys then repeat exactly, so a run after Reset is
// bit-identical to the same run on a new simulator (a response time is a
// difference of clock readings, and its last bits depend on where the
// clock stood). It reports false and changes nothing while events are
// pending: they were scheduled against the old clock.
func (s *Sim) Reset() bool {
	if s.Pending() > 0 {
		return false
	}
	s.now, s.steps, s.coordSeq = 0, 0, 0
	clear(s.nodeSeq)
	for i := range s.regions {
		r := &s.regions[i]
		r.now, r.steps = 0, 0
	}
	return true
}

// Now returns the coordinator's clock: the current time outside a run
// and inside a coordinator event. Node events read NodeNow.
func (s *Sim) Now() Time { return s.now }

// NodeNow returns node id's current clock: its region's clock inside a
// node event (written only by the region's own worker, so reading it
// from that worker is race-free), the coordinator's clock otherwise.
// Event handlers that need the acting node's time must use it — the
// coordinator's clock does not advance while regions run.
func (s *Sim) NodeNow(id NodeID) Time {
	if s.running.Load() {
		return s.regions[s.region(id)].now
	}
	return s.now
}

// Steps returns the number of events executed so far: a batch counts one
// per node. Read it between runs.
func (s *Sim) Steps() int64 {
	n := s.steps
	for i := range s.regions {
		n += s.regions[i].steps
	}
	return n
}

// Schedule queues a coordinator event: fn runs at absolute time t with
// every region stopped, before the node events of the same instant.
// Scheduling in the past panics: it would silently reorder causality. So
// does scheduling from a node event, whose region may be ahead of or
// behind t; node work goes through ScheduleNode.
func (s *Sim) Schedule(t Time, fn func()) {
	if s.running.Load() {
		panic("netsim: Schedule from a node event; use ScheduleNode")
	}
	if t < s.now {
		panic(fmt.Sprintf("netsim: scheduling event at %.6f before now %.6f", t, s.now))
	}
	s.coordSeq++
	s.coord.push(event{t: t, key: s.coordSeq, fn: fn})
}

// After queues a coordinator event d seconds from now.
func (s *Sim) After(d Time, fn func()) { s.Schedule(s.now+d, fn) }

// ScheduleNode runs fn at absolute time t on node to's region. from is
// the scheduling node — the one whose event is executing, or the node a
// coordinator-context call acts for — and orders fn among the events of
// its instant.
func (s *Sim) ScheduleNode(from, to NodeID, t Time, fn func()) {
	s.push(from, s.region(to), t, s.nextKey(from), fn)
}

// ScheduleNodes runs fn(id) at absolute time t for every id of ids, in
// slice order, as if ScheduleNode(from, id, t, ...) had been called for
// each of them back to back — same execution order, same Steps — at the
// cost of one queue entry per region the ids live in, not len(ids): a
// level of a collection wave is one deadline, not one per node. Each
// entry runs its region's ids on that region's worker. The equivalence
// rests on the calls being back to back: the per-node events would hold
// consecutive keys of from, so nothing can sort between them and one
// entry in their place keeps every other event's relative order. ids must
// stay unchanged until the batch ran.
//
// An entry is a batch record taken from the free list of from's region,
// so a warm call allocates nothing (see batch).
func (s *Sim) ScheduleNodes(from NodeID, ids []NodeID, t Time, fn func(NodeID)) {
	if len(ids) == 0 {
		return
	}
	key := s.nextKey(from)
	home := s.region(from)
	if s.regionOf == nil {
		s.pushBatch(from, home, 0, ids, t, key, fn)
		return
	}
	// One entry per region, queued where its first id is met: entries of
	// different regions never meet in one heap, so their order is free.
	resident := s.regions[home].resident
	clear(resident)
	for _, id := range ids {
		if ri := s.regionOf[id]; !resident[ri] {
			resident[ri] = true
			s.pushBatch(from, home, ri, ids, t, key, fn)
		}
	}
}

// batch is one queue entry of ScheduleNodes: region's share of a wave.
// Its event is run, a method value bound once when the record is made, so
// the queue entry stays the 24-byte closure event every other event is.
//
// Records are reused under one rule that needs no lock and keeps their
// number bounded whether or not the simulator ever goes idle. A record
// is taken from the free list of its home — the region of the node that
// scheduled it, whose worker (or the coordinator) is the only one taking
// from that list — and goes back to it only after its event ran: at once
// when it ran on its home region, at the next window barrier through the
// executing region's spent list when it ran on another. Running, it
// clears ids and fn, so an idle simulator pins no caller's state.
type batch struct {
	s      *Sim
	ids    []NodeID
	fn     func(NodeID)
	region int32 // whose ids it runs
	home   int32 // whose free list it returns to
	run    func()
}

// pushBatch queues region dst's share of ids as a record of home's.
func (s *Sim) pushBatch(from NodeID, home, dst int32, ids []NodeID, t Time, key int64, fn func(NodeID)) {
	h := &s.regions[home]
	var b *batch
	if n := len(h.free); n > 0 {
		b = h.free[n-1]
		h.free = h.free[:n-1]
	} else {
		b = &batch{s: s, home: home}
		b.run = b.exec
	}
	b.ids, b.fn, b.region = ids, fn, dst
	s.push(from, dst, t, key, b.run)
}

// exec runs the batch's ids of its region on that region's worker and
// hands the record back.
func (b *batch) exec() {
	s, ids, fn := b.s, b.ids, b.fn
	b.ids, b.fn = nil, nil
	r := &s.regions[b.region]
	ran := int64(-1) // the pop counted one
	for _, id := range ids {
		if s.regionOf == nil || s.regionOf[id] == b.region {
			ran++
			fn(id)
		}
	}
	r.steps += ran
	if b.home == b.region {
		r.free = append(r.free, b)
	} else {
		r.spent = append(r.spent, b)
	}
}

// nextKey numbers one scheduling call by from: the node packed above its
// own call count, so one node's keys ascend in the order it scheduled and
// different nodes' keys order by node. Only from's region worker (or the
// coordinator) schedules for from, so the count needs no lock;
// EnableSharding and the network size it before workers exist.
func (s *Sim) nextKey(from NodeID) int64 {
	s.growNodes(int(from) + 1)
	s.nodeSeq[from]++
	return int64(from)<<32 | s.nodeSeq[from]
}

// growNodes makes room for the call counts of node ids below n.
func (s *Sim) growNodes(n int) {
	if len(s.nodeSeq) < n {
		s.nodeSeq = append(s.nodeSeq, make([]int64, n-len(s.nodeSeq))...)
	}
}

// region returns node id's region.
func (s *Sim) region(id NodeID) int32 {
	if s.regionOf == nil {
		return 0
	}
	return s.regionOf[id]
}

// push queues fn at (t, key) on region dst, on behalf of node from.
func (s *Sim) push(from NodeID, dst int32, t Time, key int64, fn func()) {
	r := &s.regions[dst]
	switch {
	case !s.running.Load():
		// Coordinator context: before a run, between windows or inside a
		// coordinator event.
		if t < s.now {
			panic(fmt.Sprintf("netsim: scheduling event at %.6f before now %.6f", t, s.now))
		}
	case s.region(from) == dst:
		// Intra-region: the caller is this region's worker.
		if t < r.now {
			panic(fmt.Sprintf("netsim: scheduling event at %.6f before now %.6f", t, r.now))
		}
	default:
		// Cross-region: hand off through the destination inbox, merged at
		// the window barrier, where the causality check happens.
		r.inMu.Lock()
		r.inbox = append(r.inbox, event{t: t, key: key, fn: fn})
		r.inMu.Unlock()
		return
	}
	r.heap.push(event{t: t, key: key, fn: fn})
}

// Run executes events until every queue is empty.
func (s *Sim) Run() { s.run(inf()) }

// RunUntil executes events with time <= t, then sets the clock to t
// unless the run already passed it.
func (s *Sim) RunUntil(t Time) { s.run(t) }

// Pending reports how many entries are queued; a batch is one entry per
// region whatever its size.
func (s *Sim) Pending() int {
	n := len(s.coord)
	for i := range s.regions {
		n += len(s.regions[i].heap) + len(s.regions[i].inbox)
	}
	return n
}
