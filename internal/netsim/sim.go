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

import "fmt"

// Time is simulated time in seconds.
type Time = float64

type event struct {
	t   Time
	seq int64
	fn  func()
}

// eventHeap is a binary min-heap ordered by (t, seq) — seq is unique, so
// the order is total and pops are deterministic. The sift operations are
// typed: container/heap would box every event through interface{}, one
// allocation per Push on the simulator's hottest loop.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
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

// Sim is the event loop: a priority queue of timestamped callbacks.
// Events at equal times run in scheduling order, so runs are
// deterministic. With EnableSharding the single heap is replaced by
// per-region heaps executed in parallel windows (see shard.go).
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
	now    Time
	heap   eventHeap
	seq    int64
	steps  int64
	halted bool
	met    SimMetrics
	sh     *shardEngine
}

// simMetricsSample batches event-counter updates and queue-gauge samples
// in the metered loops: exact totals, 1/1024th of the hot-loop cost.
const simMetricsSample = 1024

// NewSim returns a simulator at time zero.
func NewSim() *Sim { return &Sim{} }

// Reset rewinds an idle simulator to the state NewSim left it in — clock,
// sequence and step counters at zero, in every region under sharding —
// keeping the heap's capacity, its instruments and its sharding. Event
// times and tie-breaking sequence numbers then repeat exactly, so a run
// after Reset is bit-identical to the same run on a new simulator (a
// response time is a difference of clock readings, and its last bits
// depend on where the clock stood). It reports false and changes nothing
// while events are pending: they were scheduled against the old clock.
func (s *Sim) Reset() bool {
	if s.Pending() > 0 {
		return false
	}
	s.now, s.seq, s.steps, s.halted = 0, 0, 0, false
	if sh := s.sh; sh != nil {
		for i := range sh.regions {
			r := &sh.regions[i]
			r.now, r.seq, r.steps = 0, 0, 0
		}
		sh.crossSeq.Store(0)
	}
	return true
}

// Now returns the current simulated time.
func (s *Sim) Now() Time { return s.now }

// NodeNow returns node id's current clock: its region clock during a
// sharded run (written only by the region's own worker, so reading it
// from that worker is race-free), the global clock otherwise. Event
// handlers that need the acting node's time must use it — the global
// clock does not advance while a sharded run is in flight.
func (s *Sim) NodeNow(id NodeID) Time {
	if sh := s.sh; sh != nil && sh.running.Load() {
		return sh.regions[sh.regionOf[id]].now
	}
	return s.now
}

// Steps returns the number of events executed so far: a batch counts one
// per node.
func (s *Sim) Steps() int64 { return s.steps }

// Schedule runs fn at absolute time t. Scheduling in the past panics:
// it would silently reorder causality. Under sharding, events without a
// node affinity may only be scheduled from coordinator context (outside
// Run); event handlers must use ScheduleNode so the engine knows which
// region's heap and clock apply.
func (s *Sim) Schedule(t Time, fn func()) {
	if s.sh != nil {
		s.scheduleSharded(t, fn)
		return
	}
	if t < s.now {
		panic(fmt.Sprintf("netsim: scheduling event at %.6f before now %.6f", t, s.now))
	}
	s.seq++
	s.heap.push(event{t: t, seq: s.seq, fn: fn})
}

// scheduleSharded routes a plain Schedule to the base station's region.
func (s *Sim) scheduleSharded(t Time, fn func()) {
	if s.sh.running.Load() {
		panic("netsim: plain Schedule from an event handler during a sharded run; use ScheduleNode")
	}
	if t < s.now {
		panic(fmt.Sprintf("netsim: scheduling event at %.6f before now %.6f", t, s.now))
	}
	r := &s.sh.regions[s.sh.regionOf[0]]
	r.seq++
	r.heap.push(event{t: t, seq: r.seq, fn: fn})
}

// After runs fn d seconds from now.
func (s *Sim) After(d Time, fn func()) { s.Schedule(s.now+d, fn) }

// Run executes events until the queue is empty or Halt is called.
func (s *Sim) Run() {
	s.halted = false
	if s.sh != nil {
		s.runSharded(inf())
		return
	}
	s.runClassic(inf())
}

// RunUntil executes events with time <= t, then sets the clock to t.
func (s *Sim) RunUntil(t Time) {
	s.halted = false
	if s.sh != nil {
		s.runSharded(t)
		return
	}
	s.runClassic(t)
	if !s.halted && s.now < t {
		s.now = t
	}
}

// runClassic is the single-heap loop: events with time <= until, in
// (t, seq) order, until the heap drains or Halt is called.
func (s *Sim) runClassic(until Time) {
	if s.met.Events == nil {
		// Untraced hot loop: no metrics bookkeeping per event.
		for len(s.heap) > 0 && !s.halted && s.heap[0].t <= until {
			e := s.heap.pop()
			s.now = e.t
			s.steps++
			e.fn()
		}
		return
	}
	// The counter follows steps, not pops: a batch entry (ScheduleNodes)
	// is one pop and as many events as it has nodes.
	counted := s.steps
	for len(s.heap) > 0 && !s.halted && s.heap[0].t <= until {
		e := s.heap.pop()
		s.now = e.t
		s.steps++
		if s.steps-counted >= simMetricsSample {
			s.met.Events.Add(s.steps - counted)
			counted = s.steps
			s.met.Queue.Set(int64(len(s.heap)))
		}
		e.fn()
	}
	s.met.Events.Add(s.steps - counted)
	s.met.Queue.Set(int64(len(s.heap)))
}

// Halt stops Run/RunUntil after the current event returns.
func (s *Sim) Halt() { s.halted = true }

// Pending reports how many entries are queued; a batch is one entry per
// region whatever its size.
func (s *Sim) Pending() int {
	if s.sh != nil {
		n := 0
		for i := range s.sh.regions {
			n += len(s.sh.regions[i].heap) + len(s.sh.regions[i].inbox)
		}
		return n
	}
	return len(s.heap)
}
