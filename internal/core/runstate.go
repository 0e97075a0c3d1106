package core

import (
	"math"
	"sync"
	"sync/atomic"

	"sensjoin/internal/topology"
	"sensjoin/internal/zorder"
)

// Run state. What a protocol round needs per node — its plan entry, its
// sensNode, its collection-wave state — lives in slabs the Runner owns:
// an execution borrows a slab, indexes it by node id from the network's
// one handler, and gives it back cleared, so a round allocates for what
// it sends and nothing for the nodes that merely exist.
//
// What a SENS-Join round sends and keeps per hop — sender lists, Treecut
// lists, key sets, payloads, filter messages, the base station's final
// list — is carved from round arenas the Runner owns, one per simulator
// region: a node carves only from the arena of its own region, and two
// nodes of one region never run at the same time, so parallel region
// workers never share an arena. Everything carved lives until the round
// returns, which is why the slices inside the slab's elements may be
// shared (a relay adopts its only child's key set, phase C reads a
// proxy's tuples): nothing reuses their storage before the round is
// over, and nothing that outlives the round points into it. What crosses
// rounds — a continuous query's last broadcast and reconstructed filter —
// stays on the heap. Slabs and arenas follow one rule (giveBack,
// closeArenas): while events are still queued they may point into the
// finished round's storage, so it is abandoned to them.
//
// A SENS-Join round's own fixed state — the roundState, its per-member
// slices, and its message handler, wave and deadline callbacks, methods
// bound once when the state is made — is lent the same way and under the
// same rule (borrowRound, giveBackRound), and the simulator reuses the
// batch records it queues a wave's levels as (netsim's ScheduleNodes).
// So a warm round allocates its execution, its plan and its answer, and
// nothing for the schedule and the state that produce it.
//
// Giving a slab back clears every element, closing an arena clears what
// it handed out, and giving the round state back clears it, so an idle
// Runner (the daemon and the experiment suite pool them) lets go of its
// last execution. The Runner owns the storage rather than a sync.Pool
// because the suite allocates fast enough that the collector empties a
// pool between two calls; Runners themselves are pooled per deployment
// and reset on return (pool.go).

// runScratch is the storage a Runner lends to its executions. A Runner
// executes one query at a time, so there is no locking; an Exec made
// without a Runner gets a private one, so it allocates what it uses.
type runScratch struct {
	nodes []nodeData // the plan's, borrowed by buildPlan
	sens  []sensNode
	masks []nodeMasks // beside sens, borrowed only by a round of m > 1 queries
	wave  []waveNode
	// arenas are the round arenas, one per simulator region, lent to a
	// SENS-Join round by openArenas.
	arenas []roundArena
	// round is a SENS-Join round's own state (roundState), lent by
	// borrowRound.
	round *roundState

	kernel kernelScratch
	// results holds the storage of plain results handed back by Release.
	results resultStore
}

// run returns the execution's scratch.
func (x *Exec) run() *runScratch {
	if x.scratch == nil {
		x.scratch = new(runScratch)
	}
	return x.scratch
}

// borrow takes n zeroed elements out of *slab, or makes them when the
// slab is too small. The slab leaves the scratch until giveBack, so a
// second borrower in the meantime gets storage of its own.
func borrow[T any](slab *[]T, n int) []T {
	s := *slab
	*slab = nil
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// giveBack clears s and returns it to *slab for the next run. If events
// are still queued (a collection wave stops the clock at its deadline;
// reliable-transport timers outlive the transfer they guard) they may
// hold pointers into s, so s is left to them and the next run makes its
// own: an earlier run can never write into a later one's state.
func giveBack[T any](x *Exec, slab *[]T, s []T) {
	if x.Sim.Pending() > 0 {
		return
	}
	clear(s)
	*slab = s
}

// borrowRound lends the runner's SENS-Join round state, or makes one.
// Like a slab it leaves the scratch until giveBackRound.
func borrowRound(x *Exec) *roundState {
	rs := x.run()
	r := rs.round
	rs.round = nil
	if r == nil {
		r = newRoundState()
	}
	return r
}

// giveBackRound clears r and returns it for the next round under
// giveBack's rule. It matters beyond pointers here: a round's messages
// name their round by carrying r, so a message still queued could pass
// for the next round's if it got r back.
func giveBackRound(x *Exec, r *roundState) {
	if x.Sim.Pending() > 0 {
		return
	}
	r.reset()
	x.run().round = r
}

// roundArena is one region's storage for a SENS-Join round: typed bump
// storage for what the round carves per hop. Its capacity is the largest
// demand of the recent rounds (bump.open), so a warm runner's round
// carves everything without allocating; a carve that does not fit is
// made on the heap and raises the next round's size, and a fresh
// runner's first round allocates as if there were no arena.
type roundArena struct {
	keys     bump[zorder.Key]
	tuples   bump[finalTuple]
	ids      bump[topology.NodeID]
	reports  bump[childReport]
	payloads bump[jaPayload]
	filters  bump[filterMsg]
	tails    bump[sensTail]
}

// bump is bump storage for one element type.
type bump[T any] struct {
	buf    []T // len(buf) == cap(buf): the round's storage
	used   int
	demand int // what this round asked for, carved or made
	// peak and prev are the largest demands of the current span of
	// arenaSpan rounds and of the one before it; rounds counts the
	// current span's.
	peak, prev, rounds int
}

// arenaSpan is the length, in rounds, of the spans whose largest demands
// size an arena: its window is the last arenaSpan to 2·arenaSpan rounds.
const arenaSpan = 8

// take carves an empty slice of capacity n. An append past n moves the
// slice to the heap, never into a neighbour's storage.
func (b *bump[T]) take(n int) []T {
	b.demand += n
	if b.used+n > len(b.buf) {
		return make([]T, 0, n)
	}
	s := b.buf[b.used : b.used : b.used+n]
	b.used += n
	return s
}

// push appends v to a sender list, carving the list with capacity n on
// its first sender.
func (b *bump[T]) push(list []T, n int, v T) []T {
	if list == nil {
		list = b.take(n)
	}
	return append(list, v)
}

// one carves a zeroed element.
func (b *bump[T]) one() *T {
	b.demand++
	if b.used == len(b.buf) {
		return new(T)
	}
	b.used++
	return &b.buf[b.used-1]
}

// rest returns the free storage as an empty destination for a result of
// unknown size; keep claims what the result used. No carve may come
// between the two.
func (b *bump[T]) rest() []T { return b.buf[b.used:b.used] }

// keep records s, a result built in rest's storage or made on the heap
// because it did not fit, as carved; in the storage it is capped at its
// length.
func (b *bump[T]) keep(s []T) []T {
	n := len(s)
	b.demand += n
	if n > 0 && b.used < len(b.buf) && &s[0] == &b.buf[b.used] {
		b.used += n
		return s[:n:n]
	}
	return s
}

// open sizes the storage for a round from the recent rounds' demand.
// Let hi be the largest demand of the window (the last arenaSpan to
// 2·arenaSpan rounds, the last one included). The storage is made at hi
// when the last round did not fit in it, or when it holds more than four
// times hi; otherwise it stays. So traffic that mixes shapes of very
// different size reallocates only when no round of the window came
// within a quarter of the storage, and a runner never keeps more than
// four times what its largest recent round asked for.
func (b *bump[T]) open() {
	b.peak = max(b.peak, b.demand)
	hi := max(b.peak, b.prev)
	if len(b.buf) < b.demand || len(b.buf) > 4*hi {
		b.buf = make([]T, hi)
	}
	if b.rounds++; b.rounds == arenaSpan {
		b.prev, b.peak, b.rounds = b.peak, 0, 0
	}
	b.used, b.demand = 0, 0
}

// close ends a round: the carved storage is cleared for the next one or,
// when stale, dropped and left to whoever still points into it.
func (b *bump[T]) close(stale bool) {
	if stale {
		b.buf = nil
		return
	}
	clear(b.buf[:b.used])
}

func (a *roundArena) open() {
	a.keys.open()
	a.tuples.open()
	a.ids.open()
	a.reports.open()
	a.payloads.open()
	a.filters.open()
	a.tails.open()
}

func (a *roundArena) close(stale bool) {
	a.keys.close(stale)
	a.tuples.close(stale)
	a.ids.close(stale)
	a.reports.close(stale)
	a.payloads.close(stale)
	a.filters.close(stale)
	a.tails.close(stale)
}

// openArenas lends the execution's round arenas, one per simulator
// region, to a round. Like a borrowed slab they leave the scratch until
// closeArenas.
func openArenas(x *Exec) []roundArena {
	rs := x.run()
	a := rs.arenas
	rs.arenas = nil
	if len(a) != x.Sim.Regions() {
		a = make([]roundArena, x.Sim.Regions())
	}
	for i := range a {
		a[i].open()
	}
	return a
}

// closeArenas returns the arenas after the round under giveBack's rule:
// while events are still queued they may point into the carved storage,
// so it is abandoned to them — only the demand is kept — and the next
// round carves from storage of its own.
func closeArenas(x *Exec, a []roundArena) {
	stale := x.Sim.Pending() > 0
	for i := range a {
		a[i].close(stale)
	}
	x.run().arenas = a
}

// A plain result's rows — row headers and one cell slab — are carved
// from a result block the Runner owns (resultStore), not made per query.
// The Result keeps a handle to its block, and Release hands it back for a
// later query's rows. The rule is the caller's: release a result once
// nothing reads its rows any more. Inside core, rows that are dropped at
// once go straight back (the attempt WithRecovery re-executes, rows a
// reliable finish recomputes, a partitioned mediator's rows); sensjoind
// releases a result once its write loop has encoded the epoch's last Rows
// chunk. Rows nobody reads are better never built: the contributor-only
// joins and a run WithoutRows only count them, and take no block. A
// result nobody releases is collected like any other value, so a caller
// that ignores Release is as correct as before and only allocates more.
//
// The free block is runner-owned for the reason above against a
// sync.Pool, and it keeps one block: a pipelined continuous query
// computes epoch e+1 while epoch e is still being written, and finds
// epoch e-1's block back, so one free block alternates with the one in
// flight. A free block is live heap the collector paces itself by, and a
// second one on every runner of the daemon cost serve_rows an eighth of
// its peak resident set. A block serves a result only if it holds the
// result and is at most four times its size — the store's own rule: it
// keeps one block and no history, unlike a round arena, whose size
// follows the largest demand of its recent rounds — and a result that
// the free block does not fit gets a block made at its size. Release may
// run on another goroutine than the Runner's (the daemon's write loop),
// so the free slot takes a mutex.

// resultStore is a Runner's free result block.
type resultStore struct {
	mu   sync.Mutex
	free *resultBlock // nil when none is free
}

// resultBlock is the storage of one plain result: len(rows) headers and
// the cells they are carved from.
type resultBlock struct {
	rows  []Row
	cells []float64
	store *resultStore
}

// take returns a block of at least nrows headers and ncells cells: the
// free one when it is not more than four times too large, else a new one.
func (s *resultStore) take(nrows, ncells int) *resultBlock {
	fits := func(have, need int) bool { return have >= need && have <= 4*max(need, 1) }
	s.mu.Lock()
	b := s.free
	if b != nil && fits(len(b.rows), nrows) && fits(len(b.cells), ncells) {
		s.free = nil
		s.mu.Unlock()
		return b
	}
	s.mu.Unlock()
	return &resultBlock{rows: make([]Row, nrows), cells: make([]float64, ncells), store: s}
}

// put makes b the free block, displacing the one there.
func (s *resultStore) put(b *resultBlock) {
	s.mu.Lock()
	s.free = b
	s.mu.Unlock()
}

// release hands b back to its store; a nil block (a result with no
// storage of its own) is a no-op.
func (b *resultBlock) release() {
	if b == nil {
		return
	}
	if PoisonReleased.Load() {
		for i := range b.cells {
			b.cells[i] = poisonCell
		}
		for i := range b.rows {
			b.rows[i] = b.rows[i][:0]
		}
		Poisoned.Add(1)
	}
	b.store.put(b)
}

// PoisonReleased is a test hook: while it is set, releasing a result
// overwrites its storage — every cell with a NaN-boxed sentinel, every row
// header cut to length zero — so a table read after its release cannot
// pass for a correct one.
var PoisonReleased atomic.Bool

// Poisoned counts the results released while PoisonReleased was set.
var Poisoned atomic.Int64

// poisonCell is the NaN-boxed sentinel of released storage: no join
// computes this payload.
var poisonCell = math.Float64frombits(0x7ff8_dead_0000_beef)

// Release hands the result's row storage back to the Runner that
// computed it, for a later query's rows: afterwards Rows must not be read.
// It is nil-safe, and a second call is a no-op; it must not run
// concurrently with itself. A result that is never released is garbage
// collected. A caller that will not read the rows at all runs the query
// WithoutRows instead: nothing is built, so there is nothing to release.
func (r *Result) Release() {
	if r == nil {
		return
	}
	b := r.block
	r.block = nil
	b.release()
}
