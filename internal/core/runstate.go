package core

// Run state. What a protocol round needs per node — its sensNode, its
// collection-wave state — lives in slabs the Runner owns: an execution
// borrows a slab, indexes it by node id from the network's one handler,
// and gives it back cleared, so a round allocates for what it sends and
// nothing for the nodes that merely exist.
//
// Only the slabs are reused, never the slices inside their elements,
// which may be shared (a relay adopts its only child's key set, phase C
// reads a proxy's tuples), so giving a slab back clears every element and
// the next run starts those slices from nil. Clearing on the way out also
// lets an idle Runner (the daemon and the experiment suite pool them) let
// go of its last execution. The Runner owns the storage rather than a
// sync.Pool because the suite allocates fast enough that the collector
// empties a pool between two calls; Runners themselves are pooled per
// deployment and reset on return (pool.go).

// runScratch is the storage a Runner lends to its executions. A Runner
// executes one query at a time, so there is no locking; an Exec made
// without a Runner gets a private one, so it allocates what it uses.
type runScratch struct {
	sens  []sensNode
	masks []nodeMasks // beside sens, borrowed only by a round of m > 1 queries
	wave  []waveNode
	inbox [][]finalTuple

	kernel kernelScratch
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
