package core

import (
	"sensjoin/internal/quadtree"
	"sensjoin/internal/topology"
	"sensjoin/internal/zorder"
)

// Incremental filter dissemination for continuous queries — the paper's
// stated follow-on work (§VIII: "we currently investigate if the
// filtering can be optimized for continuous queries by exploiting
// temporal correlations").
//
// Under a SAMPLE PERIOD query the filter of consecutive rounds is highly
// similar, because sensor values drift slowly. Every node therefore
// remembers the last filter it broadcast to its children; in the next
// round it transmits only the symmetric difference (adds and deletes)
// against that memory, and each child reconstructs the new filter from
// its cached copy. Sequence numbers guard the reconstruction: a child
// whose cache does not match the announced base (it was asleep after
// Treecut, its parent changed after tree repair, or a broadcast was
// lost) falls back to *assume-all* for the round — it ships its complete
// tuples unconditionally, which can only add false positives, never lose
// result tuples — and raises a need-full flag in the next collection
// phase so its parent transmits the full filter once to resynchronize.
//
// The first round degenerates to standard SENS-Join (full filters
// everywhere); steady-state rounds transmit only the drift.

// Filter message modes.
const (
	fmFull = iota
	fmDelta
	fmAssumeAll
)

// filterMsg is the Filter-Dissemination payload. Wire sizes: a full
// filter is the representation of keys; a delta is the representation of
// adds plus dels plus a 2-byte sequence header; assume-all is a 1-byte
// marker. The sender sizes a message once, when it builds it; everyone
// downstream reads the sizes off the message.
type filterMsg struct {
	mode    int
	seq     int
	baseSeq int
	keys    []zorder.Key // fmFull: the filter; fmDelta: the keys added since baseSeq
	dels    []zorder.Key // fmDelta: the keys removed since baseSeq
	// masks says which of a cluster's m queries want each key of the set
	// the message stands for (bit j = member j), aligned with that set as
	// the receiver reconstructs it; they ship in full every epoch, only
	// the key set is delta-compressed. nil means every member: a single
	// query (m = 1) never carries masks, and neither does assume-all.
	masks []uint64
	// size is the message's wire size.
	size int
	// setBytes is the representation size of the full key set the
	// message stands for — keys, or what a receiver reconstructs from a
	// delta — which is what a receiver holds in memory. 0 for assume-all.
	setBytes int
}

// assumeAllMsg is the 1-byte conservative-mode marker, carved from a.
func assumeAllMsg(a *roundArena) *filterMsg {
	msg := a.filters.one()
	*msg = filterMsg{mode: fmAssumeAll, size: 1}
	return msg
}

// contState is the cross-round memory of the incremental mode, indexed
// by node id.
type contState struct {
	n int
	// Sender side: the content and sequence number of the node's last
	// filter broadcast.
	seq      []int
	prevSent [][]zorder.Key
	// Receiver side: the reconstructed filter cache, the sequence it
	// corresponds to, and the parent it was received from.
	cachedSeq    []int
	cached       [][]zorder.Key
	cachedParent []topology.NodeID
	// needFull is raised after a detected desynchronization and carried
	// to the parent in the next collection phase. Everything above is
	// touched only from the node's own handler, which is what lets
	// sharded regions run a continuous round in parallel.
	needFull []bool
	// Rounds counts completed executions.
	Rounds int
}

func newContState(n int) *contState {
	c := &contState{
		n:            n,
		seq:          make([]int, n),
		prevSent:     make([][]zorder.Key, n),
		cachedSeq:    make([]int, n),
		cached:       make([][]zorder.Key, n),
		cachedParent: make([]topology.NodeID, n),
		needFull:     make([]bool, n),
	}
	for i := range c.cachedSeq {
		c.cachedSeq[i] = -1
		c.cachedParent[i] = -1
	}
	return c
}

// ensure resizes (and resets) the state when the network changes.
func (c *contState) ensure(n int) *contState {
	if c == nil || c.n != n {
		return newContState(n)
	}
	return c
}

// NewContinuousSENSJoin returns SENS-Join with incremental filter
// dissemination across executions. Reuse the returned method for every
// round of a continuous query; each Run transmits filter deltas against
// the previous round.
func NewContinuousSENSJoin() *SENSJoin {
	return &SENSJoin{cont: newContState(0)}
}

// buildFilterMsg chooses between a full filter and a delta against the
// node's previous broadcast, updating the sender-side state. subBytes is
// Rep.SetBytes(sub), which every caller has at hand (the base station
// needs it for the phase-B slot, a forwarding node read it off the
// message it is pruning). The message and a delta's adds and dels are
// carved from a, node id's round arena: they are consumed within the
// round. sub is not: a continuous query's sender keeps it for the next
// epoch's delta.
func (s *SENSJoin) buildFilterMsg(a *roundArena, p *plan, o Options, id topology.NodeID, sub []zorder.Key, subBytes int, childNeedsFull bool) *filterMsg {
	msg := a.filters.one()
	*msg = filterMsg{mode: fmFull, keys: sub, size: subBytes, setBytes: subBytes}
	if s.cont == nil {
		return msg
	}
	c := s.cont
	msg.seq = c.seq[id] + 1
	if prev := c.prevSent[id]; !childNeedsFull && prev != nil {
		adds := a.keys.keep(diffKeysInto(a.keys.rest(), sub, prev))
		dels := a.keys.keep(diffKeysInto(a.keys.rest(), prev, sub))
		if size := o.Rep.SetBytes(p, adds) + o.Rep.SetBytes(p, dels) + 2; size < subBytes {
			msg.mode, msg.baseSeq = fmDelta, c.seq[id]
			msg.keys, msg.dels, msg.size = adds, dels, size
		}
	}
	c.seq[id]++
	c.prevSent[id] = sub
	return msg
}

// applyFilterMsg reconstructs the round's filter at a receiving node.
// ok is false when the node must fall back to assume-all.
func (s *SENSJoin) applyFilterMsg(id topology.NodeID, from topology.NodeID, m *filterMsg) (filter []zorder.Key, ok bool) {
	if s.cont == nil {
		return m.keys, true
	}
	c := s.cont
	switch m.mode {
	case fmFull:
		c.cached[id] = m.keys
		c.cachedSeq[id] = m.seq
		c.cachedParent[id] = from
		c.needFull[id] = false
		return m.keys, true
	case fmDelta:
		if c.cachedParent[id] != from || c.cachedSeq[id] != m.baseSeq {
			c.needFull[id] = true
			return nil, false
		}
		f := quadtree.UnionKeys(nil, c.cached[id], m.keys)
		f = diffKeys(f, m.dels)
		c.cached[id] = f
		c.cachedSeq[id] = m.seq
		c.needFull[id] = false
		return f, true
	default: // fmAssumeAll
		c.needFull[id] = true
		return nil, false
	}
}

// diffKeys returns a \ b over sorted key sets in a freshly allocated
// slice. Use it when the result outlives the round (applyFilterMsg
// caches its reconstruction across epochs); a per-epoch delta is built
// in the round arena through diffKeysInto instead.
func diffKeys(a, b []zorder.Key) []zorder.Key {
	return diffKeysInto(make([]zorder.Key, 0, len(a)), a, b)
}

// diffKeysInto appends a \ b over sorted key sets to out.
func diffKeysInto(out, a, b []zorder.Key) []zorder.Key {
	i, j := 0, 0
	for i < len(a) {
		switch {
		case j >= len(b) || a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			j++
		default:
			i++
			j++
		}
	}
	return out
}
