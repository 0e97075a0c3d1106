// Package stats accounts for communication costs.
//
// The paper's evaluation metric is the number of packet transmissions,
// reported overall, per node, and broken down by protocol step (§VI). The
// Collector records transmissions and receptions per node and per phase
// label; summaries answer the questions the paper's figures ask: total
// transmissions per method (Fig. 10, 12-14, 16), per-node load versus
// descendant count and the most-loaded nodes (Fig. 11), and per-step
// breakdowns (Fig. 15). An energy model converts counts to Joules for
// users who want hardware-specific figures.
package stats

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"sensjoin/internal/netsim"
	"sensjoin/internal/topology"
)

// Counter accumulates packets and bytes.
type Counter struct {
	Packets int64
	Bytes   int64
}

// Add accumulates other into c.
func (c *Counter) Add(packets, bytes int) {
	c.Packets += int64(packets)
	c.Bytes += int64(bytes)
}

// table is one immutable version of a collector's index: the interned
// phase labels and, per side and label, a column of one Counter per node
// (nil until first charged). Only the counters change once published.
type table struct {
	labels []string
	cols   [netsim.SideAck + 1][][]Counter // cols[side][label][node]
}

// Collector implements netsim.Accountant: per-node, per-phase counters,
// one set per side. Retransmissions and ACKs are always also charged to
// netsim.SideTx — the retx/ack sides break the reliability overhead out
// of the totals, they never add to them.
//
// Layout: phase labels are interned to small integers and each (side,
// label) owns a dense column of n counters, allocated on its first charge
// and cleared in place by Reset. A charge scans the handful of labels and
// does an indexed add: no allocation once the column exists.
//
// Concurrency: the sharded simulator charges from parallel region
// workers — a transmission on the sender's, a reception on the
// receiver's — and a node belongs to one region, so concurrent charges
// hit different elements of a column and need no lock. The workers do share the index: it is
// published through an atomic pointer and replaced, never edited, under
// mu when a label or a column is new. A worker holding an older version
// finds its column there (versions share columns) or takes the slow path
// itself. Queries and Reset are for the coordinator, between runs.
type Collector struct {
	n   int
	tab atomic.Pointer[table]
	mu  sync.Mutex // serializes index replacement
}

// NewCollector returns a collector for n nodes.
func NewCollector(n int) *Collector {
	c := &Collector{n: n}
	c.tab.Store(&table{})
	return c
}

// Charge adds packets and bytes to one side of node's counter for phase.
func (c *Collector) Charge(side netsim.Side, node topology.NodeID, phase string, packets, bytes int) {
	t := c.tab.Load()
	for i, l := range t.labels {
		if l == phase { // callers pass constants: mostly settled by pointer
			if col := t.cols[side][i]; col != nil {
				col[node].Add(packets, bytes)
				return
			}
			break
		}
	}
	c.column(side, phase)[node].Add(packets, bytes)
}

// column is Charge's slow path: intern phase, allocate the column and
// publish a new index version. Labels only append, so none can alias.
func (c *Collector) column(side netsim.Side, phase string) []Counter {
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.tab.Load()
	li := slices.Index(old.labels, phase)
	if li >= 0 && old.cols[side][li] != nil {
		return old.cols[side][li] // another worker got here first
	}
	t := &table{labels: old.labels}
	if li < 0 {
		li = len(old.labels)
		t.labels = append(old.labels[:li:li], phase)
	}
	for s := range t.cols {
		t.cols[s] = make([][]Counter, len(t.labels))
		copy(t.cols[s], old.cols[s])
	}
	col := make([]Counter, c.n)
	t.cols[side][li] = col
	c.tab.Store(t)
	return col
}

// Reset clears all counters in place, keeping labels and columns.
func (c *Collector) Reset() {
	t := c.tab.Load()
	for s := range t.cols {
		for _, col := range t.cols[s] {
			clear(col)
		}
	}
}

// Phases returns the sorted labels charged since the last Reset: those
// with a non-zero counter on any side (every charge carries a packet).
func (c *Collector) Phases() []string {
	t := c.tab.Load()
	nonZero := func(ctr Counter) bool { return ctr != Counter{} }
	var out []string
	for i, l := range t.labels {
		for s := range t.cols {
			if slices.ContainsFunc(t.cols[s][i], nonZero) {
				out = append(out, l)
				break
			}
		}
	}
	sort.Strings(out)
	return out
}

// N returns the node count.
func (c *Collector) N() int { return c.n }

// selected returns one side's allocated columns whose label is among
// phases (all when none given); repeated or unknown entries change nothing.
func (c *Collector) selected(side netsim.Side, phases []string) [][]Counter {
	t := c.tab.Load()
	var cols [][]Counter
	for i, l := range t.labels {
		if col := t.cols[side][i]; col != nil && (len(phases) == 0 || slices.Contains(phases, l)) {
			cols = append(cols, col)
		}
	}
	return cols
}

func sumNode(cols [][]Counter, node topology.NodeID) (p, b int64) {
	for _, col := range cols {
		p += col[node].Packets
		b += col[node].Bytes
	}
	return p, b
}

// NodeTx returns the transmitted (packets, bytes) of node over the given
// phases (all phases when none given).
func (c *Collector) NodeTx(node topology.NodeID, phases ...string) (int64, int64) {
	return sumNode(c.selected(netsim.SideTx, phases), node)
}

// NodeRx returns the received (packets, bytes) of node over the given
// phases.
func (c *Collector) NodeRx(node topology.NodeID, phases ...string) (int64, int64) {
	return sumNode(c.selected(netsim.SideRx, phases), node)
}

// TotalRetx sums retransmitted packets over all nodes for the given
// phases — the reliability overhead already contained in TotalTx.
func (c *Collector) TotalRetx(phases ...string) int64 {
	p, _ := c.total(netsim.SideRetx, phases)
	return p
}

// TotalAck sums acknowledgement packets over all nodes for the given
// phases — like TotalRetx, a breakdown of TotalTx, not an addition.
func (c *Collector) TotalAck(phases ...string) int64 {
	p, _ := c.total(netsim.SideAck, phases)
	return p
}

func (c *Collector) total(side netsim.Side, phases []string) (p, b int64) {
	for _, col := range c.selected(side, phases) {
		for i := range col {
			p += col[i].Packets
			b += col[i].Bytes
		}
	}
	return p, b
}

// TotalTx sums transmitted packets over all nodes for the given phases.
func (c *Collector) TotalTx(phases ...string) int64 {
	p, _ := c.total(netsim.SideTx, phases)
	return p
}

// TotalTxBytes sums transmitted bytes over all nodes for the given phases.
func (c *Collector) TotalTxBytes(phases ...string) int64 {
	_, b := c.total(netsim.SideTx, phases)
	return b
}

// PerNodeTx returns transmitted packets per node for the given phases.
func (c *Collector) PerNodeTx(phases ...string) []int64 {
	out := make([]int64, c.n)
	for _, col := range c.selected(netsim.SideTx, phases) {
		for i := range col {
			out[i] += col[i].Packets
		}
	}
	return out
}

// MaxTx returns the highest per-node transmitted packet count and the
// node that incurred it, excluding the base station (it is powered).
func (c *Collector) MaxTx(phases ...string) (topology.NodeID, int64) {
	var best topology.NodeID
	var bestP int64 = -1
	for i, p := range c.PerNodeTx(phases...) {
		if i > 0 && p > bestP {
			bestP, best = p, topology.NodeID(i)
		}
	}
	return best, bestP
}

// Snapshot is a deep copy of a Collector's counters at one instant.
// Audits snapshot before and after an execution and reconcile the delta
// against the execution's trace journal, bit-exact.
type Snapshot struct{ c *Collector }

// Snapshot deep-copies the current counters.
func (c *Collector) Snapshot() Snapshot {
	t := c.tab.Load()
	cp := &table{labels: t.labels}
	for s := range t.cols {
		cp.cols[s] = make([][]Counter, len(t.cols[s]))
		for i, col := range t.cols[s] {
			cp.cols[s][i] = slices.Clone(col)
		}
	}
	frozen := &Collector{n: c.n}
	frozen.tab.Store(cp)
	return Snapshot{frozen}
}

// N returns the node count.
func (s Snapshot) N() int { return s.c.n }

// Phases returns the phase labels seen at snapshot time, sorted.
func (s Snapshot) Phases() []string { return s.c.Phases() }

// Tx returns node's transmitted counter for one phase.
func (s Snapshot) Tx(node topology.NodeID, phase string) Counter {
	return s.c.at(netsim.SideTx, node, phase)
}

// Rx returns node's received counter for one phase.
func (s Snapshot) Rx(node topology.NodeID, phase string) Counter {
	return s.c.at(netsim.SideRx, node, phase)
}

// at returns one counter; zero for a label or column never charged.
func (c *Collector) at(side netsim.Side, node topology.NodeID, phase string) Counter {
	t := c.tab.Load()
	for i, l := range t.labels {
		if l == phase && t.cols[side][i] != nil {
			return t.cols[side][i][node]
		}
	}
	return Counter{}
}

// EnergyModel converts packet/byte counts to Joules with a linear model.
type EnergyModel struct {
	TxPerPacketJ float64 // fixed cost per transmitted packet
	TxPerByteJ   float64 // marginal cost per transmitted byte
	RxPerPacketJ float64 // fixed cost per received packet
	RxPerByteJ   float64 // marginal cost per received byte
}

// CC2420Model returns rough constants for a CC2420-class 802.15.4 radio
// at 250 kbit/s and ~0 dBm: dominated by fixed per-packet overhead, as the
// paper argues (footnote 1).
func CC2420Model() EnergyModel {
	return EnergyModel{
		TxPerPacketJ: 165e-6,
		TxPerByteJ:   1.8e-6,
		RxPerPacketJ: 180e-6,
		RxPerByteJ:   2.0e-6,
	}
}

// energy converts one node's sums over the selected tx and rx columns.
func (m EnergyModel) energy(tx, rx [][]Counter, node topology.NodeID) float64 {
	tp, tb := sumNode(tx, node)
	rp, rb := sumNode(rx, node)
	return float64(tp)*m.TxPerPacketJ + float64(tb)*m.TxPerByteJ +
		float64(rp)*m.RxPerPacketJ + float64(rb)*m.RxPerByteJ
}

// NodeEnergy returns the energy in Joules spent by node under m.
func (c *Collector) NodeEnergy(m EnergyModel, node topology.NodeID, phases ...string) float64 {
	return m.energy(c.selected(netsim.SideTx, phases), c.selected(netsim.SideRx, phases), node)
}

// TotalEnergy returns the summed energy over all sensor nodes (the base
// station is powered and excluded).
func (c *Collector) TotalEnergy(m EnergyModel, phases ...string) float64 {
	var e float64
	for _, v := range c.PerNodeEnergy(m, phases...)[min(1, c.n):] {
		e += v
	}
	return e
}

// PhaseTable formats per-phase total transmissions as aligned text rows.
func (c *Collector) PhaseTable() string {
	var b strings.Builder
	for _, ph := range c.Phases() {
		fmt.Fprintf(&b, "%-24s %8d packets %10d bytes\n", ph, c.TotalTx(ph), c.TotalTxBytes(ph))
	}
	return b.String()
}

// LifetimeRounds estimates how many executions of a workload the network
// survives: given each node's energy per round and a battery budget, it
// returns the number of complete rounds until the first sensor node
// depletes, and which node dies first. The paper's motivation ("when the
// energy of the nodes near the root is depleted, the network ceases
// operation", §VI) makes the most loaded node the lifetime bottleneck.
func LifetimeRounds(perRoundJ []float64, batteryJ float64) (rounds int, firstDead int) {
	firstDead = -1
	max := 0.0
	for i := 1; i < len(perRoundJ); i++ { // node 0 is the powered base station
		if perRoundJ[i] > max {
			max = perRoundJ[i]
			firstDead = i
		}
	}
	if max <= 0 {
		return 1 << 30, firstDead
	}
	return int(batteryJ / max), firstDead
}

// PerNodeEnergy returns each node's energy in Joules under m for the
// given phases.
func (c *Collector) PerNodeEnergy(m EnergyModel, phases ...string) []float64 {
	tx, rx := c.selected(netsim.SideTx, phases), c.selected(netsim.SideRx, phases)
	out := make([]float64, c.n)
	for i := range out {
		out[i] = m.energy(tx, rx, topology.NodeID(i))
	}
	return out
}

// MaxLoadNode returns the most-loaded sensor node and its load, given a
// per-node load slice (packets or Joules). The base station at index 0
// is powered and excluded, matching Collector.MaxTx. Returns (-1, 0)
// when there are no sensor nodes.
func MaxLoadNode(load []float64) (node int, max float64) {
	node = -1
	for i := 1; i < len(load); i++ {
		if node == -1 || load[i] > max {
			node, max = i, load[i]
		}
	}
	return node, max
}

// Percentiles returns the q-quantiles (each in [0,1]) of the sensor-node
// loads, linearly interpolated over the sorted values. The base station
// at index 0 is excluded. NaN entries are returned when there are no
// sensor nodes.
func Percentiles(load []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(load) < 2 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	sorted := append([]float64(nil), load[1:]...)
	sort.Float64s(sorted)
	n := len(sorted)
	for i, q := range qs {
		if q <= 0 {
			out[i] = sorted[0]
			continue
		}
		if q >= 1 {
			out[i] = sorted[n-1]
			continue
		}
		pos := q * float64(n-1)
		lo := int(pos)
		frac := pos - float64(lo)
		out[i] = sorted[lo] + (sorted[lo+1]-sorted[lo])*frac
	}
	return out
}

// Gini returns the Gini coefficient of the sensor-node loads (base
// station at index 0 excluded): 0 means every node carries the same
// load, values approaching 1 mean the load concentrates on few nodes —
// the imbalance the paper's Fig. 11 hotspot discussion is about.
// Returns 0 for fewer than two sensor nodes or an all-zero load.
func Gini(load []float64) float64 {
	if len(load) < 3 { // base station + at least 2 sensors
		return 0
	}
	sorted := append([]float64(nil), load[1:]...)
	sort.Float64s(sorted)
	n := len(sorted)
	var sum, weighted float64
	for i, v := range sorted {
		sum += v
		weighted += float64(i+1) * v
	}
	if sum <= 0 {
		return 0
	}
	return (2*weighted - float64(n+1)*sum) / (float64(n) * sum)
}

// LoadByDescendants bins per-node transmitted packets by the node's
// descendant count in the routing tree; used for Fig. 11-style series.
// desc[i] is the number of descendants of node i; boundaries are the
// inclusive upper edges of the bins. Nodes whose descendant count
// exceeds the last boundary land in a trailing overflow bin — the
// returned slices have len(boundaries)+1 entries — instead of silently
// vanishing from every series.
func LoadByDescendants(perNode []int64, desc []int, boundaries []int) (mean []float64, count []int) {
	nbins := len(boundaries) + 1
	mean = make([]float64, nbins)
	count = make([]int, nbins)
	sums := make([]float64, nbins)
	for i := 1; i < len(perNode); i++ { // skip base station
		b := len(boundaries) // overflow bin
		for j, up := range boundaries {
			if desc[i] <= up {
				b = j
				break
			}
		}
		sums[b] += float64(perNode[i])
		count[b]++
	}
	for b := range sums {
		if count[b] > 0 {
			mean[b] = sums[b] / float64(count[b])
		}
	}
	return mean, count
}
