package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"sensjoin/internal/netsim"
	"sensjoin/internal/topology"
)

func TestCountersAndFilters(t *testing.T) {
	c := NewCollector(3)
	c.Charge(netsim.SideTx, 1, "collect", 2, 50)
	c.Charge(netsim.SideTx, 1, "filter", 1, 10)
	c.Charge(netsim.SideTx, 2, "collect", 3, 100)
	c.Charge(netsim.SideRx, 0, "collect", 5, 150)

	if p, b := c.NodeTx(1); p != 3 || b != 60 {
		t.Fatalf("NodeTx(1) = %d/%d, want 3/60", p, b)
	}
	if p, _ := c.NodeTx(1, "collect"); p != 2 {
		t.Fatalf("NodeTx(1, collect) = %d, want 2", p)
	}
	if p, b := c.NodeRx(0, "collect"); p != 5 || b != 150 {
		t.Fatalf("NodeRx = %d/%d", p, b)
	}
	if tot := c.TotalTx(); tot != 6 {
		t.Fatalf("TotalTx = %d, want 6", tot)
	}
	if tot := c.TotalTx("collect"); tot != 5 {
		t.Fatalf("TotalTx(collect) = %d, want 5", tot)
	}
	if b := c.TotalTxBytes("filter"); b != 10 {
		t.Fatalf("TotalTxBytes(filter) = %d, want 10", b)
	}
}

func TestPhases(t *testing.T) {
	c := NewCollector(2)
	c.Charge(netsim.SideTx, 0, "b", 1, 1)
	c.Charge(netsim.SideTx, 1, "a", 1, 1)
	got := c.Phases()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Phases = %v, want [a b]", got)
	}
}

func TestPerNodeAndMax(t *testing.T) {
	c := NewCollector(4)
	c.Charge(netsim.SideTx, 0, "p", 100, 0) // base station: must be excluded from Max
	c.Charge(netsim.SideTx, 1, "p", 5, 0)
	c.Charge(netsim.SideTx, 2, "p", 9, 0)
	c.Charge(netsim.SideTx, 3, "p", 1, 0)
	per := c.PerNodeTx()
	if per[2] != 9 || per[0] != 100 {
		t.Fatalf("PerNodeTx = %v", per)
	}
	node, load := c.MaxTx()
	if node != 2 || load != 9 {
		t.Fatalf("MaxTx = node %d load %d, want node 2 load 9", node, load)
	}
}

func TestReset(t *testing.T) {
	c := NewCollector(2)
	c.Charge(netsim.SideTx, 1, "p", 5, 10)
	c.Reset()
	if c.TotalTx() != 0 || len(c.Phases()) != 0 {
		t.Fatal("Reset did not clear counters")
	}
}

func TestEnergyModel(t *testing.T) {
	c := NewCollector(3)
	c.Charge(netsim.SideTx, 1, "p", 2, 100)
	c.Charge(netsim.SideRx, 1, "p", 1, 40)
	m := EnergyModel{TxPerPacketJ: 10, TxPerByteJ: 1, RxPerPacketJ: 5, RxPerByteJ: 0.5}
	want := 2.0*10 + 100*1 + 1*5 + 40*0.5
	if got := c.NodeEnergy(m, 1); got != want {
		t.Fatalf("NodeEnergy = %g, want %g", got, want)
	}
	// Base station excluded from TotalEnergy.
	c.Charge(netsim.SideTx, 0, "p", 1000, 0)
	if got := c.TotalEnergy(m); got != want {
		t.Fatalf("TotalEnergy = %g, want %g (base station excluded)", got, want)
	}
	cc := CC2420Model()
	if cc.TxPerPacketJ <= 0 || cc.RxPerPacketJ <= 0 {
		t.Fatal("CC2420Model must have positive per-packet costs")
	}
}

func TestPhaseTable(t *testing.T) {
	c := NewCollector(2)
	c.Charge(netsim.SideTx, 1, "collect", 2, 80)
	out := c.PhaseTable()
	if !strings.Contains(out, "collect") || !strings.Contains(out, "2 packets") {
		t.Fatalf("PhaseTable output unexpected:\n%s", out)
	}
}

func TestLoadByDescendants(t *testing.T) {
	perNode := []int64{999, 1, 3, 10, 20} // node 0 = base station, ignored
	desc := []int{100, 0, 1, 10, 50}
	mean, count := LoadByDescendants(perNode, desc, []int{1, 20, 1000})
	if count[0] != 2 || count[1] != 1 || count[2] != 1 {
		t.Fatalf("counts = %v", count)
	}
	if mean[0] != 2 { // (1+3)/2
		t.Fatalf("bin 0 mean = %g, want 2", mean[0])
	}
	if mean[1] != 10 || mean[2] != 20 {
		t.Fatalf("means = %v", mean)
	}
}

func TestLifetimeRounds(t *testing.T) {
	perRound := []float64{99, 0.5, 2.0, 1.0} // node 0 = base station, ignored
	rounds, dead := LifetimeRounds(perRound, 10)
	if dead != 2 {
		t.Fatalf("first dead = %d, want 2 (highest drain)", dead)
	}
	if rounds != 5 {
		t.Fatalf("rounds = %d, want 5", rounds)
	}
	rounds, _ = LifetimeRounds([]float64{0, 0, 0}, 10)
	if rounds < 1<<29 {
		t.Fatal("zero drain should yield effectively infinite lifetime")
	}
}

func TestPerNodeEnergy(t *testing.T) {
	c := NewCollector(3)
	c.Charge(netsim.SideTx, 1, "p", 2, 100)
	m := EnergyModel{TxPerPacketJ: 1, TxPerByteJ: 0.01}
	e := c.PerNodeEnergy(m)
	if len(e) != 3 {
		t.Fatalf("len = %d", len(e))
	}
	if e[1] != 3 || e[0] != 0 || e[2] != 0 {
		t.Fatalf("energies = %v", e)
	}
}

func TestLoadByDescendantsOverflowBin(t *testing.T) {
	// Nodes beyond the last boundary land in the trailing overflow bin
	// instead of silently vanishing from every series.
	perNode := []int64{999, 4, 8, 100}
	desc := []int{50, 1, 2, 30} // node 3 exceeds the last boundary (10)
	mean, count := LoadByDescendants(perNode, desc, []int{1, 10})
	if len(mean) != 3 || len(count) != 3 {
		t.Fatalf("want len(boundaries)+1 = 3 bins, got %d/%d", len(mean), len(count))
	}
	if count[0] != 1 || count[1] != 1 || count[2] != 1 {
		t.Fatalf("counts = %v", count)
	}
	if mean[2] != 100 {
		t.Fatalf("overflow bin mean = %g, want 100", mean[2])
	}
	total := count[0] + count[1] + count[2]
	if total != len(perNode)-1 {
		t.Fatalf("binned %d of %d sensor nodes", total, len(perNode)-1)
	}
}

func TestSnapshotDeepCopy(t *testing.T) {
	c := NewCollector(2)
	c.Charge(netsim.SideTx, 1, "p", 2, 20)
	c.Charge(netsim.SideRx, 1, "p", 1, 10)
	s := c.Snapshot()
	c.Charge(netsim.SideTx, 1, "p", 5, 50) // must not leak into the snapshot
	if got := s.Tx(1, "p"); got.Packets != 2 || got.Bytes != 20 {
		t.Fatalf("snapshot tx = %+v, want {2 20}", got)
	}
	if got := s.Rx(1, "p"); got.Packets != 1 || got.Bytes != 10 {
		t.Fatalf("snapshot rx = %+v, want {1 10}", got)
	}
	if got := s.Tx(0, "p"); got.Packets != 0 {
		t.Fatalf("untouched node has tx %+v", got)
	}
	if s.N() != 2 {
		t.Fatalf("N = %d", s.N())
	}
}

func TestMaxLoadNode(t *testing.T) {
	if n, v := MaxLoadNode([]float64{99, 1, 7, 3}); n != 2 || v != 7 {
		t.Fatalf("MaxLoadNode = (%d, %g), want (2, 7)", n, v)
	}
	// Base station at index 0 never wins, even when largest.
	if n, _ := MaxLoadNode([]float64{1000, 1}); n != 1 {
		t.Fatalf("base station won: node %d", n)
	}
	if n, v := MaxLoadNode([]float64{5}); n != -1 || v != 0 {
		t.Fatalf("no sensors: got (%d, %g)", n, v)
	}
	if n, v := MaxLoadNode(nil); n != -1 || v != 0 {
		t.Fatalf("nil: got (%d, %g)", n, v)
	}
	// Ties resolve to the lowest node id (deterministic).
	if n, _ := MaxLoadNode([]float64{0, 4, 4}); n != 1 {
		t.Fatalf("tie resolved to node %d, want 1", n)
	}
}

func TestPercentiles(t *testing.T) {
	// Sensors 1..5 carry 10,20,30,40,50.
	load := []float64{0, 10, 20, 30, 40, 50}
	got := Percentiles(load, 0, 0.5, 1)
	if got[0] != 10 || got[1] != 30 || got[2] != 50 {
		t.Fatalf("Percentiles = %v, want [10 30 50]", got)
	}
	// Linear interpolation between order statistics.
	if q := Percentiles(load, 0.25)[0]; q != 20 {
		t.Fatalf("p25 = %g, want 20", q)
	}
	if q := Percentiles(load, 0.125)[0]; q != 15 {
		t.Fatalf("p12.5 = %g, want 15", q)
	}
	// Unsorted input sorts internally and does not mutate the caller's slice.
	shuffled := []float64{0, 50, 10, 40, 20, 30}
	if q := Percentiles(shuffled, 0.5)[0]; q != 30 {
		t.Fatalf("unsorted median = %g, want 30", q)
	}
	if shuffled[1] != 50 {
		t.Fatal("Percentiles mutated its input")
	}
	// No sensor nodes: NaN.
	for _, v := range Percentiles([]float64{7}, 0.5, 0.9) {
		if !math.IsNaN(v) {
			t.Fatalf("empty percentile = %g, want NaN", v)
		}
	}
}

func TestGini(t *testing.T) {
	// Perfectly even load: 0.
	if g := Gini([]float64{0, 5, 5, 5, 5}); g != 0 {
		t.Fatalf("even Gini = %g, want 0", g)
	}
	// All load on one of n nodes: (n-1)/n.
	if g := Gini([]float64{0, 0, 0, 0, 12}); math.Abs(g-0.75) > 1e-12 {
		t.Fatalf("concentrated Gini = %g, want 0.75", g)
	}
	// 1,2,3,4 has a known Gini of 0.25.
	if g := Gini([]float64{9, 1, 2, 3, 4}); math.Abs(g-0.25) > 1e-12 {
		t.Fatalf("Gini(1..4) = %g, want 0.25", g)
	}
	// Degenerate inputs.
	if g := Gini([]float64{1, 2}); g != 0 {
		t.Fatalf("single sensor Gini = %g, want 0", g)
	}
	if g := Gini([]float64{0, 0, 0}); g != 0 {
		t.Fatalf("zero-load Gini = %g, want 0", g)
	}
	// Base station excluded: its huge load must not register.
	if g := Gini([]float64{1e9, 5, 5}); g != 0 {
		t.Fatalf("base station influenced Gini: %g", g)
	}
}

// collectorReference is the map-based collector this package had before
// the dense one — per node, per side, a lazily made map from label to
// counter, thrown away by Reset — kept as the oracle of the differential
// test below, its four charge methods folded into one Charge.
type collectorReference struct {
	n                 int
	tx, rx, retx, ack []map[string]*Counter
}

func newCollectorReference(n int) *collectorReference {
	return &collectorReference{
		n:    n,
		tx:   make([]map[string]*Counter, n),
		rx:   make([]map[string]*Counter, n),
		retx: make([]map[string]*Counter, n),
		ack:  make([]map[string]*Counter, n),
	}
}

func (c *collectorReference) Charge(side netsim.Side, node topology.NodeID, phase string, packets, bytes int) {
	c.counter([...][]map[string]*Counter{c.tx, c.rx, c.retx, c.ack}[side], node, phase).Add(packets, bytes)
}

func (c *collectorReference) counter(side []map[string]*Counter, node topology.NodeID, phase string) *Counter {
	m := side[node]
	if m == nil {
		m = make(map[string]*Counter, 4)
		side[node] = m
	}
	ctr := m[phase]
	if ctr == nil {
		ctr = &Counter{}
		m[phase] = ctr
	}
	return ctr
}

func (c *collectorReference) Reset() {
	for i := range c.tx {
		c.tx[i], c.rx[i], c.retx[i], c.ack[i] = nil, nil, nil, nil
	}
}

func (c *collectorReference) Phases() []string {
	seen := make(map[string]struct{}, 8)
	for _, side := range [][]map[string]*Counter{c.tx, c.rx, c.retx, c.ack} {
		for _, m := range side {
			for p := range m {
				seen[p] = struct{}{}
			}
		}
	}
	out := make([]string, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

func (c *collectorReference) N() int { return c.n }

// match reports whether phase is selected by the filter: an empty filter
// selects everything; otherwise the phase must equal one of the entries.
func match(phase string, filter []string) bool {
	if len(filter) == 0 {
		return true
	}
	for _, f := range filter {
		if f == phase {
			return true
		}
	}
	return false
}

func (c *collectorReference) nodeSide(side []map[string]*Counter, node topology.NodeID, phases []string) (int64, int64) {
	var p, b int64
	for ph, ctr := range side[node] {
		if match(ph, phases) {
			p += ctr.Packets
			b += ctr.Bytes
		}
	}
	return p, b
}

func (c *collectorReference) NodeTx(node topology.NodeID, phases ...string) (int64, int64) {
	return c.nodeSide(c.tx, node, phases)
}

func (c *collectorReference) NodeRx(node topology.NodeID, phases ...string) (int64, int64) {
	return c.nodeSide(c.rx, node, phases)
}

func (c *collectorReference) totalSide(side []map[string]*Counter, phases []string) int64 {
	var p int64
	for i := 0; i < c.n; i++ {
		pp, _ := c.nodeSide(side, topology.NodeID(i), phases)
		p += pp
	}
	return p
}

func (c *collectorReference) TotalRetx(phases ...string) int64 { return c.totalSide(c.retx, phases) }
func (c *collectorReference) TotalAck(phases ...string) int64  { return c.totalSide(c.ack, phases) }
func (c *collectorReference) TotalTx(phases ...string) int64   { return c.totalSide(c.tx, phases) }

func (c *collectorReference) TotalTxBytes(phases ...string) int64 {
	var b int64
	for i := 0; i < c.n; i++ {
		_, bb := c.NodeTx(topology.NodeID(i), phases...)
		b += bb
	}
	return b
}

func (c *collectorReference) PerNodeTx(phases ...string) []int64 {
	out := make([]int64, c.n)
	for i := range out {
		out[i], _ = c.NodeTx(topology.NodeID(i), phases...)
	}
	return out
}

func (c *collectorReference) MaxTx(phases ...string) (topology.NodeID, int64) {
	var best topology.NodeID
	var bestP int64 = -1
	for i := 1; i < c.n; i++ {
		p, _ := c.NodeTx(topology.NodeID(i), phases...)
		if p > bestP {
			bestP, best = p, topology.NodeID(i)
		}
	}
	return best, bestP
}

func (c *collectorReference) NodeEnergy(m EnergyModel, node topology.NodeID, phases ...string) float64 {
	tp, tb := c.NodeTx(node, phases...)
	rp, rb := c.NodeRx(node, phases...)
	return float64(tp)*m.TxPerPacketJ + float64(tb)*m.TxPerByteJ +
		float64(rp)*m.RxPerPacketJ + float64(rb)*m.RxPerByteJ
}

func (c *collectorReference) TotalEnergy(m EnergyModel, phases ...string) float64 {
	var e float64
	for i := 1; i < c.n; i++ {
		e += c.NodeEnergy(m, topology.NodeID(i), phases...)
	}
	return e
}

func (c *collectorReference) PerNodeEnergy(m EnergyModel, phases ...string) []float64 {
	out := make([]float64, c.n)
	for i := range out {
		out[i] = c.NodeEnergy(m, topology.NodeID(i), phases...)
	}
	return out
}

func (c *collectorReference) PhaseTable() string {
	var b strings.Builder
	for _, ph := range c.Phases() {
		fmt.Fprintf(&b, "%-24s %8d packets %10d bytes\n", ph, c.TotalTx(ph), c.TotalTxBytes(ph))
	}
	return b.String()
}

// snapshotReference is the old Snapshot: per-node maps, deep-copied.
type snapshotReference struct {
	n      int
	tx, rx []map[string]Counter
	phases []string
}

func (c *collectorReference) Snapshot() snapshotReference {
	s := snapshotReference{
		n:      c.n,
		tx:     make([]map[string]Counter, c.n),
		rx:     make([]map[string]Counter, c.n),
		phases: c.Phases(),
	}
	for i := 0; i < c.n; i++ {
		s.tx[i], s.rx[i] = map[string]Counter{}, map[string]Counter{}
		for ph, ctr := range c.tx[i] {
			s.tx[i][ph] = *ctr
		}
		for ph, ctr := range c.rx[i] {
			s.rx[i][ph] = *ctr
		}
	}
	return s
}

func (s snapshotReference) N() int                                        { return s.n }
func (s snapshotReference) Phases() []string                              { return s.phases }
func (s snapshotReference) Tx(node topology.NodeID, phase string) Counter { return s.tx[node][phase] }
func (s snapshotReference) Rx(node topology.NodeID, phase string) Counter { return s.rx[node][phase] }

// accounting is everything both collectors answer; snapshotView is what
// trace.Reconcile reads of a snapshot (it cannot be called from here:
// package trace imports this one).
type accounting interface {
	Charge(netsim.Side, topology.NodeID, string, int, int)
	Reset()
	N() int
	Phases() []string
	NodeTx(topology.NodeID, ...string) (int64, int64)
	NodeRx(topology.NodeID, ...string) (int64, int64)
	TotalTx(...string) int64
	TotalTxBytes(...string) int64
	TotalRetx(...string) int64
	TotalAck(...string) int64
	PerNodeTx(...string) []int64
	MaxTx(...string) (topology.NodeID, int64)
	NodeEnergy(EnergyModel, topology.NodeID, ...string) float64
	TotalEnergy(EnergyModel, ...string) float64
	PerNodeEnergy(EnergyModel, ...string) []float64
	PhaseTable() string
}

type snapshotView interface {
	N() int
	Phases() []string
	Tx(topology.NodeID, string) Counter
	Rx(topology.NodeID, string) Counter
}

// describe renders every answer c and its snapshot give, floats by bit
// pattern, so two collectors agree exactly iff their descriptions do.
func describe(c accounting, s snapshotView, labels []string, filters [][]string) string {
	var b strings.Builder
	m := CC2420Model()
	bits := func(fs ...float64) []uint64 {
		out := make([]uint64, len(fs))
		for i, f := range fs {
			out[i] = math.Float64bits(f)
		}
		return out
	}
	fmt.Fprintf(&b, "n=%d phases=%q\n%s", c.N(), c.Phases(), c.PhaseTable())
	for _, f := range filters {
		node, load := c.MaxTx(f...)
		fmt.Fprintf(&b, "%q: tx=%d txB=%d retx=%d ack=%d per=%v max=%d/%d E=%v perE=%v\n", f,
			c.TotalTx(f...), c.TotalTxBytes(f...), c.TotalRetx(f...), c.TotalAck(f...),
			c.PerNodeTx(f...), node, load,
			bits(c.TotalEnergy(m, f...)), bits(c.PerNodeEnergy(m, f...)...))
		for i := 0; i < c.N(); i++ {
			tp, tb := c.NodeTx(topology.NodeID(i), f...)
			rp, rb := c.NodeRx(topology.NodeID(i), f...)
			fmt.Fprintf(&b, " %d:%d/%d,%d/%d,%v", i, tp, tb, rp, rb, bits(c.NodeEnergy(m, topology.NodeID(i), f...)))
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "snapshot n=%d phases=%q\n", s.N(), s.Phases())
	for i := 0; i < s.N(); i++ {
		for _, l := range labels {
			fmt.Fprintf(&b, " %d/%s:%v,%v", i, l, s.Tx(topology.NodeID(i), l), s.Rx(topology.NodeID(i), l))
		}
	}
	return b.String()
}

// The dense collector must answer exactly what the map-based one did —
// every query, under filters that repeat a label or name one never
// charged, and every snapshot field the Reconcile audit reads — over
// random charges to random nodes, labels and sides with Resets in
// between. The label pool is larger than a round ever uses, so an index
// that assumed a small fixed table would alias or fail here.
func TestCollectorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	labels := make([]string, 40)
	for i := range labels {
		labels[i] = fmt.Sprintf("phase-%02d", i)
	}
	for iter := 0; iter < 30; iter++ {
		n := 1 + rng.Intn(12)
		pool := labels[:1+rng.Intn(len(labels))]
		got, want := accounting(NewCollector(n)), accounting(newCollectorReference(n))
		filters := [][]string{nil, {pool[0]}, {pool[0], pool[0]}, {"never-charged"},
			{pool[len(pool)-1], "never-charged", pool[rng.Intn(len(pool))]}}
		check := func(when string) {
			t.Helper()
			all := append([]string{"never-charged"}, labels...)
			g := describe(got, got.(*Collector).Snapshot(), all, filters)
			w := describe(want, want.(*collectorReference).Snapshot(), all, filters)
			gl, wl := strings.Split(g, "\n"), strings.Split(w, "\n")
			for i := range gl {
				if i >= len(wl) || gl[i] != wl[i] {
					t.Fatalf("iter %d %s, line %d: dense collector\n%s\nreference\n%s", iter, when, i, gl[i], wl[min(i, len(wl)-1)])
				}
			}
			if len(gl) != len(wl) {
				t.Fatalf("iter %d %s: %d lines, reference has %d", iter, when, len(gl), len(wl))
			}
		}
		for step, steps := 0, rng.Intn(400); step < steps; step++ {
			if rng.Intn(60) == 0 {
				got.Reset()
				want.Reset()
				if ph := got.Phases(); len(ph) != 0 {
					t.Fatalf("iter %d: Phases() = %q right after Reset", iter, ph)
				}
				check("after Reset")
				continue
			}
			node := topology.NodeID(rng.Intn(n))
			label := pool[rng.Intn(len(pool))]
			side, packets, bytes := netsim.Side(rng.Intn(4)), 1+rng.Intn(5), rng.Intn(200)
			for _, c := range []accounting{got, want} {
				c.Charge(side, node, label, packets, bytes)
			}
		}
		check("at the end")
	}
}

// Region workers charge disjoint node ranges without locks and may all
// meet a label nobody has charged before in the same instant; the index
// replacement must lose none of those charges (run under -race).
func TestCollectorConcurrentCharge(t *testing.T) {
	const workers, perWorker, rounds = 8, 16, 200
	c := NewCollector(workers * perWorker)
	c.Charge(netsim.SideTx, 0, "known", 1, 1) // one label exists up front, three do not
	labels := []string{"known", "new-a", "new-b", "new-c"}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for r := 0; r < rounds; r++ {
				for _, l := range labels {
					for k := 0; k < perWorker; k++ {
						node := topology.NodeID(w*perWorker + k)
						c.Charge(netsim.SideTx, node, l, 1, 10)
						c.Charge(netsim.SideRx, node, l, 2, 20)
					}
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
	for _, l := range labels {
		want := int64(workers * perWorker * rounds)
		if l == "known" {
			want++
		}
		if got := c.TotalTx(l); got != want {
			t.Errorf("TotalTx(%s) = %d, want %d", l, got, want)
		}
	}
	if got, want := c.TotalTxBytes(), int64(4*workers*perWorker*rounds*10+1); got != want {
		t.Errorf("TotalTxBytes = %d, want %d", got, want)
	}
	for node := 0; node < c.N(); node++ {
		if p, b := c.NodeRx(topology.NodeID(node)); p != 4*rounds*2 || b != 4*rounds*20 {
			t.Fatalf("node %d rx = %d/%d, want %d/%d", node, p, b, 4*rounds*2, 4*rounds*20)
		}
	}
}

// Charging a warm collector — label interned, column allocated — is an
// indexed add: no allocation, before or after a Reset.
func TestCollectorChargeAllocs(t *testing.T) {
	c := NewCollector(64)
	labels := []string{"ja-collect", "filter-dissem", "final-collect"}
	charge := func() {
		for _, l := range labels {
			c.Charge(netsim.SideTx, 5, l, 1, 40)
			c.Charge(netsim.SideRx, 6, l, 1, 40)
			c.Charge(netsim.SideRetx, 5, l, 1, 40)
			c.Charge(netsim.SideAck, 6, l, 1, 3)
		}
	}
	charge()
	if a := testing.AllocsPerRun(100, charge); a != 0 {
		t.Errorf("warm charge: %.0f allocs/run, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { c.Reset(); charge() }); a != 0 {
		t.Errorf("Reset + charge: %.0f allocs/run, want 0", a)
	}
}

// BenchmarkCollectorCharge is one round's accounting at the paper's
// scale and at X7's: every node transmits and receives once per phase,
// after the Reset every run starts with.
func BenchmarkCollectorCharge(b *testing.B) {
	for _, n := range []int{1500, 100000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			c := NewCollector(n)
			labels := []string{"ja-collect", "filter-dissem", "final-collect"}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.Reset()
				for _, l := range labels {
					for node := 0; node < n; node++ {
						c.Charge(netsim.SideTx, topology.NodeID(node), l, 1, 40)
						c.Charge(netsim.SideRx, topology.NodeID(node), l, 1, 40)
					}
				}
			}
		})
	}
}
