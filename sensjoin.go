// Package sensjoin is a from-scratch reproduction of SENS-Join, the
// energy-efficient general-purpose join method for wireless sensor
// networks (Stern, Buchmann, Böhm: "Towards Efficient Processing of
// General-Purpose Joins in Sensor Networks", ICDE 2009).
//
// The package simulates a sensor network at packet granularity and
// executes declarative join queries over it with either SENS-Join or the
// external-join baseline, reporting the communication costs the paper's
// evaluation is built on.
//
// Quickstart:
//
//	net, err := sensjoin.NewNetwork(sensjoin.Config{Nodes: 500, Seed: 1})
//	if err != nil { ... }
//	res, err := net.Execute(`
//	    SELECT MIN(distance(A.x, A.y, B.x, B.y))
//	    FROM Sensors A, Sensors B
//	    WHERE A.temp - B.temp > 10.0 ONCE`, sensjoin.SENSJoin())
//
// The package's Examples (go test -run Example -v .) are complete
// programs with their output pinned, and cmd/experiments reproduces every
// figure in the paper.
package sensjoin

import (
	"fmt"
	"io"

	"sensjoin/internal/core"
	"sensjoin/internal/field"
	"sensjoin/internal/metrics"
	"sensjoin/internal/netsim"
	"sensjoin/internal/query"
	"sensjoin/internal/relation"
	"sensjoin/internal/stats"
	"sensjoin/internal/topology"
	"sensjoin/internal/trace"
)

// Config describes the simulated deployment.
type Config struct {
	// Nodes is the number of sensor nodes (excluding the base station).
	Nodes int
	// Seed makes placement and sensor fields reproducible.
	Seed int64
	// RangeM is the radio range in meters; 0 means the paper's 50 m.
	RangeM float64
	// AreaSideM is the square deployment side in meters; 0 scales the
	// area to the paper's density (1500 nodes on 1050x1050 m).
	AreaSideM float64
	// MaxPacket is the maximum packet size in bytes; 0 means the
	// paper's 48.
	MaxPacket int
	// BaseAtCenter places the base station at the area center instead
	// of the corner.
	BaseAtCenter bool
	// QuietFields selects low-noise, slowly drifting sensor fields:
	// consecutive snapshots stay correlated at quantization-cell
	// granularity, which is what the incremental filter mode
	// (ContinuousSENSJoin) exploits. The default fields carry realistic
	// measurement noise of about half a temperature cell per reading.
	QuietFields bool
}

// Area reports the deployment extent.
type Area struct {
	W, H float64
}

// Width returns the horizontal extent in meters.
func (a Area) Width() float64 { return a.W }

// Height returns the vertical extent in meters.
func (a Area) Height() float64 { return a.H }

// Result is a query execution's outcome.
type Result struct {
	// Columns names the output columns.
	Columns []string
	// Rows holds the result values; aggregate queries yield one row.
	Rows [][]float64
	// ContributingNodes counts distinct nodes appearing in the result.
	ContributingNodes int
	// MemberNodes counts nodes belonging to the queried relations.
	MemberNodes int
	// Complete is false when failures caused data loss (§IV-F).
	Complete bool
	// ResponseTime is the simulated seconds from start to result.
	ResponseTime float64
	// Executions counts protocol executions (>1 after failure recovery).
	Executions int
}

// Fraction returns ContributingNodes / MemberNodes, the paper's main
// workload parameter.
func (r *Result) Fraction() float64 {
	if r.MemberNodes == 0 {
		return 0
	}
	return float64(r.ContributingNodes) / float64(r.MemberNodes)
}

func fromCore(res *core.Result) *Result {
	rows := make([][]float64, len(res.Rows))
	for i, r := range res.Rows {
		rows[i] = []float64(r)
	}
	return &Result{
		Columns:           res.Columns,
		Rows:              rows,
		ContributingNodes: res.ContributingNodes,
		MemberNodes:       res.MemberNodes,
		Complete:          res.Complete,
		ResponseTime:      res.ResponseTime,
		Executions:        res.Attempts,
	}
}

// Method is a join execution strategy.
type Method struct {
	m core.Method
}

// Name identifies the method.
func (m Method) Name() string { return m.m.Name() }

// SENSJoin returns the paper's method with its default parameters
// (Dmax = 30 B, filter memory limit 500 B, quadtree representation).
func SENSJoin() Method { return Method{core.NewSENSJoin()} }

// ExternalJoin returns the state-of-the-art baseline: ship all tuples to
// the base station and join there.
func ExternalJoin() Method { return Method{core.External{}} }

// ContinuousSENSJoin returns SENS-Join with incremental filter
// dissemination across executions — the paper's §VIII follow-on idea:
// under temporal correlation, consecutive rounds of a continuous query
// transmit only the filter's delta against the previous round. Reuse the
// returned Method value for every round (Monitor does this naturally).
// The first round costs the same as plain SENS-Join; desynchronized
// nodes (Treecut sleep, tree repair, lost broadcasts) fall back to a
// conservative assume-all round and resynchronize in the next one, so
// every round's result stays exact.
func ContinuousSENSJoin() Method { return Method{core.NewContinuousSENSJoin()} }

// SENSJoinNoQuad returns SENS-Join with raw join-attribute tuples instead
// of the quadtree (the paper's SENS_No-Quad baseline, Fig. 16).
func SENSJoinNoQuad() Method {
	return Method{&core.SENSJoin{Options: core.Options{Rep: core.RawRep{}}}}
}

// MediatedJoin returns the "mediated join" baseline of Coman et al.
// (paper §II): all tuples travel to a mediator node at the member
// centroid, the join happens there, and only the result rows travel to
// the base station. Efficient solely when the input relations sit in
// small regions away from the base station and the join is selective.
func MediatedJoin() Method { return Method{core.Mediated{}} }

// SemiJoinMethod returns the in-network semi-join baseline (paper §II,
// Coman et al. / Yu et al. style): relation A's join-attribute values
// are flooded over the network and only matching B tuples are shipped;
// A's tuples ship in full. Two-relation queries only.
func SemiJoinMethod() Method { return Method{core.SemiJoin{}} }

// Network is a simulated sensor network ready to execute queries.
type Network struct {
	r       *core.Runner
	clock   float64 // sampling time of every execution; Monitor moves it on
	members map[string]func(int) bool
	reg     *metrics.Registry
}

// NewNetwork builds a connected random deployment with the standard
// "Sensors" relation (temp, hum, pres, light, x, y) over spatially
// correlated synthetic fields.
func NewNetwork(cfg Config) (*Network, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("sensjoin: Nodes must be positive")
	}
	setup := core.SetupConfig{Nodes: cfg.Nodes, Seed: cfg.Seed}
	if cfg.BaseAtCenter {
		setup.Base = topology.BaseCenter
	}
	if cfg.RangeM > 0 || cfg.AreaSideM > 0 {
		setup.Area = topology.Config{Range: cfg.RangeM}
		if cfg.AreaSideM > 0 {
			setup.Area.Area = topology.ScaledArea(cfg.Nodes) // replaced below
			setup.Area.Area.MaxX = setup.Area.Area.MinX + cfg.AreaSideM
			setup.Area.Area.MaxY = setup.Area.Area.MinY + cfg.AreaSideM
		}
	}
	if cfg.MaxPacket > 0 {
		radio := netsim.DefaultRadio()
		radio.MaxPacket = cfg.MaxPacket
		setup.Radio = radio
	}
	r, err := core.NewRunner(setup)
	if err != nil {
		return nil, err
	}
	if cfg.QuietFields {
		r.Env = field.QuietEnvironment(r.Dep.Area, cfg.Seed+1000)
	}
	return &Network{r: r}, nil
}

// DefineRelation registers an additional sensor relation (heterogeneous
// networks, paper §III: "groups of nodes form different relations"). The
// relation shares the standard attribute set and quantization; member
// decides which nodes belong to it. Queries can then join across
// relations, e.g. FROM Heaters A, Coolers B.
func (n *Network) DefineRelation(name string, member func(node int) bool) error {
	if name == "" || member == nil {
		return fmt.Errorf("sensjoin: DefineRelation needs a name and a membership function")
	}
	if _, exists := n.r.Catalog[name]; exists {
		return fmt.Errorf("sensjoin: relation %q already defined", name)
	}
	std := n.r.Catalog["Sensors"]
	schema := &relation.Schema{Name: name, Attrs: append([]relation.AttrDef(nil), std.Attrs...)}
	n.r.Catalog[name] = schema
	if n.members == nil {
		n.members = make(map[string]func(int) bool)
		n.r.Member = func(id topology.NodeID, rel string) bool {
			if f, ok := n.members[rel]; ok {
				return f(int(id))
			}
			return true // relations without a membership function are homogeneous
		}
	}
	n.members[name] = member
	return nil
}

// Nodes returns the sensor node count (excluding the base station).
func (n *Network) Nodes() int { return n.r.Dep.N() - 1 }

// Area returns the deployment extent.
func (n *Network) Area() Area {
	return Area{W: n.r.Dep.Area.Width(), H: n.r.Dep.Area.Height()}
}

// AvgDegree returns the mean neighborhood size.
func (n *Network) AvgDegree() float64 { return n.r.Dep.AvgDegree() }

// TreeDepth returns the routing tree's maximum depth.
func (n *Network) TreeDepth() int { return n.r.Tree.MaxDepth }

// exec analyses src and binds it to the network at the current clock.
func (n *Network) exec(src string) (*core.Exec, error) {
	p, err := n.r.Prepare(src)
	if err != nil {
		return nil, err
	}
	return n.r.Exec(p, n.clock), nil
}

// Explain renders the query's execution plan: predicate split, join
// attributes, quantization grid, level schedule, and the pre-computation
// estimates on the current snapshot. Nothing is transmitted.
func (n *Network) Explain(src string) (string, error) {
	x, err := n.exec(src)
	if err != nil {
		return "", err
	}
	return core.Explain(x)
}

// Advice is the cost model's recommendation; see Advise.
type Advice struct {
	// Use names the recommended method ("sens-join" or "external-join").
	Use string
	// PredictedExternal and PredictedSENS estimate the packet counts.
	PredictedExternal float64
	PredictedSENS     float64
	// ExpectedFraction is the snapshot's contributing fraction.
	ExpectedFraction float64
	// BreakEvenFraction estimates where the two methods cost the same
	// on this deployment.
	BreakEvenFraction float64
}

// Advise predicts, without transmitting anything, which general-purpose
// method is cheaper for the query on the current snapshot — the paper's
// §IV-E join-location analysis turned into a planner. The underlying
// analytical model is validated against the simulator in the tests.
func (n *Network) Advise(src string) (*Advice, error) {
	x, err := n.exec(src)
	if err != nil {
		return nil, err
	}
	a, err := core.Advise(x)
	if err != nil {
		return nil, err
	}
	return &Advice{
		Use:               a.Use,
		PredictedExternal: a.PredictedExternal,
		PredictedSENS:     a.PredictedSENS,
		ExpectedFraction:  a.ExpectedFraction,
		BreakEvenFraction: a.BreakEvenFraction,
	}, nil
}

// Execute runs a snapshot query with the given method and returns the
// result. Communication costs accumulate in the network's statistics
// (see PhaseTable, TotalPackets); call ResetStats between runs to
// compare methods.
func (n *Network) Execute(src string, m Method) (*Result, error) {
	res, err := n.r.Run(src, m.m, n.clock)
	if err != nil {
		return nil, err
	}
	return fromCore(res), nil
}

// ExecuteWithRecovery runs the query and re-executes after routing-tree
// repair when failures made the result incomplete (§IV-F).
func (n *Network) ExecuteWithRecovery(src string, m Method, maxAttempts int) (*Result, error) {
	res, err := n.r.Run(src, m.m, n.clock, core.WithRecovery(maxAttempts))
	if err != nil {
		return nil, err
	}
	return fromCore(res), nil
}

// Monitor executes a SAMPLE PERIOD query for the given number of rounds,
// advancing the simulated clock (and the sensor fields) by the query's
// period after each round. The clock carries over from one call to the
// next, so calling it one round at a time, with ResetStats in between,
// gives each round's costs.
func (n *Network) Monitor(src string, m Method, rounds int) ([]*Result, error) {
	p, err := n.r.Prepare(src)
	if err != nil {
		return nil, err
	}
	if p.Mode() != query.Periodic {
		return nil, fmt.Errorf("sensjoin: Monitor needs a SAMPLE PERIOD query, got %q", src)
	}
	var out []*Result
	for i := 0; i < rounds; i++ {
		res, err := n.r.RunPrepared(p, m.m, n.clock)
		if err != nil {
			return out, err
		}
		out = append(out, fromCore(res))
		n.clock += p.Period()
	}
	return out, nil
}

// DisseminateQuery floods the query through the network, charging the
// cost under the "query-dissem" phase (identical for all methods).
func (n *Network) DisseminateQuery(src string) error {
	x, err := n.exec(src)
	if err != nil {
		return err
	}
	core.DisseminateQuery(x)
	return nil
}

// GroundTruth computes the query result directly from the snapshot,
// bypassing the network (the oracle used in tests).
func (n *Network) GroundTruth(src string) (*Result, error) {
	x, err := n.exec(src)
	if err != nil {
		return nil, err
	}
	res, err := core.GroundTruth(x)
	if err != nil {
		return nil, err
	}
	return fromCore(res), nil
}

// ResetStats clears all communication counters.
func (n *Network) ResetStats() { n.r.Stats.Reset() }

// PhaseTable formats the per-phase communication totals.
func (n *Network) PhaseTable() string { return n.r.Stats.PhaseTable() }

// PhasePackets returns the transmitted packets of one accounting phase
// ("ja-collect", "filter-dissem", "final-collect", "extern-collect",
// "query-dissem", ...); PhaseTable lists the labels seen.
func (n *Network) PhasePackets(phase string) int64 {
	return n.r.Stats.TotalTx(phase)
}

// TotalPackets sums the transmitted packets over the method's phases.
func (n *Network) TotalPackets(m Method) int64 {
	return n.r.Stats.TotalTx(m.m.Phases()...)
}

// MaxLoadedNode returns the most loaded sensor node and its packet count
// over the method's phases.
func (n *Network) MaxLoadedNode(m Method) (node int, packets int64) {
	id, p := n.r.Stats.MaxTx(m.m.Phases()...)
	return int(id), p
}

// TotalEnergy estimates the radio energy in Joules spent by all sensor
// nodes so far, under a CC2420-class energy model.
func (n *Network) TotalEnergy() float64 {
	return n.r.Stats.TotalEnergy(stats.CC2420Model())
}

// EnableMetrics attaches the network's whole stack — event loop, radio,
// reliable transport, protocol phases — to live instruments (counters,
// gauges, histograms). Render them with WriteMetrics. Metrics observe
// the simulation without perturbing it: results and packet accounting
// are identical with metrics on or off. Idempotent.
func (n *Network) EnableMetrics() {
	if n.reg == nil {
		n.reg = metrics.New()
	}
	n.r.EnableMetrics(n.reg)
}

// WriteMetrics renders the live instruments in Prometheus text format
// (version 0.0.4). Requires EnableMetrics.
func (n *Network) WriteMetrics(w io.Writer) error {
	if n.reg == nil {
		return fmt.Errorf("sensjoin: no metrics; call EnableMetrics before executing")
	}
	return n.reg.WritePrometheus(w)
}

// EnableJournal starts recording a structured execution journal: every
// radio event plus the protocol-level span events (phase transitions,
// Treecut exits, proxy takeovers, prune and suppress decisions, recovery
// attempts). The journal grows across executions; export it with
// WriteTrace / WriteChromeTrace, summarize it with PhaseBreakdown, or
// audit executions with ExecuteAudited. Idempotent.
func (n *Network) EnableJournal() { n.r.EnableTrace() }

// WriteTrace writes the recorded journal as JSON Lines, one event per
// line. Requires EnableJournal (or a prior ExecuteAudited).
func (n *Network) WriteTrace(w io.Writer) error {
	if n.r.Trace == nil {
		return fmt.Errorf("sensjoin: no journal; call EnableJournal before executing")
	}
	return trace.WriteJSONL(w, n.r.Trace.Journal())
}

// WriteChromeTrace writes the journal in Chrome trace_event format;
// open the file at chrome://tracing or https://ui.perfetto.dev.
func (n *Network) WriteChromeTrace(w io.Writer) error {
	if n.r.Trace == nil {
		return fmt.Errorf("sensjoin: no journal; call EnableJournal before executing")
	}
	return trace.WriteChrome(w, n.r.Trace.Journal())
}

// PhaseBreakdown formats the journal's per-phase response-time and
// traffic table (empty without a journal).
func (n *Network) PhaseBreakdown() string {
	if n.r.Trace == nil {
		return ""
	}
	return trace.PhaseBreakdown(n.r.Trace.Journal())
}

// ExecuteAudited runs the query like Execute and then audits the
// execution's journal segment: conservation (every delivery traces back
// to a transmission; drops and losses explain the gaps), reconciliation
// (journal totals equal the statistics, bit-exact), slot-schedule
// ordering (no parent transmits before its children in collection
// phases) and filter soundness (no suppressed tuple belongs to the exact
// result — checked on fault-free runs). It returns the violations as
// human-readable strings; a correct execution returns none. Enables the
// journal on demand.
func (n *Network) ExecuteAudited(src string, m Method) (*Result, []string, error) {
	res, err := n.r.Run(src, m.m, n.clock, core.Audited())
	if err != nil {
		return nil, nil, err
	}
	out := make([]string, len(res.Violations))
	for i, v := range res.Violations {
		out[i] = v.String()
	}
	return fromCore(res), out, nil
}

// FailLink forces the link between nodes a and b down (both directions).
func (n *Network) FailLink(a, b int) {
	n.r.Net.LinkDown(topology.NodeID(a), topology.NodeID(b))
}

// RestoreLink brings a failed link back up.
func (n *Network) RestoreLink(a, b int) {
	n.r.Net.LinkUp(topology.NodeID(a), topology.NodeID(b))
}

// KillNode takes a node offline.
func (n *Network) KillNode(id int) { n.r.Net.KillNode(topology.NodeID(id)) }

// RepairRouting re-forms the routing tree over the live links, standing
// in for the collection-tree protocol's self-repair.
func (n *Network) RepairRouting() { n.r.RebuildTree() }

// RoutingParent returns node id's parent in the routing tree (-1 for the
// base station and unreachable nodes).
func (n *Network) RoutingParent(id int) int { return int(n.r.Tree.Parent[id]) }
