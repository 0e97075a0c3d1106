// Package core implements the paper's join methods: SENS-Join (§IV) with
// Treecut, Selective Filter Forwarding and the quadtree representation,
// and the state-of-the-art external join baseline (§I, §VI), plus the
// SENS_No-Quad and compression-backed variants used in the §VI-B
// experiments.
//
// The methods execute on the discrete-event simulator (package netsim)
// over a routing tree (package routing); every protocol message is
// packetized and charged to the stats collector, which is the observable
// the paper's evaluation reports.
package core

import (
	"fmt"

	"sensjoin/internal/field"
	"sensjoin/internal/netsim"
	"sensjoin/internal/query"
	"sensjoin/internal/relation"
	"sensjoin/internal/routing"
	"sensjoin/internal/stats"
	"sensjoin/internal/tabledigest"
	"sensjoin/internal/topology"
	"sensjoin/internal/trace"
)

// Accounting phase labels. Experiment totals sum the method's phases;
// query dissemination and tree beaconing are common-mode and reported
// separately.
const (
	PhaseQueryDissem  = "query-dissem"
	PhaseJACollect    = "ja-collect"
	PhaseFilterDissem = "filter-dissem"
	PhaseFinalCollect = "final-collect"
	PhaseExternal     = "extern-collect"
	// PhaseRecovery charges scoped-recovery traffic (re-requests and
	// re-collected tuples under reliable transport). It is deliberately
	// NOT part of any Method.Phases(): the paper's loss-free tables stay
	// unchanged, and the loss experiment adds it explicitly.
	PhaseRecovery = "scoped-recovery"
)

// SENSPhases lists the phases whose sum is the cost of a SENS-Join
// execution.
var SENSPhases = []string{PhaseJACollect, PhaseFilterDissem, PhaseFinalCollect}

// ExternalPhases lists the phases whose sum is the cost of an external
// join execution.
var ExternalPhases = []string{PhaseExternal}

// Message kinds on the wire.
const (
	kindFullTuples = iota + 10
	kindJoinAttrs
	kindFilter
	kindFinal
	kindResult
	kindQuery
	kindRerequest
)

// Incompleteness reasons surfaced in Result.IncompleteReason.
const (
	// ReasonLoss: data was lost in transit; a re-execution (or another
	// recovery round) can still succeed.
	ReasonLoss = "loss"
	// ReasonDeadSubtree: a missing subtree hangs off a dead node (or its
	// members died); its data cannot be recovered by any retry.
	ReasonDeadSubtree = "dead-subtree"
	// ReasonPartition: missing nodes are alive but no live path connects
	// them to the base station.
	ReasonPartition = "partition"
)

// Exec bundles everything one query execution needs. Runner.Exec is the
// one place that assembles it.
type Exec struct {
	Sim   *netsim.Sim
	Net   *netsim.Network
	Tree  *routing.Tree
	Stats *stats.Collector

	Dep *topology.Deployment
	Env *field.Environment
	// Member decides relation membership (nil = homogeneous).
	Member relation.Membership

	Query    *query.Query
	Analysis *query.Analysis

	// Time is the sampling instant of this execution's snapshot. Dep, Env
	// and Time are fixed once the execution reads its first value (see
	// snapshot).
	Time float64
	// snap is the execution's snapshot, resolved on first use and held to
	// the end: whatever other instants the environment is asked for in the
	// meantime, this execution samples each attribute at most once.
	snap *field.Snapshot

	// Trace records protocol-level span events (phase transitions,
	// Treecut exits, prune decisions, ...). A nil recorder is a no-op,
	// so instrumentation points need no guards; guard only work that
	// exists solely to feed it (x.Trace.Enabled()).
	Trace *trace.Recorder
	// Metrics mirrors span events into live instruments; nil is a no-op.
	Metrics *CoreMetrics
	// phaseOpen pairs phase-start times with their ends for the duration
	// histograms; per-execution state, so concurrent runs never share it.
	phaseOpen map[string]float64

	// scratch is the run state and join-kernel storage lent by the owning
	// Runner; see run() and runstate.go.
	scratch *runScratch

	// Workers parallelizes the per-node setup work of buildPlan without
	// changing its output (0/1 = sequential); SetupConfig.SetupWorkers.
	Workers int

	// prog is the query's compiled kernel program and shape its plan
	// shape (Prepared.prog, Prepared.shape).
	prog  *kernelProg
	shape *planShape

	// onTreeSwap propagates a mid-round tree repair to the owning Runner;
	// nil-safe.
	onTreeSwap func(*routing.Tree)
	// repairs / repairAt record mid-round repair activity for the Result.
	repairs  int
	repairAt float64
	// withoutRows makes the exact join of a plain query count its rows
	// instead of building them (WithoutRows).
	withoutRows bool
}

// span appends a protocol event at the acting node's current time —
// under sharding that is the node's region clock, so spans emitted from
// parallel region workers carry their true simulated timestamps.
func (x *Exec) span(k trace.Kind, node, peer topology.NodeID, phase string, arg int) {
	x.spanAt(x.Sim.NodeNow(node), k, node, peer, phase, arg)
}

// spanAt appends a protocol event at time at.
func (x *Exec) spanAt(at float64, k trace.Kind, node, peer topology.NodeID, phase string, arg int) {
	x.Trace.Span(at, k, node, peer, phase, arg)
	x.Metrics.observeSpan(x, at, k, phase)
}

// snapshot returns the execution's snapshot (environment, node positions,
// Time): shared with every other execution at the same instant while the
// environment remembers it, and pinned here so that this execution keeps
// it regardless. Only buildPlan (before the simulation starts) and the
// base station's join (after the collection) read values, one at a time,
// so the lazy assignment needs no lock.
func (x *Exec) snapshot() *field.Snapshot {
	if x.snap == nil {
		x.snap = x.Env.Snapshot(x.Dep.Pos, x.Time)
	}
	return x.snap
}

// column returns attribute name's sampled values indexed by node id.
// Resolve a column once per plan or kernel call, then index it.
func (x *Exec) column(name string) []float64 { return x.snapshot().Column(name) }

// Row is one output row of a query result.
type Row []float64

// Result is a query execution's outcome.
type Result struct {
	// Columns names the output columns.
	Columns []string
	// Rows holds the result; for aggregate queries it is a single row.
	// It is nil for a plain query run WithoutRows.
	Rows []Row
	// ContributingNodes counts distinct nodes whose tuple appears in at
	// least one (pre-aggregation) result row.
	ContributingNodes int
	// MemberNodes counts nodes that belong to at least one input
	// relation and pass its local predicates.
	MemberNodes int
	// Complete is false when network failures caused data loss during
	// the execution.
	Complete bool
	// MissingSubtrees lists the minimal roots (no missing ancestor) of
	// the subtrees whose data is still missing; empty when Complete.
	MissingSubtrees []topology.NodeID
	// IncompleteReason classifies an incomplete result: ReasonLoss,
	// ReasonDeadSubtree or ReasonPartition. Empty when Complete.
	IncompleteReason string
	// RecoveryRounds counts the scoped-recovery rounds this execution
	// ran (reliable transport only).
	RecoveryRounds int
	// Repairs counts the mid-round incremental tree repairs this
	// execution's scoped recovery performed (reliable transport only).
	Repairs int
	// RepairLatency is the simulated seconds from query start to the
	// first mid-round repair; 0 when Repairs is 0.
	RepairLatency float64
	// ResponseTime is the simulated seconds from query start to result.
	ResponseTime float64
	// Attempts counts the executions behind this result: 1 unless
	// WithRecovery re-executed after an incomplete attempt.
	Attempts int
	// Violations lists what the journal audit found (Audited); a correct
	// execution has none. With WithRecovery it spans every attempt.
	Violations []trace.Violation

	// block is the storage Rows are carved from, nil when the rows are
	// on the heap; Release hands it back (runstate.go).
	block *resultBlock
}

// Fraction returns the fraction of member nodes that contribute to the
// result — the paper's main workload parameter.
func (r *Result) Fraction() float64 {
	if r.MemberNodes == 0 {
		return 0
	}
	return float64(r.ContributingNodes) / float64(r.MemberNodes)
}

// Table is the result as table comparisons see it: two results are the
// same table when tabledigest.Diff of their Tables is "".
func (r *Result) Table() tabledigest.Table[Row] {
	return tabledigest.Table[Row]{Columns: r.Columns, Rows: r.Rows,
		Contributing: r.ContributingNodes, Members: r.MemberNodes, Complete: r.Complete}
}

// Method is a join execution strategy.
type Method interface {
	// Name identifies the method in experiment output.
	Name() string
	// Phases lists the accounting phases the method charges.
	Phases() []string
	// Run executes the query and returns its result. Communication is
	// charged to x.Stats.
	Run(x *Exec) (*Result, error)
}

// columnsOf derives output column names from the SELECT list.
func columnsOf(q *query.Query) []string {
	cols := make([]string, len(q.Select))
	for i, s := range q.Select {
		if s.As != "" {
			cols[i] = s.As
		} else {
			cols[i] = s.String()
		}
	}
	return cols
}

// DisseminateQuery floods the query through the network: the base
// station broadcasts it, every node rebroadcasts once. The cost is
// charged under PhaseQueryDissem; it is identical for every join method.
func DisseminateQuery(x *Exec) {
	size := len(x.Query.String())
	seen := make([]bool, x.Net.N())
	x.Net.SetHandler(func(id topology.NodeID, m netsim.Message) {
		if m.Kind != kindQuery || seen[id] {
			return
		}
		seen[id] = true
		x.Net.Send(netsim.Message{
			Kind: kindQuery, Src: id, Dst: netsim.BroadcastID,
			Phase: PhaseQueryDissem, Size: size,
		})
	})
	defer x.Net.SetHandler(nil)
	seen[topology.BaseStation] = true
	x.Net.Send(netsim.Message{
		Kind: kindQuery, Src: topology.BaseStation, Dst: netsim.BroadcastID,
		Phase: PhaseQueryDissem, Size: size,
	})
	x.Sim.Run()
}

// aggState folds rows into aggregate results.
type aggState struct {
	items []query.SelectItem
	count int64
	acc   []float64
}

func newAggState(items []query.SelectItem) *aggState {
	s := &aggState{items: items, acc: make([]float64, len(items))}
	return s
}

func hasAggregates(items []query.SelectItem) bool {
	for _, it := range items {
		if it.Agg != query.AggNone {
			return true
		}
	}
	return false
}

func (s *aggState) add(row Row) {
	s.count++
	for i, it := range s.items {
		v := row[i]
		switch it.Agg {
		case query.AggMin:
			if s.count == 1 || v < s.acc[i] {
				s.acc[i] = v
			}
		case query.AggMax:
			if s.count == 1 || v > s.acc[i] {
				s.acc[i] = v
			}
		case query.AggSum, query.AggAvg:
			s.acc[i] += v
		case query.AggCount:
			s.acc[i]++
		default:
			s.acc[i] = v // last value; mixed aggregate/plain is unusual
		}
	}
}

func (s *aggState) rows() []Row {
	if s.count == 0 {
		return nil
	}
	out := make(Row, len(s.items))
	copy(out, s.acc)
	for i, it := range s.items {
		if it.Agg == query.AggAvg {
			out[i] /= float64(s.count)
		}
	}
	return []Row{out}
}

// validateAliasCount guards methods that require a join.
func validateAliasCount(x *Exec) error {
	if len(x.Query.From) < 2 {
		return fmt.Errorf("core: %q has %d relation(s); join methods need at least two (use the external join for plain collection)",
			x.Query.String(), len(x.Query.From))
	}
	return nil
}
