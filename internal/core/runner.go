package core

import (
	"fmt"

	"sensjoin/internal/field"
	"sensjoin/internal/metrics"
	"sensjoin/internal/netsim"
	"sensjoin/internal/query"
	"sensjoin/internal/relation"
	"sensjoin/internal/routing"
	"sensjoin/internal/stats"
	"sensjoin/internal/topology"
	"sensjoin/internal/trace"
)

// SetupConfig describes a simulated deployment for the Runner.
type SetupConfig struct {
	// Nodes is the sensor node count (paper default: 1500).
	Nodes int
	// Area is the deployment region; zero means an area scaled to the
	// paper's density for Nodes.
	Area topology.Config
	// Radio is the packet model; zero fields mean the paper defaults.
	Radio netsim.RadioConfig
	// Seed makes the run reproducible.
	Seed int64
	// Base selects base-station placement.
	Base topology.BasePlacement
	// Private opts out of the shared deployment cache (see cache.go):
	// the runner gets its own freshly generated Deployment, Environment
	// and Tree that callers may mutate. The default (shared) is correct
	// for all callers that treat them as read-only, which is everything
	// in this repository.
	Private bool
	// Shards > 1 partitions the simulator into that many spatial regions
	// executed in parallel under conservative time-window
	// synchronization (see netsim/shard.go). Results are bit-identical
	// for any shard count, and tracing and live metrics compose with it
	// (journals come out byte-identical to a classic run); enabling
	// reliable transport, the loss model or churn reverts the runner to
	// the classic engine.
	Shards int
	// ShardWorkers bounds the goroutines running one synchronization
	// window (0 = one per shard, capped by GOMAXPROCS).
	ShardWorkers int
	// SetupWorkers parallelizes the setup path — node placement's
	// neighbor scan, tree construction, per-node plan building — without
	// changing any output (0/1 = sequential). Only honored for Private
	// runners: shared deployments come from the cache.
	SetupWorkers int
}

// Runner owns a simulated deployment and executes queries on it with any
// join method. It is the integration point used by tests, the experiment
// harness and the public API.
type Runner struct {
	Dep     *topology.Deployment
	Env     *field.Environment
	Catalog relation.Catalog
	Sim     *netsim.Sim
	Net     *netsim.Network
	Tree    *routing.Tree
	Stats   *stats.Collector
	// Member decides relation membership (nil = homogeneous).
	Member relation.Membership

	// Trace records execution journals once EnableTrace is called; nil
	// keeps the radio hot path allocation-free.
	Trace *trace.Recorder
	// Metrics holds the protocol instruments once EnableMetrics is
	// called; nil keeps every hook a no-op.
	Metrics *CoreMetrics
	// treeDepth is the live tree-depth gauge (nil when metrics are off).
	treeDepth *metrics.Gauge
	// AutoAudit makes every Run audit itself: each execution's journal
	// segment is checked (conservation, reconciliation, slot order,
	// filter soundness, churn safety) and violations turn into errors.
	// The journal is truncated after each run to bound memory.
	AutoAudit bool
	// workers is SetupConfig.SetupWorkers, forwarded to each Exec.
	workers int
	// repair arms mid-round tree repair (EnableMidRoundRepair).
	repair bool
	// churn is the attached fault injector, nil without AttachChurn.
	churn *netsim.Churn
	// reg remembers the registry EnableMetrics wired, so features
	// enabled later (AttachChurn) can register their instruments too.
	reg *metrics.Registry
	// scratch is the per-node run state and join-kernel storage every
	// execution on this runner borrows (runstate.go).
	scratch runScratch
}

// NewRunner builds a connected deployment, its environment, the standard
// catalog, and a fresh simulator with routing tree.
func NewRunner(cfg SetupConfig) (*Runner, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("core: node count %d invalid", cfg.Nodes)
	}
	tcfg := cfg.Area
	if tcfg.Range == 0 {
		tcfg.Range = 50
	}
	if tcfg.Area.Width() == 0 {
		tcfg.Area = topology.ScaledArea(cfg.Nodes)
	}
	tcfg.Nodes = cfg.Nodes
	tcfg.Seed = cfg.Seed
	tcfg.Base = cfg.Base
	var (
		dep  *topology.Deployment
		env  *field.Environment
		tree *routing.Tree
	)
	if cfg.Private {
		var err error
		dep, err = topology.GenerateParallel(tcfg, cfg.SetupWorkers)
		if err != nil {
			return nil, err
		}
		env = field.StandardEnvironment(dep.Area, cfg.Seed+1000)
		tree = routing.BuildTreeParallel(dep.Neighbors, topology.BaseStation, cfg.SetupWorkers)
	} else {
		shared, err := sharedSetupFor(tcfg)
		if err != nil {
			return nil, err
		}
		dep, env, tree = shared.dep, shared.env, shared.tree
	}
	return NewRunnerFromSetup(dep, env, tree, cfg), nil
}

// NewRunnerFromSetup assembles a runner around already-built setup
// artifacts — the scale harness generates one deployment and reuses it
// across shard counts. Only the Radio, Shards, ShardWorkers and
// SetupWorkers fields of cfg apply.
func NewRunnerFromSetup(dep *topology.Deployment, env *field.Environment, tree *routing.Tree, cfg SetupConfig) *Runner {
	radio := cfg.Radio
	if radio.MaxPacket == 0 {
		radio = netsim.DefaultRadio()
	}
	schema := relation.StandardSchema(dep.Area)
	sim := netsim.NewSim()
	coll := stats.NewCollector(dep.N())
	net := netsim.NewNetwork(sim, dep, radio, coll)
	r := &Runner{
		Dep:     dep,
		Env:     env,
		Catalog: relation.Catalog{schema.Name: schema},
		Sim:     sim,
		Net:     net,
		Tree:    tree,
		Stats:   coll,
		workers: cfg.SetupWorkers,
	}
	if cfg.Shards > 1 {
		// Lookahead: the air time of one empty packet, the minimum
		// latency of any cross-node interaction.
		sim.EnableSharding(netsim.PartitionStrips(dep, cfg.Shards), cfg.Shards,
			radio.AirTime(1, 0), cfg.ShardWorkers)
		net.BindSharding()
	}
	return r
}

// disableSharding reverts this runner to the classic engine; called by
// every feature whose hot path is incompatible with parallel regions.
func (r *Runner) disableSharding() {
	r.Sim.DisableSharding()
	r.Net.BindSharding()
}

// NewRunnerFromDeployment wraps an existing deployment (tests use
// hand-built topologies such as lines and stars).
func NewRunnerFromDeployment(dep *topology.Deployment, radio netsim.RadioConfig, seed int64) *Runner {
	if radio.MaxPacket == 0 {
		radio = netsim.DefaultRadio()
	}
	schema := relation.StandardSchema(dep.Area)
	sim := netsim.NewSim()
	coll := stats.NewCollector(dep.N())
	return &Runner{
		Dep:     dep,
		Env:     field.StandardEnvironment(dep.Area, seed),
		Catalog: relation.Catalog{schema.Name: schema},
		Sim:     sim,
		Net:     netsim.NewNetwork(sim, dep, radio, coll),
		Tree:    routing.BuildTree(dep.Neighbors, topology.BaseStation),
		Stats:   coll,
	}
}

// Exec assembles an execution context for a parsed query at time t.
func (r *Runner) Exec(q *query.Query, t float64) (*Exec, error) {
	x, err := NewExec(r.Sim, r.Net, r.Tree, r.Stats, r.Dep, r.Env, r.Catalog, q, t)
	if err != nil {
		return nil, err
	}
	x.Member = r.Member
	x.Trace = r.Trace
	x.Metrics = r.Metrics
	x.Workers = r.workers
	x.Repair = r.repair
	x.scratch = &r.scratch
	x.onTreeSwap = func(t *routing.Tree) {
		r.Tree = t
		r.treeDepth.Set(int64(t.MaxDepth))
	}
	return x, nil
}

// ExecSQL parses src and assembles an execution context at time t.
func (r *Runner) ExecSQL(src string, t float64) (*Exec, error) {
	q, err := query.Parse(src)
	if err != nil {
		return nil, err
	}
	return r.Exec(q, t)
}

// Run executes a query with the given method at time t. With AutoAudit
// set, the execution's journal is audited and violations become errors.
func (r *Runner) Run(src string, m Method, t float64) (*Result, error) {
	if r.Metrics != nil {
		r.Metrics.Runs.Inc()
	}
	if r.AutoAudit {
		res, violations, err := r.AuditRun(src, m, t)
		if err != nil {
			return nil, err
		}
		if len(violations) > 0 {
			return nil, fmt.Errorf("core: %s audit: %d violation(s), first: %s",
				m.Name(), len(violations), violations[0])
		}
		return res, nil
	}
	x, err := r.ExecSQL(src, t)
	if err != nil {
		return nil, err
	}
	return m.Run(x)
}

// EnableMetrics wires the whole stack of this runner — event loop,
// radio, reliable transport and protocol spans — into live instruments
// on reg. Many runners may share one registry: counters accumulate
// across them (the experiment fan-out does exactly this). A nil
// registry disables everything again.
func (r *Runner) EnableMetrics(reg *metrics.Registry) {
	r.reg = reg
	r.Sim.SetMetrics(netsim.NewSimMetrics(reg))
	r.Net.SetMetrics(netsim.NewNetMetrics(reg))
	r.Metrics = NewMetrics(reg)
	r.treeDepth = reg.Gauge("sensjoin_routing_tree_depth", "routing tree depth (largest hop count)")
	r.treeDepth.Set(int64(r.Tree.MaxDepth))
	if r.churn != nil {
		r.churn.SetMetrics(netsim.NewChurnMetrics(reg))
	}
}

// RebuildTree re-forms the routing tree over the currently live links,
// standing in for the collection-tree protocol's repair (§IV-F). The
// equivalent beaconing protocol is in package routing; the experiment
// harness uses the instant rebuild for determinism.
func (r *Runner) RebuildTree() {
	r.Tree = routing.BuildTree(r.Net.LiveNeighbors(), topology.BaseStation)
	r.treeDepth.Set(int64(r.Tree.MaxDepth))
}

// RebuildTreeAvoidingFailures re-forms the tree like RebuildTree, but
// steers around directed links whose reliable-transport retransmissions
// exhausted since the last rebuild — persistent link failure detected by
// the transport itself. The exhaustion record is consumed: the next
// rebuild trusts the links again unless they fail again. Without
// reliable transport (no exhaustion records) it is plain RebuildTree.
func (r *Runner) RebuildTreeAvoidingFailures() {
	bad := r.Net.ExhaustedLinks()
	if len(bad) == 0 {
		r.RebuildTree()
		return
	}
	avoid := func(parent, child topology.NodeID) bool {
		return bad[netsim.Link{From: parent, To: child}] > 0 ||
			bad[netsim.Link{From: child, To: parent}] > 0
	}
	r.Tree = routing.BuildTreeAvoiding(r.Net.LiveNeighbors(), topology.BaseStation, avoid)
	r.treeDepth.Set(int64(r.Tree.MaxDepth))
	r.Net.ClearExhaustedLinks()
}

// EnableReliableTransport switches all unicast traffic to hop-by-hop
// reliable delivery (ACKs, bounded retransmissions, duplicate
// suppression; see netsim) and arms scoped recovery in the join methods.
func (r *Runner) EnableReliableTransport(cfg netsim.ReliableConfig) {
	r.disableSharding()
	r.Net.EnableReliable(cfg)
}

// RunWithRecovery executes the query and, when failures made the result
// incomplete, repairs the routing tree and re-executes — the paper's
// error handling (§IV-F: "we rely upon the tree protocol to re-establish
// the routing structure; afterwards, we simply re-execute the query").
// All attempts are charged to the collector. It returns the final result
// and the number of executions; on the give-up path the count is exactly
// maxAttempts and the result carries MissingSubtrees and
// IncompleteReason, with no trailing tree rebuild.
func (r *Runner) RunWithRecovery(src string, m Method, t float64, maxAttempts int) (*Result, int, error) {
	if maxAttempts <= 0 {
		maxAttempts = 3
	}
	for attempt := 1; ; attempt++ {
		res, err := r.Run(src, m, t)
		if err != nil {
			return nil, attempt, err
		}
		if res.Complete || attempt == maxAttempts {
			return res, attempt, nil
		}
		r.RebuildTreeAvoidingFailures()
		r.Trace.Span(r.Sim.Now(), trace.KindRecovery, topology.BaseStation, -1, "", attempt)
	}
}
