package core

import (
	"fmt"
	"slices"

	"sensjoin/internal/field"
	"sensjoin/internal/metrics"
	"sensjoin/internal/netsim"
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
	// synchronization (see netsim/shard.go); 0 and 1 mean one region,
	// which is the same engine. A run is the same run at every shard
	// count — rows, packets, response times and the recorded journal —
	// with every feature on: tracing, metrics, loss, reliable transport
	// with its mid-round repair, churn, continuous and QueryGroup rounds.
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

	// Metrics holds the protocol instruments once EnableMetrics is
	// called; nil keeps every hook a no-op.
	Metrics *CoreMetrics
	// treeDepth is the live tree-depth gauge (nil when metrics are off).
	treeDepth *metrics.Gauge
	// rec is the running execution's recorder (Traced, or auditRec under
	// Audited alone); nil between executions.
	rec *trace.Recorder
	// auditRec is the runner's own audit recorder, emptied after each use.
	auditRec *trace.Recorder
	// workers is SetupConfig.SetupWorkers, forwarded to each Exec.
	workers int
	// churn is the attached fault injector, nil without AttachChurn.
	churn *netsim.Churn
	// reg remembers the registry EnableMetrics wired, so features
	// enabled later (AttachChurn) can register their instruments too.
	reg *metrics.Registry
	// scratch is the per-node run state and join-kernel storage every
	// execution on this runner borrows (runstate.go).
	scratch runScratch
	// env0 and tree0 are the environment and routing tree the runner was
	// built with: reset puts the first back and refuses to recycle a
	// runner whose tree was rebuilt or repaired (pool.go).
	env0  *field.Environment
	tree0 *routing.Tree
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
		env0:    env,
		tree0:   tree,
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

// NewRunnerFromDeployment wraps an existing deployment (tests use
// hand-built topologies such as lines and stars).
func NewRunnerFromDeployment(dep *topology.Deployment, radio netsim.RadioConfig, seed int64) *Runner {
	return NewRunnerFromSetup(dep, field.StandardEnvironment(dep.Area, seed),
		routing.BuildTree(dep.Neighbors, topology.BaseStation), SetupConfig{Radio: radio})
}

// A Runner has four query entry points and no others (pinned by
// TestRunnerQuerySurface): Prepare analyses a query, Exec binds the
// analysed query to this runner at one instant, RunPrepared executes it,
// and Run is Prepare followed by RunPrepared.

// Exec assembles the execution context of p at time t. It is the only
// place an Exec is built, so whatever the runner holds — membership,
// the execution's recorder, metrics, setup workers, the tree-swap hook
// mid-round repair reports through — reaches every execution.
func (r *Runner) Exec(p *Prepared, t float64) *Exec {
	return &Exec{
		Sim: r.Sim, Net: r.Net, Tree: r.Tree, Stats: r.Stats,
		Dep: r.Dep, Env: r.Env, Member: r.Member,
		Query: p.query, Analysis: p.analysis, prog: p.prog, shape: p.shape, Time: t,
		Trace: r.rec, Metrics: r.Metrics,
		scratch: &r.scratch, Workers: r.workers,
		onTreeSwap: r.setTree,
	}
}

// RunOption adjusts one Run, RunPrepared or QueryGroup.RunRound call. It
// is the one way to say how an execution runs — transport, loss, journal,
// audit, recovery, rows — and lasts exactly as long as the execution
// (see Runner.arm). Dead nodes, downed links, per-link loss and the
// exhausted-link record are the network's state until its Reset.
//
// An option is plain data, one kind with its arguments, so gathering a
// call's options allocates nothing.
type RunOption struct {
	kind     optionKind
	attempts int
	lossRate float64
	lossSeed int64
	reliable netsim.ReliableConfig
	rec      *trace.Recorder
}

type optionKind uint8

const (
	optAudited optionKind = iota + 1
	optRecovery
	optWithoutRows
	optReliable
	optLoss
	optTraced
)

// runOptions is what a call's options ask for together.
type runOptions struct {
	attempts    int
	lossRate    float64
	lossSeed    int64
	reliable    bool
	reliableCfg netsim.ReliableConfig
	rec         *trace.Recorder
	audit       bool
	withoutRows bool
}

// Audited audits the execution's journal segment (see auditSegment) and
// reports what it finds in Result.Violations, for the caller to judge.
// Without Traced the segment goes to a recorder of the runner's own,
// emptied after every audit.
func Audited() RunOption { return RunOption{kind: optAudited} }

// WithRecovery re-executes after routing-tree repair while failures leave
// the result incomplete — the paper's error handling (§IV-F: "we rely
// upon the tree protocol to re-establish the routing structure;
// afterwards, we simply re-execute the query"). All attempts are charged
// to the collector; Result.Attempts counts them. On the give-up path the
// count is exactly maxAttempts (3 when maxAttempts <= 0) and the result
// carries MissingSubtrees and IncompleteReason, with no trailing rebuild.
func WithRecovery(maxAttempts int) RunOption {
	if maxAttempts <= 0 {
		maxAttempts = 3
	}
	return RunOption{kind: optRecovery, attempts: maxAttempts}
}

// WithoutRows runs a plain query (no aggregate, no GROUP BY) without
// building its rows: the base station enumerates the matches once, marks
// the contributing nodes and counts the rows, and Result.Rows is nil.
// Every other field of the Result, every packet, event and simulated
// time, and the journal are those of the same run with rows: where a
// method's traffic depends on the result (the mediated join ships it),
// the row count, LIMIT applied, sizes it. An aggregate or grouped query
// keeps its rows. Under Audited the option is ignored: the churn-safety
// audit compares every result's rows with its oracle's.
func WithoutRows() RunOption { return RunOption{kind: optWithoutRows} }

// WithReliable sends every unicast hop by hop reliably (ACKs, bounded
// retransmissions, duplicate suppression; see netsim) and arms scoped
// recovery: the base station re-requests only the missing subtrees,
// each recovery round first repairing the tree (repair.go).
func WithReliable(cfg netsim.ReliableConfig) RunOption {
	return RunOption{kind: optReliable, reliable: cfg}
}

// WithLoss loses each packet with probability rate, drawn from seed
// (netsim.Network.SetLossRate); a link's own rate overrides it.
func WithLoss(rate float64, seed int64) RunOption {
	return RunOption{kind: optLoss, lossRate: rate, lossSeed: seed}
}

// Traced journals the execution's radio events and protocol spans into
// rec, which the caller owns: the runner writes it only meanwhile. A nil
// rec journals nothing.
func Traced(rec *trace.Recorder) RunOption { return RunOption{kind: optTraced, rec: rec} }

// gatherOptions folds a call's options in order: a later option of a
// kind replaces an earlier one.
func gatherOptions(opts []RunOption) runOptions {
	o := runOptions{attempts: 1}
	for i := range opts {
		switch opt := &opts[i]; opt.kind {
		case optAudited:
			o.audit = true
		case optRecovery:
			o.attempts = opt.attempts
		case optWithoutRows:
			o.withoutRows = true
		case optReliable:
			o.reliable, o.reliableCfg = true, opt.reliable
		case optLoss:
			o.lossRate, o.lossSeed = opt.lossRate, opt.lossSeed
		case optTraced:
			o.rec = opt.rec
		}
	}
	return o
}

// Run prepares src and executes it; see RunPrepared.
func (r *Runner) Run(src string, m Method, t float64, opts ...RunOption) (*Result, error) {
	p, err := r.Prepare(src)
	if err != nil {
		return nil, err
	}
	return r.RunPrepared(p, m, t, opts...)
}

// RunPrepared executes a prepared query with the given method at time t:
// a round of one execution (see attempts).
func (r *Runner) RunPrepared(p *Prepared, m Method, t float64, opts ...RunOption) (*Result, error) {
	results, err := r.attempts([]*Prepared{p}, m, t, gatherOptions(opts), func(execs []*Exec) ([]*Result, error) {
		res, err := m.Run(execs[0])
		return []*Result{res}, err
	})
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// attempts is the one attempt loop every execution passes through:
// RunPrepared runs a lone query as a round of one, QueryGroup.RunRound
// each cluster as a round of its members. round runs method m once per
// prepared query at time t. The options' transport, loss and journal are
// armed for the whole loop and disarmed when it ends. Each attempt
// counts once in sensjoin_core_runs_total and, under Audited, is audited
// with every result; while any result is incomplete and WithRecovery
// allows, the tree is rebuilt and the round re-run. Every result carries
// the attempt count and what the round's audits found. Under WithoutRows
// every execution of an unaudited round builds no plain rows.
func (r *Runner) attempts(ps []*Prepared, m Method, t float64, o runOptions,
	round func(execs []*Exec) ([]*Result, error)) ([]*Result, error) {
	r.arm(&o)
	defer r.disarm(&o)
	execs := make([]*Exec, len(ps))
	var violations []trace.Violation
	for attempt := 1; ; attempt++ {
		if r.Metrics != nil {
			r.Metrics.Runs.Inc()
		}
		seg := r.openAudit(o)
		for j, p := range ps {
			execs[j] = r.Exec(p, t)
			execs[j].withoutRows = o.withoutRows && seg == nil // an audit compares rows
		}
		if seg != nil && r.churn != nil {
			// The churn-safety oracles must be computed before the run:
			// churn may kill members mid-round, and GroundTruth reflects
			// aliveness at call time — the contract is "exact w.r.t. the
			// snapshot the round started from".
			seg.truths = make([]*Result, len(execs))
			for j, x := range execs {
				var err error
				if seg.truths[j], err = GroundTruth(x); err != nil {
					return nil, err
				}
			}
		}
		results, err := round(execs)
		if err != nil {
			return nil, err
		}
		if seg != nil {
			found, err := seg.close(m, execs, results)
			if err != nil {
				return nil, err
			}
			violations = append(violations, found...)
		}
		if attempt >= o.attempts || !slices.ContainsFunc(results, func(res *Result) bool { return !res.Complete }) {
			for _, res := range results {
				res.Attempts, res.Violations = attempt, violations
			}
			return results, nil
		}
		for _, res := range results {
			res.Release() // re-executed: nothing reads this attempt's rows
		}
		r.RebuildTree()
		r.rec.Span(r.Sim.Now(), trace.KindRecovery, topology.BaseStation, -1, "", attempt)
	}
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
// harness uses the instant rebuild for determinism. The new tree steers
// around links whose reliable transfers exhausted their retransmissions
// since the tree was last healed — persistent link failure the transport
// itself detected — and consumes that record (see exhaustedLinks).
func (r *Runner) RebuildTree() {
	r.setTree(routing.BuildTreeAvoiding(r.Net.LiveNeighbors(), topology.BaseStation, exhaustedLinks(r.Net)))
	r.Net.ClearExhaustedLinks()
}

// setTree makes t the runner's routing tree, whether a rebuild or a
// mid-round repair produced it.
func (r *Runner) setTree(t *routing.Tree) {
	r.Tree = t
	r.treeDepth.Set(int64(t.MaxDepth))
}
