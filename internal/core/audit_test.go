package core

import (
	"math"
	"testing"

	"sensjoin/internal/netsim"
	"sensjoin/internal/stats"
	"sensjoin/internal/topology"
	"sensjoin/internal/trace"
)

// Clean executions of every join method must pass all audit passes with
// zero violations — conservation, reconciliation, slot ordering and (for
// filter-based methods) filter soundness.
func TestAuditRunCleanMethods(t *testing.T) {
	for _, m := range []Method{NewSENSJoin(), External{}, Mediated{}, SemiJoin{}} {
		t.Run(m.Name(), func(t *testing.T) {
			r := testRunner(t, 120, 42)
			rec := trace.New()
			res, err := r.Run(qBand(0.4), m, 0, Traced(rec), Audited())
			if err != nil {
				t.Fatal(err)
			}
			violations := res.Violations
			if len(violations) != 0 {
				t.Fatalf("clean %s run: %d violation(s), first: %s", m.Name(), len(violations), violations[0])
			}
			if res == nil || !res.Complete {
				t.Fatalf("clean %s run incomplete", m.Name())
			}
			if len(rec.Journal().Events) == 0 {
				t.Fatal("audited run recorded no events")
			}
		})
	}
}

// Audited results must be identical to unaudited ones: tracing is
// observation, not interference.
func TestAuditRunMatchesPlainRun(t *testing.T) {
	plain := testRunner(t, 120, 42)
	audited := testRunner(t, 120, 42)
	want, err := plain.Run(qBand(0.4), NewSENSJoin(), 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := audited.Run(qBand(0.4), NewSENSJoin(), 0, Audited())
	if err != nil {
		t.Fatal(err)
	}
	violations := got.Violations
	if len(violations) != 0 {
		t.Fatalf("violations: %v", violations)
	}
	sameTable(t, want, got, "audited")
	if want.ResponseTime != got.ResponseTime {
		t.Fatalf("ResponseTime %g != %g — tracing changed timing", got.ResponseTime, want.ResponseTime)
	}
	if plain.Stats.TotalTxBytes() != audited.Stats.TotalTxBytes() {
		t.Fatalf("TotalTxBytes %d != %d — tracing changed traffic",
			audited.Stats.TotalTxBytes(), plain.Stats.TotalTxBytes())
	}
}

// Fault-injected executions (packet loss, failed links, dead nodes) must
// still audit clean: the auditors understand the fault model, so losses
// explain gaps instead of raising violations.
func TestAuditRunWithFaultsPasses(t *testing.T) {
	r := testRunner(t, 120, 43)
	r.Net.LinkDown(5, r.Tree.Parent[5])
	r.Net.KillNode(17)
	r.RebuildTree()
	for _, m := range []Method{NewSENSJoin(), External{}} {
		res, err := r.Run(qBand(0.4), m, 0, WithLoss(0.05, 7), Audited())
		if err != nil {
			t.Fatal(err)
		}
		violations := res.Violations
		if len(violations) != 0 {
			t.Fatalf("faulty %s run: %d violation(s), first: %s", m.Name(), len(violations), violations[0])
		}
	}
}

// An audit no caller keeps the journal of runs in the runner's own
// recorder, emptied after every audit, so audited soaks stay bounded.
func TestAuditedContinuousRoundsBounded(t *testing.T) {
	r := testRunner(t, 100, 44)
	m := NewContinuousSENSJoin()
	for round := 0; round < 3; round++ {
		res, err := r.Run(qBand(0.4), m, float64(round)*30, Audited())
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(res.Violations) != 0 {
			t.Fatalf("round %d: %v", round, res.Violations)
		}
	}
	if r.auditRec == nil {
		t.Fatal("the audits journaled nowhere")
	}
	if n := r.auditRec.Mark(); n != 0 {
		t.Fatalf("the runner's recorder holds %d events after audited rounds; want 0 (truncated)", n)
	}
	if r.rec != nil {
		t.Fatal("a recorder is still armed between executions")
	}
}

// The churn-safety pass compares a result with its oracle through the
// table digest, over the cells' bits: a NaN equals the same NaN, and -0
// is not +0. An audited round of a query whose cells are NaN, ±Inf and
// -0 therefore stays clean; under == every NaN row failed it.
func TestAuditedNonFiniteCellsClean(t *testing.T) {
	r := testRunner(t, 100, 3)
	r.AttachChurn(netsim.ChurnConfig{Rate: 0}) // gives the round its oracles
	res, err := r.Run(`SELECT A.temp / (B.temp - B.temp), (B.temp - B.temp) / (B.temp - B.temp),
		(B.temp - B.temp) * -1, -A.temp / (B.temp - B.temp), A.temp
		FROM Sensors A, Sensors B WHERE A.temp - B.temp > 6 ONCE`, NewSENSJoin(), 0, Audited())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	if !res.Complete || len(res.Rows) == 0 || !math.IsNaN(res.Rows[0][1]) {
		t.Fatalf("complete=%t, %d rows: the round did not produce the non-finite cells", res.Complete, len(res.Rows))
	}
}

// Planted violations on journals from real executions must be flagged:
// the auditors work end-to-end, not just on synthetic event lists.
func TestAuditFlagsPlantedViolations(t *testing.T) {
	r := testRunner(t, 100, 45)
	rec := trace.New()
	before := r.Stats.Snapshot()
	if _, err := r.Run(qBand(0.4), NewSENSJoin(), 0, Traced(rec)); err != nil {
		t.Fatal(err)
	}
	after := r.Stats.Snapshot()
	j := rec.Journal()

	// Plant 1: erase one delivery — conservation must see the tx with a
	// missing outcome.
	tampered := &trace.Journal{Events: make([]trace.Event, 0, len(j.Events))}
	dropped := false
	for _, ev := range j.Events {
		if !dropped && ev.Kind == trace.KindRx {
			dropped = true
			continue
		}
		tampered.Events = append(tampered.Events, ev)
	}
	if !dropped {
		t.Fatal("no rx event to erase")
	}
	if v := trace.Conservation(tampered); len(v) == 0 {
		t.Fatal("erased delivery not flagged by conservation audit")
	}
	if v := trace.Conservation(j); len(v) != 0 {
		t.Fatalf("untampered journal flagged: %v", v)
	}

	// Plant 2: a stats collector that missed the run — reconciliation
	// must flag every phase with traffic.
	if v := trace.Reconcile(j, before, after); len(v) != 0 {
		t.Fatalf("honest stats flagged: %v", v)
	}
	if v := trace.Reconcile(j, before, before); len(v) == 0 {
		t.Fatal("stats that missed the run not flagged by reconciliation audit")
	}

	// Plant 3: swap a tx to the base station's identity at time zero —
	// the root transmitting before its children violates slot order.
	planted := &trace.Journal{Events: append([]trace.Event{{
		Kind: trace.KindTx, Node: topology.BaseStation, Phase: PhaseJACollect, At: 0, MsgID: -1,
	}}, j.Events...)}
	// Strip spans so the whole journal is one slot-order segment.
	var flat []trace.Event
	for _, ev := range planted.Events {
		if ev.Kind.Radio() {
			flat = append(flat, ev)
		}
	}
	if v := trace.SlotOrder(&trace.Journal{Events: flat}, r.Tree, []string{PhaseJACollect}); len(v) == 0 {
		t.Fatal("root-before-children tx not flagged by slot-order audit")
	}
}

// An incomplete run followed by tree repair must leave a recovery span
// in the journal.
func TestRunWithRecoveryEmitsRecoverySpan(t *testing.T) {
	r := testRunner(t, 100, 46)
	rec := trace.New()
	// Kill a mid-tree node so the first attempt is incomplete.
	var victim topology.NodeID = -1
	for id := 1; id < r.Dep.N(); id++ {
		if r.Tree.Depth[id] == 1 {
			victim = topology.NodeID(id)
			break
		}
	}
	if victim < 0 {
		t.Skip("no depth-1 node")
	}
	r.Net.KillNode(victim)
	res, err := r.Run(qBand(0.4), NewSENSJoin(), 0, WithRecovery(2), Traced(rec))
	if err != nil {
		t.Fatal(err)
	}
	attempts := res.Attempts
	if res.Complete && attempts == 1 {
		t.Skip("victim's death did not make the run incomplete")
	}
	found := false
	for _, ev := range rec.Journal().Events {
		if ev.Kind == trace.KindRecovery {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no recovery span after tree repair")
	}
}

// compile-time check that stats.Snapshot stays usable from this package.
var _ = stats.Snapshot{}
