package core

import (
	"math"
	"slices"
	"testing"
	"time"

	"sensjoin/internal/geom"
	"sensjoin/internal/netsim"
	"sensjoin/internal/topology"
	"sensjoin/internal/trace"
)

// Under reliable transport and substantial loss, both methods must
// deliver the exact ground truth with a complete verdict, with the
// retransmissions visible in the per-phase accounting and every audit
// pass clean.
func TestReliableLossExactAndComplete(t *testing.T) {
	for _, loss := range []float64{0.05, 0.10} {
		for _, m := range []Method{NewSENSJoin(), External{}} {
			r := testRunner(t, 300, 91)
			x, err := execSQL(r, qBand(0.4), 0)
			if err != nil {
				t.Fatal(err)
			}
			truth, err := GroundTruth(x)
			if err != nil {
				t.Fatal(err)
			}
			res, err := r.Run(qBand(0.4), m, 0, WithReliable(netsim.ReliableConfig{}), WithLoss(loss, 424242), Audited())
			if err != nil {
				t.Fatalf("%s at loss %g: %v", m.Name(), loss, err)
			}
			if v := res.Violations; len(v) > 0 {
				t.Fatalf("%s at loss %g: %d audit violation(s), first: %s", m.Name(), loss, len(v), v[0])
			}
			if !res.Complete {
				t.Fatalf("%s at loss %g: incomplete (reason %q, missing %v)",
					m.Name(), loss, res.IncompleteReason, res.MissingSubtrees)
			}
			sameTable(t, truth, res, m.Name())
			if r.Stats.TotalRetx() == 0 {
				t.Fatalf("%s at loss %g: no retransmissions recorded", m.Name(), loss)
			}
			if r.Stats.TotalAck() == 0 {
				t.Fatalf("%s at loss %g: no ACKs recorded", m.Name(), loss)
			}
		}
	}
}

// A permanently jammed down-link makes filter dissemination to a subtree
// impossible: the transfer gives up, the subtree stands down and scoped
// recovery re-requests it every round. With the link never healing the
// result stays incomplete, but the verdict must say exactly what is
// missing — and the whole run must still audit clean.
func TestFilterStandDownForcesSubtreeRecovery(t *testing.T) {
	// 12-node chain: long enough that only the tail is Treecut and a real
	// filter travels down through nodes 1..9.
	r := runnerOn(topology.Line(12, 40, 50))
	rec := trace.New()
	// Jam the down-direction of the 1→2 tree edge only: phase A (child to
	// parent) is untouched, the filter and every re-request give up.
	r.Net.SetLinkLossRate(1, 2, 1.0)
	// The audit journals into rec, which keeps the journal for inspection.
	res, err := r.Run(qBand(10), NewSENSJoin(), 0, WithReliable(netsim.ReliableConfig{}), Traced(rec), Audited())
	if err != nil {
		t.Fatal(err)
	}
	violations := res.Violations
	if len(violations) != 0 {
		t.Fatalf("audit violations on a jammed-link run: %v", violations)
	}
	if res.Complete {
		t.Fatal("subtree behind a jammed link cannot be complete")
	}
	if res.RecoveryRounds != maxRecoveryRounds {
		t.Fatalf("RecoveryRounds = %d, want %d", res.RecoveryRounds, maxRecoveryRounds)
	}
	if len(res.MissingSubtrees) != 1 || res.MissingSubtrees[0] != 2 {
		t.Fatalf("MissingSubtrees = %v, want [2]", res.MissingSubtrees)
	}
	if res.IncompleteReason != ReasonLoss {
		t.Fatalf("IncompleteReason = %q, want %q", res.IncompleteReason, ReasonLoss)
	}
	standDown := false
	for _, ev := range rec.Journal().Events {
		if ev.Kind == trace.KindStandDown {
			standDown = true
		}
	}
	if !standDown {
		t.Fatal("filter give-up did not journal a stand-down")
	}
}

// Scoped recovery after a transient outage: a link is down while the
// subtree should report and comes back before recovery runs, so the
// re-request path works and the round recovers exactly the missing data.
func TestScopedRecoveryHealsTransientOutage(t *testing.T) {
	r := testRunner(t, 150, 95)
	child, parent := failLink(r)
	// The up-link dies at query start and heals shortly after: the
	// subtree misses its collection slots, recovery re-requests it.
	r.Net.SetLinkLossRate(child, parent, 1.0)
	healed := false
	var heal func()
	heal = func() {
		// Heal once the outage has bitten (the subtree's transfer
		// exhausted its retransmissions); the subtree's slot has passed
		// by then, so only scoped recovery can bring its data in.
		if r.Net.GiveUps > 0 {
			r.Net.SetLinkLossRate(child, parent, 0)
			healed = true
			return
		}
		r.Sim.Schedule(r.Sim.Now()+5, heal)
	}
	r.Sim.Schedule(5, heal)
	x, err := execSQL(r, qBand(10), 0)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := GroundTruth(x)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(qBand(10), NewSENSJoin(), 0, WithReliable(netsim.ReliableConfig{}), Audited())
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Violations; len(v) > 0 {
		t.Fatalf("%d audit violation(s), first: %s", len(v), v[0])
	}
	if !healed {
		t.Fatal("link never exhausted a transfer; outage did not bite")
	}
	if res.RecoveryRounds == 0 {
		t.Fatal("expected at least one scoped-recovery round")
	}
	if !res.Complete {
		t.Fatalf("recovery did not complete the result (reason %q, missing %v)",
			res.IncompleteReason, res.MissingSubtrees)
	}
	sameTable(t, truth, res, "recovered")
	if r.Stats.TotalTx(PhaseRecovery) == 0 {
		t.Fatal("recovery traffic was not charged under its phase")
	}
}

// TestWithRecoveryGiveUpSurfacesReason: when no rebuild can reach a
// partitioned contributor, WithRecovery stops after exactly its maximum
// number of attempts, and every member of the round says why it is
// incomplete and names the partitioned node as a missing subtree.
func TestWithRecoveryGiveUpSurfacesReason(t *testing.T) {
	for _, lane := range roundSpellings() {
		t.Run(lane.name, func(t *testing.T) {
			r := testRunner(t, 100, 79)
			var victim topology.NodeID = -1
			for i := 1; i < r.Dep.N(); i++ {
				if r.Tree.Depth[i] >= 2 && r.Tree.Descendants[i] == 0 {
					victim = topology.NodeID(i)
					break
				}
			}
			if victim < 0 {
				t.Skip("no leaf victim found")
			}
			for _, nb := range r.Dep.Neighbors[victim] {
				r.Net.LinkDown(victim, nb)
			}
			// qBand(10) and qBand(11) join everything, so the partitioned
			// node is a needed contributor on every attempt.
			results, err := lane.run(r, []string{qBand(10), qBand(11)}[:lane.members], WithRecovery(2))
			if err != nil {
				t.Fatal(err)
			}
			for j, res := range results {
				if res.Attempts != 2 {
					t.Fatalf("member %d: Attempts = %d, want exactly the maximum 2", j, res.Attempts)
				}
				if res.Complete {
					t.Fatalf("member %d: partitioned contributor cannot yield a complete result", j)
				}
				if res.IncompleteReason != ReasonPartition {
					t.Fatalf("member %d: IncompleteReason = %q, want %q", j, res.IncompleteReason, ReasonPartition)
				}
				if !slices.Contains(res.MissingSubtrees, victim) {
					t.Fatalf("member %d: MissingSubtrees = %v does not name the victim %d", j, res.MissingSubtrees, victim)
				}
			}
		})
	}
}

// A dead relay takes its subtree's data with it; the verdict must call
// that a dead subtree, not a recoverable loss.
func TestIncompleteReasonDeadSubtree(t *testing.T) {
	r := testRunner(t, 120, 83)
	var victim topology.NodeID = -1
	for i := 1; i < r.Dep.N(); i++ {
		if r.Tree.Depth[i] == 1 && r.Tree.Descendants[i] > 5 {
			victim = topology.NodeID(i)
			break
		}
	}
	if victim < 0 {
		t.Skip("no suitable relay")
	}
	r.Sim.Schedule(0.5, func() { r.Net.KillNode(victim) })
	res, err := r.Run(qBand(10), NewSENSJoin(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete {
		t.Fatal("mid-execution relay death must surface as incomplete")
	}
	if res.IncompleteReason != ReasonDeadSubtree {
		t.Fatalf("IncompleteReason = %q, want %q", res.IncompleteReason, ReasonDeadSubtree)
	}
}

// chainFan is a chain of relays 1..relays 40 m apart from the base
// station, ending in a fan of branches: branch b's nodes run outward from
// the last relay, each 40 m past the one before. Links reach 50 m and the
// branches fan 60° apart, so a branch's first node hears the last relay,
// its neighbours in the fan and its own successor, and nothing else.
func chainFan(relays, branches, length int) *topology.Deployment {
	pos := make([]geom.Point, 0, 1+relays+branches*length)
	for i := 0; i <= relays; i++ {
		pos = append(pos, geom.Point{X: 40 * float64(i)})
	}
	end := pos[relays]
	for b := 0; b < branches; b++ {
		angle := (float64(b) - float64(branches-1)/2) * math.Pi / 3
		for j := 1; j <= length; j++ {
			pos = append(pos, geom.Point{X: end.X + 40*float64(j)*math.Cos(angle), Y: 40 * float64(j) * math.Sin(angle)})
		}
	}
	d := &topology.Deployment{Pos: pos, Range: 50, Area: geom.Rect{MinX: -1, MinY: -200, MaxX: end.X + 200, MaxY: 200}}
	d.Neighbors = make([][]topology.NodeID, len(pos))
	for i := range pos {
		for k := range pos {
			if i != k && geom.Dist2(pos[i], pos[k]) <= d.Range*d.Range {
				d.Neighbors[i] = append(d.Neighbors[i], topology.NodeID(k))
			}
		}
	}
	return d
}

// chainFanRound sets up a reliable-transport round on chainFan(20, 4, 3)
// whose every node is a member. Branch b's nodes are 21+3b, 22+3b, 23+3b.
func chainFanRound(t *testing.T) (*Runner, *Exec, *plan) {
	t.Helper()
	r := runnerOn(chainFan(20, 4, 3))
	r.Net.EnableReliable(netsim.ReliableConfig{})
	x, err := execSQL(r, qBand(10), 0)
	if err != nil {
		t.Fatal(err)
	}
	p := buildPlan(x)
	for id := 21; id < x.Dep.N(); id++ {
		if p.nodes[id].flags == 0 || x.Tree.Depth[id] != 20+(id-21)%3+1 {
			t.Fatalf("node %d: flags %b at depth %d, want a member at the end of the chain", id, p.nodes[id].flags, x.Tree.Depth[id])
		}
	}
	return r, x, p
}

// recoveredIDs returns the owners of tuples, ascending, failing on a
// tuple listed twice.
func recoveredIDs(t *testing.T, tuples []finalTuple) []topology.NodeID {
	t.Helper()
	var ids []topology.NodeID
	for _, tu := range tuples {
		ids = append(ids, tu.node)
	}
	slices.Sort(ids)
	if len(slices.Compact(slices.Clone(ids))) != len(ids) {
		t.Fatalf("a tuple is listed more than once: %v", ids)
	}
	return ids
}

// Four branches re-requested as four subtrees share one 20-relay path to
// the base station: every relay forwards four deliveries. Recovery lists
// each branch tuple exactly once and nothing else, and does it at once —
// a gather that walked a relay once per delivery it forwarded would visit
// 4^20 nodes.
func TestRecoveryListsEachTupleOnceThroughSharedRelays(t *testing.T) {
	_, x, p := chainFanRound(t)
	roots := []topology.NodeID{21, 24, 27, 30}
	began := time.Now()
	got := recoveredIDs(t, recoverRound(x, p, roots))
	if took := time.Since(began); took > time.Second {
		t.Fatalf("recovery took %v", took)
	}
	var want []topology.NodeID
	for id := 21; id < x.Dep.N(); id++ {
		want = append(want, topology.NodeID(id))
	}
	if !slices.Equal(got, want) {
		t.Fatalf("recovered %v, want the branch nodes %v", got, want)
	}
}

// A relay above the subtrees forwards each delivery on its own, so one
// forward can be lost while the next arrives. Only the subtree whose
// forward reached the base station is recovered: here the last relay's
// forward of subtree 25 (which ships a slot earlier, one level deeper)
// gives up on a jammed link, the link heals, and its forward of subtree
// 21 gets through.
func TestRecoveryCountsOnlyDeliveredForwards(t *testing.T) {
	r, x, p := chainFanRound(t)
	roots := []topology.NodeID{21, 25}
	// recoverRound's wave begins once the deepest re-request (22 hops)
	// had time to arrive; the jam starts there, after every re-request.
	waveStart := r.Sim.Now() + 23*r.Net.SlotFor(2+2*x.Tree.MaxDepth)
	deadline := waveStart + float64(x.Tree.MaxDepth+1)*collectionSlot(x, p)
	healed := false
	var heal func()
	heal = func() {
		if r.Net.GiveUps > 0 {
			r.Net.SetLinkLossRate(20, 19, 0)
			healed = true
		} else if r.Sim.Now() < deadline {
			r.Sim.Schedule(r.Sim.Now()+1e-3, heal)
		}
	}
	r.Sim.Schedule(waveStart, func() {
		r.Net.SetLinkLossRate(20, 19, 1)
		heal()
	})
	got := recoveredIDs(t, recoverRound(x, p, roots))
	if !healed {
		t.Fatal("no forward gave up on the jammed link")
	}
	if want := []topology.NodeID{21, 22, 23}; !slices.Equal(got, want) {
		t.Fatalf("recovered %v, want subtree 21 only %v", got, want)
	}
}
