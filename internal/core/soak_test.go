package core

import (
	"math/rand"
	"testing"

	"sensjoin/internal/netsim"
	"sensjoin/internal/topology"
)

// Soak: a long continuous-monitoring run with random link failures,
// repairs, node deaths/revivals and packet loss injected between rounds.
// Every round must terminate, a round claiming Complete must match the
// oracle exactly, and the incremental mode's cross-round state must
// never corrupt a result — the strongest end-to-end robustness check in
// the repository.
func TestSoakContinuousWithChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	r := testRunner(t, 200, 1001)
	r.AutoAudit = true // every round self-audits; violations fail the round
	rng := rand.New(rand.NewSource(77))
	m := NewContinuousSENSJoin()
	src := qBand(0.4)

	type failure struct{ a, b topology.NodeID }
	var downLinks []failure
	var deadNodes []topology.NodeID

	const rounds = 30
	completeRounds := 0
	for round := 0; round < rounds; round++ {
		tm := float64(round) * 45

		// Chaos: flip some state between rounds.
		switch rng.Intn(6) {
		case 0: // cut a random tree edge
			v := topology.NodeID(1 + rng.Intn(r.Dep.N()-1))
			if p := r.Tree.Parent[v]; p >= 0 {
				r.Net.LinkDown(v, p)
				downLinks = append(downLinks, failure{v, p})
			}
		case 1: // restore a failed link
			if len(downLinks) > 0 {
				f := downLinks[len(downLinks)-1]
				downLinks = downLinks[:len(downLinks)-1]
				r.Net.LinkUp(f.a, f.b)
			}
		case 2: // kill a node
			v := topology.NodeID(1 + rng.Intn(r.Dep.N()-1))
			r.Net.KillNode(v)
			deadNodes = append(deadNodes, v)
		case 3: // revive a node
			if len(deadNodes) > 0 {
				r.Net.ReviveNode(deadNodes[len(deadNodes)-1])
				deadNodes = deadNodes[:len(deadNodes)-1]
			}
		case 4: // transient packet loss
			r.Net.SetLossRate(0.02, int64(round))
		default: // calm round
			r.Net.SetLossRate(0, 0)
		}
		r.RebuildTree() // the tree protocol heals between rounds

		res, err := r.Run(src, m, tm)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if res.Complete {
			completeRounds++
			// A complete claim must be the exact oracle result for the
			// surviving network.
			x, err := execSQL(r, src, tm)
			if err != nil {
				t.Fatal(err)
			}
			truth, err := GroundTruth(x)
			if err != nil {
				t.Fatal(err)
			}
			sameTable(t, truth, res, "soak-round")
		}
	}
	if completeRounds < rounds/3 {
		t.Fatalf("only %d of %d rounds complete — chaos should not dominate", completeRounds, rounds)
	}
	if m.Rounds() != rounds {
		t.Fatalf("Rounds = %d, want %d", m.Rounds(), rounds)
	}
	t.Logf("soak: %d/%d rounds complete under chaos", completeRounds, rounds)
}

// The same soak against the external join: the baseline must be equally
// robust (termination + honest completeness).
func TestSoakExternalWithLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	r := testRunner(t, 150, 1003)
	r.AutoAudit = true
	for round := 0; round < 15; round++ {
		r.Net.SetLossRate(0.01*float64(round%4), int64(round))
		res, err := r.Run(qBand(0.4), External{}, float64(round)*30)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if res.Complete && round%4 != 0 {
			// Loss was active; completeness is possible but must then be
			// genuine: the oracle's table.
			x, _ := execSQL(r, qBand(0.4), float64(round)*30)
			truth, err := GroundTruth(x)
			if err != nil {
				t.Fatal(err)
			}
			sameTable(t, truth, res, "complete lossy round")
		}
	}
}

// Soak with reliable transport: chaos plus loss injected *during* the
// rounds (global rate changes and per-link bursts scheduled mid-round).
// Reliable delivery and scoped recovery must keep most rounds complete,
// every complete round must be oracle-exact, and every round must pass
// all audit passes (AutoAudit turns violations into errors).
func TestSoakReliableWithChaosLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	r := testRunner(t, 150, 1005)
	r.AutoAudit = true
	r.EnableReliableTransport(netsim.ReliableConfig{})
	rng := rand.New(rand.NewSource(79))
	m := NewContinuousSENSJoin()
	src := qBand(0.4)

	var deadNodes []topology.NodeID
	const rounds = 20
	completeRounds := 0
	for round := 0; round < rounds; round++ {
		tm := float64(round) * 60
		r.Net.SetLossRate(0.02+0.02*float64(rng.Intn(4)), int64(1000+round))

		// Mid-round chaos: schedule loss changes to hit while the round's
		// phases are in flight, not just between rounds.
		now := r.Sim.Now()
		r.Sim.Schedule(now+2+rng.Float64()*20, func() {
			r.Net.SetLossRate(0.05+0.05*float64(rng.Intn(3)), int64(2000+round))
		})
		// A per-link loss burst on a random tree edge, healed a little
		// later the same round.
		v := topology.NodeID(1 + rng.Intn(r.Dep.N()-1))
		if p := r.Tree.Parent[v]; p >= 0 {
			r.Sim.Schedule(now+5+rng.Float64()*10, func() {
				r.Net.SetLinkLossRate(v, p, 0.9)
				r.Net.SetLinkLossRate(p, v, 0.9)
			})
			r.Sim.Schedule(now+40+rng.Float64()*20, func() {
				r.Net.SetLinkLossRate(v, p, 0)
				r.Net.SetLinkLossRate(p, v, 0)
			})
		}
		if round%5 == 3 { // occasionally kill a node for a round
			d := topology.NodeID(1 + rng.Intn(r.Dep.N()-1))
			r.Net.KillNode(d)
			deadNodes = append(deadNodes, d)
		} else if len(deadNodes) > 0 {
			r.Net.ReviveNode(deadNodes[len(deadNodes)-1])
			deadNodes = deadNodes[:len(deadNodes)-1]
		}
		r.RebuildTree()

		res, err := r.Run(src, m, tm)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if res.Complete {
			completeRounds++
			x, err := execSQL(r, src, tm)
			if err != nil {
				t.Fatal(err)
			}
			truth, err := GroundTruth(x)
			if err != nil {
				t.Fatal(err)
			}
			sameTable(t, truth, res, "reliable-soak-round")
		}
	}
	if completeRounds < rounds/2 {
		t.Fatalf("only %d of %d rounds complete — reliable transport should ride out loss", completeRounds, rounds)
	}
	t.Logf("reliable soak: %d/%d rounds complete under chaos loss", completeRounds, rounds)
}
