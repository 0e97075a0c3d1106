package sensjoin_test

import (
	"fmt"
	"log"

	"sensjoin"
)

// ExampleNetwork_Execute runs the paper's Q1 — the minimal distance
// between two points whose temperatures differ by more than a threshold
// — with SENS-Join and with the external join, and compares their
// communication costs.
func ExampleNetwork_Execute() {
	// A 500-node network at the paper's density (50 m radio range).
	net, err := sensjoin.NewNetwork(sensjoin.Config{Nodes: 500, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated %d nodes on %.0fx%.0f m, routing tree depth %d\n\n",
		net.Nodes(), net.Area().Width(), net.Area().Height(), net.TreeDepth())

	// The threshold is matched to the synthetic climate: the paper's
	// 10 degC would be empty on this mild field.
	const q1 = `
		SELECT MIN(distance(A.x, A.y, B.x, B.y))
		FROM Sensors A, Sensors B
		WHERE A.temp - B.temp > 6.0
		ONCE`
	res, err := net.Execute(q1, sensjoin.SENSJoin())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("minimal distance between a hot and a cold spot: %.1f m\n", res.Rows[0][0])
	fmt.Printf("%d of %d nodes contributed (%.1f%% — SENS-Join's sweet spot)\n\n",
		res.ContributingNodes, res.MemberNodes, 100*res.Fraction())

	sens := net.TotalPackets(sensjoin.SENSJoin())
	fmt.Println("SENS-Join cost by protocol step:")
	fmt.Print(net.PhaseTable())

	net.ResetStats()
	if _, err := net.Execute(q1, sensjoin.ExternalJoin()); err != nil {
		log.Fatal(err)
	}
	ext := net.TotalPackets(sensjoin.ExternalJoin())
	fmt.Printf("\nexternal join: %d packets\nSENS-Join:     %d packets  (%.0f%% saved)\n",
		ext, sens, 100*(1-float64(sens)/float64(ext)))
	// Output:
	// simulated 500 nodes on 606x606 m, routing tree depth 21
	//
	// minimal distance between a hot and a cold spot: 414.7 m
	// 13 of 500 nodes contributed (2.6% — SENS-Join's sweet spot)
	//
	// SENS-Join cost by protocol step:
	// filter-dissem                  40 packets        195 bytes
	// final-collect                  78 packets       2448 bytes
	// ja-collect                    500 packets       4665 bytes
	//
	// external join: 1305 packets
	// SENS-Join:     618 packets  (53% saved)
}

// Example_climate is the paper's Q2 (§I, Example 2): how humidity and
// pressure co-vary between nodes of similar temperature at least 100 m
// apart. It shows both regimes of the paper's Fig. 10. Q2 as written is a
// similarity join: on a dense network most nodes find a partner, the
// contributing fraction lands past the 60–80% break-even, and the
// external join wins. A selective variant (a large temperature contrast)
// puts the fraction in the single digits, where SENS-Join saves most of
// the communication and unburdens the relay nodes that decide the
// network's lifetime.
func Example_climate() {
	net, err := sensjoin.NewNetwork(sensjoin.Config{Nodes: 800, Seed: 21})
	if err != nil {
		log.Fatal(err)
	}
	for i, q := range []struct{ title, src string }{
		{"Q2 (similarity join, dense field)", `
			SELECT abs(A.hum - B.hum), abs(A.pres - B.pres)
			FROM Sensors A, Sensors B
			WHERE abs(A.temp - B.temp) < 0.3
			AND distance(A.x, A.y, B.x, B.y) > 100
			ONCE`},
		{"selective variant (strong temperature contrast)", `
			SELECT abs(A.hum - B.hum), abs(A.pres - B.pres)
			FROM Sensors A, Sensors B
			WHERE A.temp - B.temp > 10
			AND distance(A.x, A.y, B.x, B.y) > 100
			ONCE`},
	} {
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("--- %s ---\n", q.title)
		net.ResetStats()
		res, err := net.Execute(q.src, sensjoin.SENSJoin())
		if err != nil {
			log.Fatal(err)
		}
		sens := net.TotalPackets(sensjoin.SENSJoin())
		_, sensLoad := net.MaxLoadedNode(sensjoin.SENSJoin())

		net.ResetStats()
		if _, err := net.Execute(q.src, sensjoin.ExternalJoin()); err != nil {
			log.Fatal(err)
		}
		ext := net.TotalPackets(sensjoin.ExternalJoin())
		_, extLoad := net.MaxLoadedNode(sensjoin.ExternalJoin())

		fmt.Printf("%d pairs, %.1f%% of nodes contributing\n", len(res.Rows), 100*res.Fraction())
		var dh, dp float64
		for _, row := range res.Rows {
			dh += row[0]
			dp += row[1]
		}
		n := float64(len(res.Rows))
		fmt.Printf("matched pairs differ on average by %.2f%%RH and %.2f hPa\n", dh/n, dp/n)
		fmt.Printf("total packets: external %d vs sens-join %d", ext, sens)
		if sens < ext {
			fmt.Printf("  -> SENS-Join saves %.0f%%\n", 100*(1-float64(sens)/float64(ext)))
		} else {
			fmt.Printf("  -> past break-even, external join wins (paper Fig. 10)\n")
		}
		fmt.Printf("most loaded node: external %d vs sens-join %d packets (%.1fx)\n",
			extLoad, sensLoad, float64(extLoad)/float64(sensLoad))
	}
	// Output:
	// --- Q2 (similarity join, dense field) ---
	// 35422 pairs, 97.9% of nodes contributing
	// matched pairs differ on average by 4.22%RH and 0.24 hPa
	// total packets: external 3677 vs sens-join 5660  -> past break-even, external join wins (paper Fig. 10)
	// most loaded node: external 116 vs sens-join 185 packets (0.6x)
	//
	// --- selective variant (strong temperature contrast) ---
	// 235 pairs, 6.2% of nodes contributing
	// matched pairs differ on average by 9.11%RH and 0.65 hPa
	// total packets: external 3677 vs sens-join 1770  -> SENS-Join saves 52%
	// most loaded node: external 116 vs sens-join 47 packets (2.5x)
}

// ExampleNetwork_GroundTruth shows the oracle that every join method is
// tested against.
func ExampleNetwork_GroundTruth() {
	net, err := sensjoin.NewNetwork(sensjoin.Config{Nodes: 100, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	const q = `
		SELECT COUNT(A.temp) FROM Sensors A, Sensors B
		WHERE A.temp - B.temp > 5 ONCE`
	truth, err := net.GroundTruth(q)
	if err != nil {
		log.Fatal(err)
	}
	res, err := net.Execute(q, sensjoin.SENSJoin())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("oracle and protocol agree: %v\n", truth.Rows[0][0] == res.Rows[0][0])
	// Output:
	// oracle and protocol agree: true
}

// ExampleNetwork_Advise asks, before spending any energy, which join
// method should run a query — the paper's §IV-E join-location analysis
// as a planner — for three queries across the selectivity spectrum,
// checks each recommendation by running both methods, and then shows
// what the selective query will do (Explain).
func ExampleNetwork_Advise() {
	net, err := sensjoin.NewNetwork(sensjoin.Config{Nodes: 400, Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	queries := []struct{ name, src string }{
		{"rare extremes (selective)", `
			SELECT A.hum, B.hum FROM Sensors A, Sensors B
			WHERE A.temp - B.temp > 7.5 ONCE`},
		{"moderate contrast", `
			SELECT A.hum, B.hum FROM Sensors A, Sensors B
			WHERE A.temp - B.temp > 3 ONCE`},
		{"dense similarity (unselective)", `
			SELECT A.hum, B.hum FROM Sensors A, Sensors B
			WHERE abs(A.temp - B.temp) < 0.5 ONCE`},
	}
	for _, q := range queries {
		fmt.Printf("=== %s ===\n", q.name)
		adv, err := net.Advise(q.src)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("model: external ~%.0f packets, sens-join ~%.0f packets -> use %s\n",
			adv.PredictedExternal, adv.PredictedSENS, adv.Use)
		fmt.Printf("expected fraction %.1f%%, break-even near %.0f%%\n",
			100*adv.ExpectedFraction, 100*adv.BreakEvenFraction)

		net.ResetStats()
		if _, err := net.Execute(q.src, sensjoin.ExternalJoin()); err != nil {
			log.Fatal(err)
		}
		ext := net.TotalPackets(sensjoin.ExternalJoin())
		net.ResetStats()
		if _, err := net.Execute(q.src, sensjoin.SENSJoin()); err != nil {
			log.Fatal(err)
		}
		sens := net.TotalPackets(sensjoin.SENSJoin())
		actual := "external-join"
		if sens < ext {
			actual = "sens-join"
		}
		verdict := "correct"
		if actual != adv.Use {
			verdict = "WRONG (near break-even)"
		}
		fmt.Printf("actual: external %d, sens-join %d -> %s wins (model was %s)\n\n",
			ext, sens, actual, verdict)
	}

	plan, err := net.Explain(queries[0].src)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== plan of the selective query ===")
	fmt.Println(plan)
	// Output:
	// === rare extremes (selective) ===
	// model: external ~749 packets, sens-join ~400 packets -> use sens-join
	// expected fraction 0.0%, break-even near 56%
	// actual: external 749, sens-join 400 -> sens-join wins (model was correct)
	//
	// === moderate contrast ===
	// model: external ~749 packets, sens-join ~653 packets -> use sens-join
	// expected fraction 32.2%, break-even near 56%
	// actual: external 749, sens-join 650 -> sens-join wins (model was correct)
	//
	// === dense similarity (unselective) ===
	// model: external ~749 packets, sens-join ~918 packets -> use external-join
	// expected fraction 100.0%, break-even near 56%
	// actual: external 749, sens-join 902 -> external-join wins (model was correct)
	//
	// === plan of the selective query ===
	// query: SELECT A.hum, B.hum FROM Sensors A, Sensors B WHERE (A.temp - B.temp) > 7.5 ONCE
	//
	// relations (2):
	//   [0] Sensors AS A — 400 member nodes
	//       join attrs: [temp]   shipped attrs: [hum temp] (4 bytes/tuple)
	//   [1] Sensors AS B — 400 member nodes
	//       join attrs: [temp]   shipped attrs: [hum temp] (4 bytes/tuple)
	//
	// join conditions (1):
	//   (A.temp - B.temp) > 7.5  [band A.temp - B.temp ∈ [7.5, +Inf]]
	//
	// quantization grid (11 bits/key, 2 relation-flag bits):
	//   temp   [0, 40] step 0.1 -> 512 cells, 9 bits
	//   quadtree level schedule: [2 1 1 1 1 1 1 1 1 1]
	//
	// pre-computation on the current snapshot:
	//   members: 400 nodes, 41 distinct join-attribute keys
	//   raw join-attribute tuples: 800 bytes; quadtree: 25 bytes (3%)
	//   join filter: 0 keys (0.0% of distinct), 0 bytes encoded
}

// ExampleNetwork_ExecuteWithRecovery demonstrates the paper's §IV-F
// error handling. Cutting the routing-tree link above a relay silences
// its subtree; the execution detects the loss, and recovery is what the
// paper prescribes: the tree protocol re-establishes the routing
// structure and the query is re-executed. A dead node is healed around
// the same way.
func ExampleNetwork_ExecuteWithRecovery() {
	net, err := sensjoin.NewNetwork(sensjoin.Config{Nodes: 300, Seed: 99})
	if err != nil {
		log.Fatal(err)
	}
	const q = `
		SELECT A.temp, B.temp, distance(A.x, A.y, B.x, B.y)
		FROM Sensors A, Sensors B
		WHERE A.temp - B.temp > 5.0 ONCE`
	res, err := net.Execute(q, sensjoin.SENSJoin())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("healthy run: %d rows, complete=%v\n", len(res.Rows), res.Complete)

	victim := 42
	parent := net.RoutingParent(victim)
	if err := net.FailLink(victim, parent); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncutting routing link %d -> %d\n", victim, parent)
	res, err = net.Execute(q, sensjoin.SENSJoin())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("degraded run: %d rows, complete=%v (loss detected)\n", len(res.Rows), res.Complete)

	rec, err := net.ExecuteWithRecovery(q, sensjoin.SENSJoin(), 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrecovered after %d execution(s): %d rows, complete=%v\n",
		rec.Executions, len(rec.Rows), rec.Complete)
	truth, err := net.GroundTruth(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("oracle agrees: %d rows (match=%v)\n", len(truth.Rows), len(truth.Rows) == len(rec.Rows))

	if err := net.RestoreLink(victim, parent); err != nil {
		log.Fatal(err)
	}
	net.RepairRouting()
	if err := net.KillNode(victim); err != nil {
		log.Fatal(err)
	}
	net.RepairRouting()
	res, err = net.Execute(q, sensjoin.SENSJoin())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter node %d died and the tree re-formed: %d rows, complete=%v (surviving %d members)\n",
		victim, len(res.Rows), res.Complete, res.MemberNodes)
	// Output:
	// healthy run: 32 rows, complete=true
	//
	// cutting routing link 42 -> 114
	// degraded run: 32 rows, complete=false (loss detected)
	//
	// recovered after 2 execution(s): 32 rows, complete=true
	// oracle agrees: 32 rows (match=true)
	//
	// after node 42 died and the tree re-formed: 32 rows, complete=true (surviving 299 members)
}

// ExampleNetwork_Monitor runs a continuous SAMPLE PERIOD query (paper
// §III): every 60 simulated seconds it reports pairs of far-apart nodes
// whose temperatures differ by more than a threshold, an alarm for
// developing hot spots. Each round runs on the current snapshot, and the
// fields drift between rounds.
//
// The second half is the paper's §VIII follow-on idea: on temporally
// correlated fields (Config.QuietFields) consecutive rounds' join filters
// barely change, and ContinuousSENSJoin transmits only their deltas,
// every round still returning the exact snapshot result.
func ExampleNetwork_Monitor() {
	const alarm = `
		SELECT A.x, A.y, B.x, B.y, A.temp - B.temp
		FROM Sensors A, Sensors B
		WHERE A.temp - B.temp > %g
		AND distance(A.x, A.y, B.x, B.y) > 200
		SAMPLE PERIOD 60`
	const rounds = 8
	net, err := sensjoin.NewNetwork(sensjoin.Config{Nodes: 400, Seed: 33})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("monitoring %d nodes for %d rounds (60 s period)\n\n", net.Nodes(), rounds)
	fmt.Println("round  sim-time  alarms  contributing  packets")
	var total int64
	for i := 0; i < rounds; i++ {
		net.ResetStats()
		res, err := net.Monitor(fmt.Sprintf(alarm, 5.5), sensjoin.SENSJoin(), 1)
		if err != nil {
			log.Fatal(err)
		}
		packets := net.TotalPackets(sensjoin.SENSJoin())
		total += packets
		fmt.Printf("%5d  %7ds  %6d  %12d  %7d\n",
			i+1, 60*i, len(res[0].Rows), res[0].ContributingNodes, packets)
	}
	fmt.Printf("total: %d packets over %d rounds\n", total, rounds)

	// The quiet fields have a narrower spread; 4.5 degC puts ~12% of the
	// nodes in the result, squarely in SENS-Join territory. Each method
	// runs on its own copy of the network so that both see every round.
	quiet := sensjoin.Config{Nodes: 400, Seed: 33, QuietFields: true}
	fmt.Println("\nincremental filters on temporally correlated fields:")
	fmt.Println("round  plain-filter-packets  incremental-filter-packets")
	plain, incr := sensjoin.SENSJoin(), sensjoin.ContinuousSENSJoin()
	plainNet, err := sensjoin.NewNetwork(quiet)
	if err != nil {
		log.Fatal(err)
	}
	incrNet, err := sensjoin.NewNetwork(quiet)
	if err != nil {
		log.Fatal(err)
	}
	filterPackets := func(net *sensjoin.Network, m sensjoin.Method) int64 {
		net.ResetStats()
		if _, err := net.Monitor(fmt.Sprintf(alarm, 4.5), m, 1); err != nil {
			log.Fatal(err)
		}
		return net.PhasePackets("filter-dissem")
	}
	for i := 0; i < rounds; i++ {
		fmt.Printf("%5d  %20d  %26d\n", i+1, filterPackets(plainNet, plain), filterPackets(incrNet, incr))
	}
	// Output:
	// monitoring 400 nodes for 8 rounds (60 s period)
	//
	// round  sim-time  alarms  contributing  packets
	//     1        0s       0             0      595
	//     2       60s       1             2      667
	//     3      120s       0             0      595
	//     4      180s     250            53      794
	//     5      240s    2177           175     1071
	//     6      300s    1644           135     1024
	//     7      360s    8809           304     1365
	//     8      420s    8305           289     1334
	// total: 7445 packets over 8 rounds
	//
	// incremental filters on temporally correlated fields:
	// round  plain-filter-packets  incremental-filter-packets
	//     1                    67                          67
	//     2                    67                          44
	//     3                    68                          45
	//     4                    69                          41
	//     5                    71                          48
	//     6                    77                          49
	//     7                    89                          59
	//     8                    90                          64
}

// ExampleNetwork_DefineRelation joins across sensor relations on a
// heterogeneous network (paper §III: "groups of nodes form different
// relations"). The deployment is split into an indoor zone, the
// south-west quadrant (say a machine hall), and an outdoor zone; the
// query finds nearby indoor/outdoor pairs with equal temperatures, where
// the hall's insulation leaks. The relation flags inside the quadtree
// keys keep the two relations apart during the pre-computation.
func ExampleNetwork_DefineRelation() {
	net, err := sensjoin.NewNetwork(sensjoin.Config{Nodes: 600, Seed: 77})
	if err != nil {
		log.Fatal(err)
	}
	// Membership usually comes from deployment knowledge; here it comes
	// from each node's x/y attributes, read by the oracle. Its rows are
	// ordered by node id, from 1.
	pos, err := net.GroundTruth("SELECT S.x, S.y FROM Sensors S ONCE")
	if err != nil {
		log.Fatal(err)
	}
	half := net.Area().Width() / 2
	indoor := func(node int) bool {
		p := pos.Rows[node-1]
		return p[0] < half && p[1] < half
	}
	if err := net.DefineRelation("Indoor", indoor); err != nil {
		log.Fatal(err)
	}
	if err := net.DefineRelation("Outdoor", func(node int) bool { return !indoor(node) }); err != nil {
		log.Fatal(err)
	}

	res, err := net.Execute(`
		SELECT A.x, A.y, B.x, B.y, abs(A.temp - B.temp)
		FROM Indoor A, Outdoor B
		WHERE abs(A.temp - B.temp) < 0.05
		AND distance(A.x, A.y, B.x, B.y) < 120
		ONCE`, sensjoin.SENSJoin())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d suspected insulation leaks (nearby indoor/outdoor pairs with equal temperature)\n", len(res.Rows))
	for _, row := range res.Rows[:5] {
		fmt.Printf("  indoor (%4.0f,%4.0f) ~ outdoor (%4.0f,%4.0f), dT = %.3f degC\n",
			row[0], row[1], row[2], row[3], row[4])
	}
	fmt.Printf("... (%d more)\n", len(res.Rows)-5)
	fmt.Printf("\nmembers: %d nodes across both relations, %d contributed\n",
		res.MemberNodes, res.ContributingNodes)
	fmt.Printf("cost: %d packets (SENS-Join)\n", net.TotalPackets(sensjoin.SENSJoin()))
	// Output:
	// 33 suspected insulation leaks (nearby indoor/outdoor pairs with equal temperature)
	//   indoor (  58, 304) ~ outdoor ( 117, 370), dT = 0.011 degC
	//   indoor (  25, 309) ~ outdoor (  25, 337), dT = 0.023 degC
	//   indoor (  25, 309) ~ outdoor (  89, 409), dT = 0.043 degC
	//   indoor (  25, 309) ~ outdoor (  76, 383), dT = 0.027 degC
	//   indoor (  64, 331) ~ outdoor ( 158, 377), dT = 0.031 degC
	// ... (28 more)
	//
	// members: 600 nodes across both relations, 41 contributed
	// cost: 1314 packets (SENS-Join)
}
