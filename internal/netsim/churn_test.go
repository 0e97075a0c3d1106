package netsim

import (
	"fmt"
	"slices"
	"testing"

	"sensjoin/internal/metrics"
	"sensjoin/internal/topology"
)

// churnRun drives one injector over a deployment for several Cover/Run
// windows on the given number of regions and returns every observable:
// event log, counters, aliveness and live-degree vector after each
// window.
func churnRun(dep *topology.Deployment, cfg ChurnConfig, windows int, window Time, shards int) string {
	sim := NewSim()
	sim.EnableSharding(PartitionStrips(dep, shards), shards, DefaultRadio().AirTime(1, 0), 2)
	net := NewNetwork(sim, dep, DefaultRadio(), nil)
	ch := NewChurn(net, cfg)
	out := ""
	ch.OnEvent = func(ev ChurnEvent) {
		out += fmt.Sprintf("ev %.3f k=%d n=%d a=%d\n", ev.At, ev.Kind, ev.Node, ev.Arg)
	}
	for w := 0; w < windows; w++ {
		until := Time(w+1) * window
		ch.Cover(until)
		sim.RunUntil(until)
		alive, links := 0, 0
		for i := 0; i < dep.N(); i++ {
			if net.Alive(NodeID(i)) {
				alive++
			}
		}
		for _, nb := range net.LiveNeighbors() {
			links += len(nb)
		}
		out += fmt.Sprintf("w%d alive=%d links=%d\n", w, alive, links)
	}
	out += fmt.Sprintf("deaths=%d rejoins=%d moves=%d flaps=%d ticks=%d\n",
		ch.Deaths, ch.Rejoins, ch.Moves, ch.LinkFlaps, ch.Ticks)
	return out
}

func TestChurnDeterministicReplay(t *testing.T) {
	dep := topology.Grid(8, 8, 35, 50)
	cfg := ChurnConfig{Seed: 7, Rate: 0.10, Epoch: 10, Speed: 4}
	a := churnRun(dep, cfg, 5, 60, 1)
	b := churnRun(dep, cfg, 5, 60, 1)
	if a != b {
		t.Fatalf("same-seed churn runs diverged:\n%s\nvs\n%s", a, b)
	}
	if c := churnRun(dep, ChurnConfig{Seed: 8, Rate: 0.10, Epoch: 10, Speed: 4}, 5, 60, 1); c == a {
		t.Fatalf("different seeds produced identical churn")
	}
}

func TestChurnActuallyChurns(t *testing.T) {
	dep := topology.Grid(8, 8, 35, 50)
	sim := NewSim()
	net := NewNetwork(sim, dep, DefaultRadio(), nil)
	ch := NewChurn(net, ChurnConfig{Seed: 3, Rate: 0.20, Epoch: 10, Speed: 5})
	ch.Cover(600)
	sim.RunUntil(600)
	if ch.Deaths == 0 || ch.Rejoins == 0 || ch.LinkFlaps == 0 {
		t.Fatalf("sustained 20%% churn produced deaths=%d rejoins=%d flaps=%d; expected all > 0",
			ch.Deaths, ch.Rejoins, ch.LinkFlaps)
	}
	if !net.Alive(topology.BaseStation) {
		t.Fatalf("churn killed the base station")
	}
	if ch.Ticks != 60 {
		t.Fatalf("expected 60 ticks over 600s at epoch 10, got %d", ch.Ticks)
	}
}

// Ticks sit on the k×Epoch grid exactly — also for an epoch that is not
// a binary fraction, where adding it up tick by tick drifts — and the
// instants do not depend on how Cover calls slice the horizon.
func TestChurnTicksOnIntegerGrid(t *testing.T) {
	const epoch, ticks = 0.1, 1000
	instants := func(untils ...Time) []Time {
		sim := NewSim()
		net := NewNetwork(sim, topology.Grid(3, 3, 35, 50), DefaultRadio(), nil)
		ch := NewChurn(net, ChurnConfig{Seed: 1, Epoch: epoch})
		for _, until := range untils {
			ch.Cover(until)
		}
		// Nothing has run: the queue holds the scheduled ticks only.
		var at []Time
		for _, e := range sim.coord {
			at = append(at, e.t)
		}
		slices.Sort(at)
		return at
	}
	whole := instants(100.05)
	if len(whole) != ticks {
		t.Fatalf("%d ticks scheduled up to 100.05 at epoch %g, want %d", len(whole), epoch, ticks)
	}
	for i, at := range whole {
		if want := Time(i+1) * epoch; at != want {
			t.Fatalf("tick %d at %v, want %v exactly", i+1, at, want)
		}
	}
	sliced := instants(0.37, 1, 1.05, 33.3, 33.3, 20, 77.77, 100.05)
	if !slices.Equal(sliced, whole) {
		t.Fatalf("uneven Cover slices moved the ticks: %d instants, want the %d of one Cover call", len(sliced), len(whole))
	}
}

func TestChurnZeroRateDrawsNothing(t *testing.T) {
	dep := topology.Grid(6, 6, 35, 50)
	sim := NewSim()
	net := NewNetwork(sim, dep, DefaultRadio(), nil)
	ch := NewChurn(net, ChurnConfig{Seed: 3, Rate: 0, Epoch: 10})
	ch.Cover(300)
	sim.RunUntil(300)
	if ch.Deaths+ch.Rejoins+ch.Moves+ch.LinkFlaps != 0 {
		t.Fatalf("rate-0 churn changed state: deaths=%d rejoins=%d moves=%d flaps=%d",
			ch.Deaths, ch.Rejoins, ch.Moves, ch.LinkFlaps)
	}
	for i := 0; i < dep.N(); i++ {
		if !net.Alive(NodeID(i)) {
			t.Fatalf("rate-0 churn killed node %d", i)
		}
	}
}

// TestChurnMobilityLinksRecover drives one node far out of range and
// back, checking that the injector's link flips are symmetric: every
// link it takes down comes back when the node returns.
func TestChurnMobilityLinksRecover(t *testing.T) {
	dep := topology.Grid(6, 6, 35, 50)
	sim := NewSim()
	net := NewNetwork(sim, dep, DefaultRadio(), nil)
	ch := NewChurn(net, ChurnConfig{Seed: 1, Rate: 0.5, Epoch: 5, Speed: 10, DeathShare: 0.0001, RejoinProb: 0.9})
	before := 0
	for _, nb := range net.LiveNeighbors() {
		before += len(nb)
	}
	ch.Cover(2000)
	sim.RunUntil(2000)
	if ch.LinkFlaps == 0 {
		t.Fatalf("mobility produced no link flaps")
	}
	downs := 0
	for range net.ExhaustedLinks() {
		downs++ // unrelated; just ensure the call still works under churn
	}
	_ = downs
	after := 0
	for _, nb := range net.LiveNeighbors() {
		after += len(nb)
	}
	// Links only toggle on the original neighbor graph: the live degree
	// can never exceed the static one.
	if after > before {
		t.Fatalf("live links grew beyond the static neighbor graph: %d > %d", after, before)
	}
}

// Churn runs on the sharded engine: ticks are coordinator events, so the
// engine stays sharded and every observable replays the one-region run.
func TestChurnKeepsShardedEngine(t *testing.T) {
	dep := topology.Grid(8, 8, 35, 50)
	cfg := ChurnConfig{Seed: 7, Rate: 0.10, Epoch: 10, Speed: 4}
	want := churnRun(dep, cfg, 5, 60, 1)
	for _, shards := range []int{2, 4} {
		if got := churnRun(dep, cfg, 5, 60, shards); got != want {
			t.Fatalf("%d regions diverged from one:\n%s\nvs\n%s", shards, got, want)
		}
	}
	sim := NewSim()
	sim.EnableSharding(PartitionStrips(dep, 4), 4, DefaultRadio().AirTime(1, 0), 2)
	NewChurn(NewNetwork(sim, dep, DefaultRadio(), nil), cfg)
	if !sim.Sharded() {
		t.Fatal("attaching churn changed the engine")
	}
}

// Binding sharding after reliable transport once reverted the engine and
// counted a fallback. The engine now stays sharded, and the radio counters
// of a metered, lossy reliable relay are the one-region run's.
func TestShardFallbackCounterOnBind(t *testing.T) {
	dep := topology.Line(20, 30, 50)
	counts := func(shards int) string {
		sim := NewSim()
		net := NewNetwork(sim, dep, DefaultRadio(), nil)
		m := NewNetMetrics(metrics.New())
		net.SetMetrics(m)
		net.EnableReliable(ReliableConfig{})
		sim.EnableSharding(PartitionStrips(dep, shards), shards, DefaultRadio().AirTime(1, 0), shards)
		net.BindSharding()
		if shards > 1 && !sim.Sharded() {
			t.Fatalf("shards=%d: BindSharding after reliable transport changed the engine", shards)
		}
		net.SetLossRate(0.2, 9)
		net.SetHandler(func(id NodeID, msg Message) {
			if int(id) < dep.N()-1 {
				net.Send(Message{Kind: msg.Kind, Src: id, Dst: id + 1, Phase: "relay", Size: 90})
			}
		})
		sim.ScheduleNode(0, 0, 0, func() {
			net.Send(Message{Kind: 1, Src: 0, Dst: 1, Phase: "relay", Size: 90})
		})
		sim.Run()
		return fmt.Sprintf("tx=%d rx=%d lost=%d retx=%d ack=%d dup=%d giveup=%d",
			m.tx.Value(), m.rx.Value(), m.lost.Value(), m.retx.Value(), m.ack.Value(), m.dup.Value(), m.giveUp.Value())
	}
	want := counts(1)
	for _, shards := range []int{2, 4} {
		if got := counts(shards); got != want {
			t.Fatalf("counters at %d regions differ from one: %s vs %s", shards, got, want)
		}
	}
}
