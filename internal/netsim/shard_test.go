package netsim

import (
	"fmt"
	"testing"

	"sensjoin/internal/topology"
)

// floodResult captures everything observable about a flood run: per-node
// reception logs (order and payload) and the final clock/step counts.
func floodRun(t *testing.T, dep *topology.Deployment, shards, workers int) string {
	t.Helper()
	sim := NewSim()
	if shards > 1 {
		sim.EnableSharding(PartitionStrips(dep, shards), shards, DefaultRadio().AirTime(1, 0), workers)
	}
	net := NewNetwork(sim, dep, DefaultRadio(), nil)
	net.BindSharding()
	n := dep.N()
	seen := make([]bool, n)
	log := make([][]string, n)
	net.SetHandler(func(id NodeID, m Message) {
		log[id] = append(log[id], fmt.Sprintf("%d<-%d@%d", id, m.Src, m.Kind))
		if seen[id] {
			return
		}
		seen[id] = true
		net.Send(Message{Kind: m.Kind + 1, Src: id, Dst: BroadcastID, Phase: "flood", Size: 10})
	})
	seen[0] = true
	sim.ScheduleNode(0, 0, 0.5, func() {
		net.Send(Message{Kind: 1, Src: 0, Dst: BroadcastID, Phase: "flood", Size: 10})
	})
	sim.Run()
	out := fmt.Sprintf("now=%.9f steps=%d\n", sim.Now(), sim.Steps())
	for i := 0; i < n; i++ {
		out += fmt.Sprintf("%d: %v\n", i, log[i])
	}
	return out
}

// TestShardedFloodMatchesClassic floods a broadcast wave through a line
// deployment — every hop crosses time windows, and with several shards
// the wave repeatedly crosses region boundaries. Every per-node
// observable must be byte-identical to the classic engine for any shard
// and worker count.
func TestShardedFloodMatchesClassic(t *testing.T) {
	dep := topology.Line(40, 30, 50)
	want := floodRun(t, dep, 1, 1)
	for _, shards := range []int{2, 4, 8} {
		for _, workers := range []int{1, 4} {
			if got := floodRun(t, dep, shards, workers); got != want {
				t.Fatalf("shards=%d workers=%d diverged:\n got: %s\nwant: %s", shards, workers, got, want)
			}
		}
	}
}

// TestShardedUnicastChain relays a unicast message down the line —
// exercising the cross-region inbox hand-off and per-region freelists.
func TestShardedUnicastChain(t *testing.T) {
	dep := topology.Line(20, 30, 50)
	run := func(shards int) string {
		sim := NewSim()
		if shards > 1 {
			sim.EnableSharding(PartitionStrips(dep, shards), shards, DefaultRadio().AirTime(1, 0), shards)
		}
		net := NewNetwork(sim, dep, DefaultRadio(), nil)
		net.BindSharding()
		var arrived Time
		net.SetHandler(func(id NodeID, m Message) {
			if int(id) == dep.N()-1 {
				arrived = sim.sendTimeForTest(id)
				return
			}
			net.Send(Message{Kind: m.Kind, Src: id, Dst: id + 1, Phase: "relay", Size: 24})
		})
		sim.ScheduleNode(0, 0, 0, func() {
			net.Send(Message{Kind: 7, Src: 0, Dst: 1, Phase: "relay", Size: 24})
		})
		sim.Run()
		return fmt.Sprintf("%.9f %d", arrived, sim.Steps())
	}
	want := run(1)
	for _, shards := range []int{2, 4} {
		if got := run(shards); got != want {
			t.Fatalf("shards=%d: got %s want %s", shards, got, want)
		}
	}
}

// sendTimeForTest exposes the executing node's clock to tests.
func (s *Sim) sendTimeForTest(id NodeID) Time {
	if sh := s.sh; sh != nil && sh.running.Load() {
		return sh.regions[sh.regionOf[id]].now
	}
	return s.now
}

// TestPlainSchedulePanicsDuringShardedRun pins the contract: event
// handlers must use ScheduleNode under sharding.
func TestPlainSchedulePanicsDuringShardedRun(t *testing.T) {
	dep := topology.Line(4, 30, 50)
	sim := NewSim()
	sim.EnableSharding(PartitionStrips(dep, 2), 2, 0.001, 1)
	panicked := false
	sim.ScheduleNode(0, 0, 0, func() {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		sim.Schedule(1, func() {})
	})
	sim.Run()
	if !panicked {
		t.Fatal("plain Schedule during a sharded run did not panic")
	}
}

// TestDisableShardingMergesPending checks that events scheduled before
// the fallback survive it in deterministic order.
func TestDisableShardingMergesPending(t *testing.T) {
	dep := topology.Line(8, 30, 50)
	sim := NewSim()
	sim.EnableSharding(PartitionStrips(dep, 4), 4, 0.001, 1)
	var order []int
	for i := 0; i < 8; i++ {
		id := NodeID(i + 1)
		i := i
		sim.ScheduleNode(id, id, 1.0, func() { order = append(order, i) })
	}
	sim.DisableSharding()
	if sim.Sharded() {
		t.Fatal("still sharded after DisableSharding")
	}
	sim.Run()
	if len(order) != 8 {
		t.Fatalf("ran %d of 8 events", len(order))
	}
	// Equal times merge by (region, seq): node order along the line.
	for i, v := range order {
		if v != i {
			t.Fatalf("order %v not deterministic by region", order)
		}
	}
}

// TestShardsOneIsNoOp: a single region must not change the engine at all.
func TestShardsOneIsNoOp(t *testing.T) {
	dep := topology.Line(4, 30, 50)
	sim := NewSim()
	sim.EnableSharding(PartitionStrips(dep, 1), 1, 0.001, 1)
	if sim.Sharded() {
		t.Fatal("shards=1 enabled sharding")
	}
}
