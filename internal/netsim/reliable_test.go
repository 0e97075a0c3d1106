package netsim

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"sensjoin/internal/metrics"
	"sensjoin/internal/topology"
)

// phaseAcct records per-node, per-phase traffic including the reliable
// transport's retransmission/ACK breakdown.
type phaseAcct struct {
	tx, rx, retx, ack map[NodeID]map[string][2]int
}

func newPhaseAcct() *phaseAcct {
	return &phaseAcct{
		tx:   map[NodeID]map[string][2]int{},
		rx:   map[NodeID]map[string][2]int{},
		retx: map[NodeID]map[string][2]int{},
		ack:  map[NodeID]map[string][2]int{},
	}
}

func add(m map[NodeID]map[string][2]int, n NodeID, phase string, p, b int) {
	if m[n] == nil {
		m[n] = map[string][2]int{}
	}
	cur := m[n][phase]
	m[n][phase] = [2]int{cur[0] + p, cur[1] + b}
}

func (a *phaseAcct) Charge(s Side, n NodeID, phase string, p, b int) {
	add([...]map[NodeID]map[string][2]int{SideTx: a.tx, SideRx: a.rx, SideRetx: a.retx, SideAck: a.ack}[s], n, phase, p, b)
}

func reliableNet(nodes int, acct Accountant) (*Sim, *Network) {
	sim := NewSim()
	net := NewNetwork(sim, lineDeployment(nodes), DefaultRadio(), acct)
	net.EnableReliable(ReliableConfig{})
	return sim, net
}

// metered attaches radio instruments on a fresh registry and returns it.
func metered(net *Network) *metrics.Registry {
	reg := metrics.New()
	net.SetMetrics(NewNetMetrics(reg))
	return reg
}

// checkInstruments asserts that after a run the registry reads what the
// accountant and the public counters do: the packet totals are the
// accountant's tx and rx sums, ACKs included, and every other counter is
// its public field. The first transmission of each fixture is sent
// outside the run, so both the run's and the idle network's charges are
// checked.
func checkInstruments(t *testing.T, reg *metrics.Registry, net *Network, acct *phaseAcct) {
	t.Helper()
	sum := func(side map[NodeID]map[string][2]int) (p int) {
		for _, phases := range side {
			for _, c := range phases {
				p += c[0]
			}
		}
		return p
	}
	snap := reg.Snapshot()
	got := fmt.Sprintf("tx=%d rx=%d dropped=%d lost=%d retx=%d ack_tx=%d dup_rx=%d giveups=%d",
		snap["sensjoin_netsim_tx_packets_total"], snap["sensjoin_netsim_rx_packets_total"],
		snap["sensjoin_netsim_dropped_total"], snap["sensjoin_netsim_lost_total"],
		snap["sensjoin_netsim_retx_total"], snap["sensjoin_netsim_ack_tx_total"],
		snap["sensjoin_netsim_dup_rx_total"], snap["sensjoin_netsim_giveups_total"])
	want := fmt.Sprintf("tx=%d rx=%d dropped=%d lost=%d retx=%d ack_tx=%d dup_rx=%d giveups=%d",
		sum(acct.tx), sum(acct.rx), net.Dropped, net.Lost, net.Retx, net.AckTx, net.Dups, net.GiveUps)
	if got != want {
		t.Fatalf("instruments disagree with the accountant and the counters:\n got %s\nwant %s", got, want)
	}
}

// Under heavy per-packet loss a reliable multi-packet unicast must still
// arrive exactly once, with retransmissions and ACKs charged to their
// transmitters under the data phase.
func TestReliableDeliversExactlyOnceUnderLoss(t *testing.T) {
	acct := newPhaseAcct()
	sim, net := reliableNet(3, acct)
	reg := metered(net)
	net.SetLossRate(0.3, 99)
	var got []Message
	net.SetHandler(func(_ NodeID, m Message) { got = append(got, m) })
	// 200 payload bytes = 5 packets at the default 40B payload.
	net.Send(Message{Kind: 3, Src: 0, Dst: 1, Phase: "data", Size: 200, Payload: "big"})
	sim.Run()
	if len(got) != 1 || got[0].Payload != "big" {
		t.Fatalf("want exactly one delivery, got %d (%v)", len(got), got)
	}
	if net.Retx == 0 {
		t.Fatal("30% loss on a 5-packet message should force retransmissions")
	}
	if acct.retx[0]["data"][0] == 0 {
		t.Fatal("retransmissions not charged to the sender's phase accounting")
	}
	if acct.ack[1]["data"][0] == 0 {
		t.Fatal("ACKs not charged to the receiver's phase accounting")
	}
	// Retransmissions are charged to SideTx too: total tx packets exceed the
	// 5-packet clean cost.
	if acct.tx[0]["data"][0] <= 5 {
		t.Fatalf("sender tx packets = %d, want > 5 (retransmissions included)", acct.tx[0]["data"][0])
	}
	if net.GiveUps != 0 {
		t.Fatalf("GiveUps = %d, want 0", net.GiveUps)
	}
	checkInstruments(t, reg, net, acct)
}

// A lost final ACK makes the sender retransmit a probe; the receiver
// must suppress the duplicate (the handler does not run again) and
// re-acknowledge.
func TestReliableSuppressesDuplicateOnLostAck(t *testing.T) {
	acct := newPhaseAcct()
	sim, net := reliableNet(3, acct)
	reg := metered(net)
	// Asymmetric loss: data direction clean, ACK direction dead.
	net.SetLinkLossRate(1, 0, 1.0)
	calls := 0
	net.SetHandler(func(_ NodeID, m Message) { calls++ })
	net.Send(Message{Kind: 3, Src: 0, Dst: 1, Phase: "data", Size: 10})
	sim.Run()
	if calls != 1 {
		t.Fatalf("handler ran %d times, want exactly 1", calls)
	}
	if net.Dups == 0 {
		t.Fatal("probe retransmissions should be suppressed as duplicates")
	}
	// With the ACK direction fully dead the sender can never confirm and
	// must eventually give up — an accounted failure, not silence.
	if net.GiveUps != 1 {
		t.Fatalf("GiveUps = %d, want 1", net.GiveUps)
	}
	checkInstruments(t, reg, net, acct)
}

// Exhausting the retransmission budget on a down link must record the
// directed link and fire the give-up callback with the attempt total.
func TestReliableExhaustionRecordsLink(t *testing.T) {
	acct := newPhaseAcct()
	sim, net := reliableNet(3, acct)
	reg := metered(net)
	net.LinkDown(0, 1)
	var gaveUp Message
	attempts := 0
	var at Time
	net.OnGiveUp(func(m Message, a int, when Time) { gaveUp = m; attempts = a; at = when })
	net.Send(Message{Kind: 3, Src: 0, Dst: 1, Phase: "data", Size: 10})
	sim.Run()
	cfg := ReliableConfig{}.withDefaults()
	if attempts != cfg.MaxRetries+1 {
		t.Fatalf("give-up after %d attempts, want %d", attempts, cfg.MaxRetries+1)
	}
	if gaveUp.Dst != 1 {
		t.Fatalf("give-up message = %+v", gaveUp)
	}
	if at <= 0 || at > sim.Now() {
		t.Fatalf("gave up at %g, run ended at %g", at, sim.Now())
	}
	checkInstruments(t, reg, net, acct)
	ex := net.ExhaustedLinks()
	if ex[Link{From: 0, To: 1}] != 1 {
		t.Fatalf("ExhaustedLinks = %v, want {0->1: 1}", ex)
	}
	net.ClearExhaustedLinks()
	if len(net.ExhaustedLinks()) != 0 {
		t.Fatal("ClearExhaustedLinks did not reset")
	}
}

// Per-directed-link loss draws must not depend on how transmissions on
// other links interleave: swapping the send order of two transfers on
// distinct links leaves each link's outcome trace unchanged.
func TestLinkLossDeterministicAcrossInterleaving(t *testing.T) {
	type key struct {
		ev       Action
		src, dst NodeID
	}
	run := func(order []Message) map[key]int {
		sim := NewSim()
		net := NewNetwork(sim, lineDeployment(4), DefaultRadio(), newPhaseAcct())
		net.EnableReliable(ReliableConfig{})
		net.SetLinkLossRate(0, 1, 0.5)
		net.SetLinkLossRate(1, 0, 0.5)
		net.SetLinkLossRate(2, 3, 0.5)
		net.SetLinkLossRate(3, 2, 0.5)
		counts := map[key]int{}
		net.SetTracer(func(ev TraceEvent) { counts[key{ev.Event, ev.Src, ev.Dst}]++ })
		for i := range make([]struct{}, len(order)) {
			net.Send(order[i])
		}
		sim.Run()
		return counts
	}
	a := Message{Kind: 1, Src: 0, Dst: 1, Phase: "p", Size: 120}
	b := Message{Kind: 1, Src: 3, Dst: 2, Phase: "p", Size: 120}
	ab := run([]Message{a, b})
	ba := run([]Message{b, a})
	if len(ab) != len(ba) {
		t.Fatalf("event shapes differ: %v vs %v", ab, ba)
	}
	for k, v := range ab {
		if ba[k] != v {
			t.Fatalf("interleaving changed link outcomes at %+v: %d vs %d", k, v, ba[k])
		}
	}
}

// SetLinkLossRate is directional: loss in one direction must not affect
// the reverse direction, and rate <= 0 removes the override.
func TestLinkLossAsymmetric(t *testing.T) {
	sim := NewSim()
	net := NewNetwork(sim, lineDeployment(3), DefaultRadio(), newPhaseAcct())
	net.SetLinkLossRate(0, 1, 1.0)
	got := map[NodeID]int{}
	net.SetHandler(func(to NodeID, m Message) { got[to]++ })
	net.Send(Message{Kind: 1, Src: 0, Dst: 1, Phase: "p", Size: 10})
	net.Send(Message{Kind: 1, Src: 1, Dst: 0, Phase: "p", Size: 10})
	sim.Run()
	if got[1] != 0 || got[0] != 1 {
		t.Fatalf("asymmetric loss broken: deliveries = %v", got)
	}
	net.SetLinkLossRate(0, 1, 0)
	net.Send(Message{Kind: 1, Src: 0, Dst: 1, Phase: "p", Size: 10})
	sim.Run()
	if got[1] != 1 {
		t.Fatalf("removing the override should restore delivery, got %v", got)
	}
	// A broadcast crosses the same directed links as a unicast: with
	// only per-link rates set (no global loss model) it is still lost.
	net.SetLinkLossRate(1, 0, 1.0)
	net.SetLinkLossRate(1, 2, 1.0)
	before, lost := got[0]+got[2], net.Lost
	net.Send(Message{Kind: 1, Src: 1, Dst: BroadcastID, Phase: "p", Size: 10})
	sim.Run()
	if got[0]+got[2] != before || net.Lost != lost+2 {
		t.Fatalf("broadcast over two fully lossy links: %d deliveries, %d lost; want 0 and 2",
			got[0]+got[2]-before, net.Lost-lost)
	}
}

// With reliable transport on, SlotFor must cover the full worst-case
// retransmission window so slotted schedules stay valid under loss.
func TestSlotForCoversRetransmissionWindow(t *testing.T) {
	sim := NewSim()
	net := NewNetwork(sim, lineDeployment(3), DefaultRadio(), nil)
	plain := net.SlotFor(100)
	net.EnableReliable(ReliableConfig{})
	cfg := ReliableConfig{}.withDefaults()
	want := Time(0)
	air := net.MaxAirTime(100)
	ackAir := net.Radio.AirTime(net.Radio.Packets(cfg.AckBytes), cfg.AckBytes) + 1e-6
	for a := 0; a <= cfg.MaxRetries; a++ {
		want += air + ackAir + cfg.backoff(a)
	}
	got := net.SlotFor(100)
	if got < want {
		t.Fatalf("reliable SlotFor(100) = %v, want >= %v", got, want)
	}
	if got <= plain {
		t.Fatalf("reliable slot %v should exceed best-effort slot %v", got, plain)
	}
	// A transfer started at a slot boundary finishes (or gives up)
	// within the slot: last timer fires strictly before the slot ends.
	net.LinkDown(0, 1)
	done := sim.Now() + got
	net.Send(Message{Kind: 1, Src: 0, Dst: 1, Phase: "p", Size: 100})
	last := Time(0)
	for sim.Pending() > 0 {
		sim.Run()
		last = sim.Now()
	}
	if last >= done {
		t.Fatalf("retransmission window %v spills past slot %v", last, done)
	}
}

// The reliable path must keep the byte ledger consistent: partial
// arrivals decrement packets and bytes together so the receiver's
// accounted bytes sum to the message size exactly once.
func TestReliableByteConservation(t *testing.T) {
	acct := newPhaseAcct()
	sim, net := reliableNet(3, acct)
	net.SetLossRate(0.4, 7)
	net.SetHandler(func(NodeID, Message) {})
	const size = 500 // 13 packets
	net.Send(Message{Kind: 3, Src: 0, Dst: 1, Phase: "data", Size: size})
	sim.Run()
	if net.GiveUps != 0 {
		t.Skip("transfer gave up under this seed; byte identity checked elsewhere")
	}
	// Non-duplicate receiver bytes must equal the message size: every
	// payload byte arrives exactly once across all attempts.
	if gotB := acct.rx[1]["data"][1]; gotB != size {
		t.Fatalf("receiver accounted %dB, want exactly %dB", gotB, size)
	}
}

func TestDeadSenderSendsNothingReliable(t *testing.T) {
	sim, net := reliableNet(3, newPhaseAcct())
	net.KillNode(0)
	net.Send(Message{Kind: 1, Src: 0, Dst: 1, Phase: "p", Size: 10})
	sim.Run()
	if net.Retx != 0 || net.GiveUps != 0 {
		t.Fatal("dead sender should transmit nothing")
	}
}

// reliableLineRun relays one reliable message down a lossy line, with a
// link the last hop gives up on, and renders every observable: the sorted
// trace, the counters, the give-ups and the clock.
func reliableLineRun(t *testing.T, shards int) string {
	t.Helper()
	dep := topology.Line(12, 30, 50)
	sim := NewSim()
	net := NewNetwork(sim, dep, DefaultRadio(), nil) // the map-backed test accountants are not for parallel regions
	net.EnableReliable(ReliableConfig{})
	// Sharding enabled after reliable transport: binding keeps both.
	sim.EnableSharding(PartitionStrips(dep, shards), shards, DefaultRadio().AirTime(1, 0), shards)
	net.BindSharding()
	net.SetLossRate(0.2, 5)
	net.SetLinkLossRate(10, 11, 1)
	var evs []string
	net.SetTracer(func(ev TraceEvent) { evs = append(evs, fmt.Sprintf("%+v", ev)) })
	var gave []string
	net.OnGiveUp(func(m Message, a int, at Time) {
		gave = append(gave, fmt.Sprintf("%d->%d %d @%.9f", m.Src, m.Dst, a, at))
	})
	net.SetHandler(func(id NodeID, m Message) {
		if int(id) < dep.N()-1 {
			net.Send(Message{Kind: m.Kind, Src: id, Dst: id + 1, Phase: "relay", Size: 90})
		}
	})
	sim.ScheduleNode(0, 0, 0, func() {
		net.Send(Message{Kind: 1, Src: 0, Dst: 1, Phase: "relay", Size: 90})
	})
	sim.Run()
	if shards > 1 && !sim.Sharded() {
		t.Fatal("reliable transport changed the engine")
	}
	sort.Strings(evs)
	return fmt.Sprintf("now=%.9f steps=%d counters=%+v exhausted=%v gave=%v\n%s",
		sim.Now(), sim.Steps(), net.counters, net.ExhaustedLinks(), gave, strings.Join(evs, "\n"))
}

// Reliable transport and the loss models run sharded: every observable of
// a lossy reliable relay — retransmissions, ACKs, the give-up and its
// hook — is the one-region run's at any region count.
func TestBindShardingKeepsReliable(t *testing.T) {
	want := reliableLineRun(t, 1)
	if !strings.Contains(want, "10->11") {
		t.Fatalf("the fixture never gave up:\n%s", want)
	}
	for _, shards := range []int{2, 4} {
		if got := reliableLineRun(t, shards); got != want {
			t.Fatalf("%d regions diverged from one:\n%s\nvs\n%s", shards, got, want)
		}
	}
}

// A transfer's sender and receiver share its ledger across regions only
// because they touch it a window apart: a configuration whose ACK air
// time plus backoff undercuts the lookahead is refused, in either order.
func TestReliableLookaheadAssertion(t *testing.T) {
	dep := topology.Line(4, 30, 50)
	short := ReliableConfig{BackoffBase: -DefaultRadio().AirTime(1, 0)}
	for name, arm := range map[string]func(*Sim, *Network){
		"sharding first": func(sim *Sim, net *Network) {
			sim.EnableSharding(PartitionStrips(dep, 2), 2, DefaultRadio().AirTime(1, 0), 2)
			net.BindSharding()
			net.EnableReliable(short)
		},
		"reliable first": func(sim *Sim, net *Network) {
			net.EnableReliable(short)
			sim.EnableSharding(PartitionStrips(dep, 2), 2, DefaultRadio().AirTime(1, 0), 2)
			net.BindSharding()
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: a lookahead wider than ACK air time plus backoff was accepted", name)
				}
			}()
			sim := NewSim()
			arm(sim, NewNetwork(sim, dep, DefaultRadio(), nil))
		}()
	}
	// One region has no windows to undercut.
	sim := NewSim()
	NewNetwork(sim, dep, DefaultRadio(), nil).EnableReliable(short)
}
