package netsim

import (
	"fmt"
	"testing"

	"sensjoin/internal/topology"
)

// lineDeployment builds n nodes on a line spaced 40 m apart with 50 m
// range: node i talks exactly to i-1 and i+1.
func lineDeployment(n int) *topology.Deployment {
	return topology.Line(n-1, 40, 50)
}

type recordingAcct struct {
	tx, rx map[NodeID][2]int // packets, bytes
}

func newRecordingAcct() *recordingAcct {
	return &recordingAcct{tx: map[NodeID][2]int{}, rx: map[NodeID][2]int{}}
}

func (a *recordingAcct) OnTx(n NodeID, phase string, p, b int) {
	cur := a.tx[n]
	a.tx[n] = [2]int{cur[0] + p, cur[1] + b}
}

func (a *recordingAcct) OnRx(n NodeID, phase string, p, b int) {
	cur := a.rx[n]
	a.rx[n] = [2]int{cur[0] + p, cur[1] + b}
}

func TestRadioPackets(t *testing.T) {
	c := DefaultRadio() // 48 max, 8 header => 40 payload
	cases := []struct{ size, want int }{
		{0, 1}, {1, 1}, {40, 1}, {41, 2}, {80, 2}, {81, 3},
	}
	for _, tc := range cases {
		if got := c.Packets(tc.size); got != tc.want {
			t.Errorf("Packets(%d) = %d, want %d", tc.size, got, tc.want)
		}
	}
	if c.Payload() != 40 {
		t.Fatalf("Payload = %d, want 40", c.Payload())
	}
}

func TestRadioPanicsOnNoPayload(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for header >= packet")
		}
	}()
	RadioConfig{MaxPacket: 8, HeaderBytes: 8}.Payload()
}

func TestUnicastDelivery(t *testing.T) {
	sim := NewSim()
	dep := lineDeployment(3)
	acct := newRecordingAcct()
	net := NewNetwork(sim, dep, DefaultRadio(), acct)
	var got []Message
	net.SetHandler(func(_ NodeID, m Message) { got = append(got, m) })
	net.Send(Message{Kind: 7, Src: 0, Dst: 1, Phase: "p", Size: 10, Payload: "hello"})
	sim.Run()
	if len(got) != 1 || got[0].Payload != "hello" || got[0].Kind != 7 {
		t.Fatalf("delivery failed: %+v", got)
	}
	if acct.tx[0] != [2]int{1, 10} {
		t.Fatalf("tx accounting = %v, want 1 packet / 10 bytes", acct.tx[0])
	}
	if acct.rx[1] != [2]int{1, 10} {
		t.Fatalf("rx accounting = %v", acct.rx[1])
	}
}

func TestUnicastToNonNeighborDropped(t *testing.T) {
	sim := NewSim()
	dep := lineDeployment(3)
	acct := newRecordingAcct()
	net := NewNetwork(sim, dep, DefaultRadio(), acct)
	delivered := false
	net.SetHandler(func(_ NodeID, m Message) { delivered = true })
	net.Send(Message{Src: 0, Dst: 2, Phase: "p", Size: 5})
	sim.Run()
	if delivered {
		t.Fatal("message to non-neighbor must not be delivered")
	}
	if net.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", net.Dropped)
	}
	// Transmission is still charged: the sender cannot know.
	if acct.tx[0][0] != 1 {
		t.Fatal("failed unicast should still cost a transmission")
	}
}

func TestBroadcastReachesAllNeighbors(t *testing.T) {
	sim := NewSim()
	dep := lineDeployment(3)
	acct := newRecordingAcct()
	net := NewNetwork(sim, dep, DefaultRadio(), acct)
	heard := map[NodeID]bool{}
	net.SetHandler(func(to NodeID, m Message) { heard[to] = true })
	net.Send(Message{Src: 1, Dst: BroadcastID, Phase: "p", Size: 4})
	sim.Run()
	if !heard[0] || !heard[2] {
		t.Fatalf("broadcast from 1 should reach 0 and 2: %v", heard)
	}
	if heard[1] {
		t.Fatal("sender must not hear its own broadcast")
	}
	// One transmission only, two receptions.
	if acct.tx[1][0] != 1 {
		t.Fatalf("broadcast cost %d transmissions, want 1", acct.tx[1][0])
	}
	if acct.rx[0][0] != 1 || acct.rx[2][0] != 1 {
		t.Fatal("both neighbors should be charged one reception")
	}
}

func TestLinkFailureBlocksDelivery(t *testing.T) {
	sim := NewSim()
	dep := lineDeployment(3)
	net := NewNetwork(sim, dep, DefaultRadio(), newRecordingAcct())
	delivered := 0
	net.SetHandler(func(_ NodeID, m Message) { delivered++ })
	net.LinkDown(0, 1)
	net.Send(Message{Src: 0, Dst: 1, Size: 5})
	sim.Run()
	if delivered != 0 {
		t.Fatal("downed link must block delivery")
	}
	net.LinkUp(0, 1)
	net.Send(Message{Src: 0, Dst: 1, Size: 5})
	sim.Run()
	if delivered != 1 {
		t.Fatal("restored link must deliver again")
	}
}

func TestKillAndReviveNode(t *testing.T) {
	sim := NewSim()
	dep := lineDeployment(3)
	net := NewNetwork(sim, dep, DefaultRadio(), newRecordingAcct())
	delivered := 0
	net.SetHandler(func(_ NodeID, m Message) { delivered++ })
	net.KillNode(1)
	if net.Alive(1) {
		t.Fatal("killed node reported alive")
	}
	net.Send(Message{Src: 0, Dst: 1, Size: 5})
	// A dead node sends nothing either.
	net.Send(Message{Src: 1, Dst: 0, Size: 5})
	sim.Run()
	if delivered != 0 {
		t.Fatal("dead node must not receive")
	}
	net.ReviveNode(1)
	net.Send(Message{Src: 0, Dst: 1, Size: 5})
	sim.Run()
	if delivered != 1 {
		t.Fatal("revived node must receive")
	}
}

func TestDeadNodeKilledAfterSendStillMisses(t *testing.T) {
	// A node killed between transmission and delivery misses the message
	// — and is charged no reception energy for it.
	sim := NewSim()
	dep := lineDeployment(2)
	acct := newRecordingAcct()
	net := NewNetwork(sim, dep, DefaultRadio(), acct)
	var events []TraceEvent
	net.SetTracer(func(ev TraceEvent) { events = append(events, ev) })
	delivered := 0
	net.SetHandler(func(_ NodeID, m Message) { delivered++ })
	net.Send(Message{Src: 0, Dst: 1, Size: 5})
	net.KillNode(1) // before the air-time delay elapses
	sim.Run()
	if delivered != 0 {
		t.Fatal("message delivered to a node that died in flight")
	}
	if acct.rx[1][0] != 0 {
		t.Fatalf("node killed in flight charged %d rx packets, want 0", acct.rx[1][0])
	}
	if net.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1 for the in-flight death", net.Dropped)
	}
	counts := map[string]int{}
	for _, ev := range events {
		counts[ev.Event]++
	}
	if counts["tx"] != 1 || counts["drop"] != 1 || counts["rx"] != 0 {
		t.Fatalf("events = %v, want one tx and one drop", counts)
	}
}

func TestRxAccountingAtDeliveryTime(t *testing.T) {
	// Reception is charged and traced when the message arrives (after air
	// time), not at the send instant.
	sim := NewSim()
	acct := newRecordingAcct()
	net := NewNetwork(sim, lineDeployment(2), DefaultRadio(), acct)
	var rxAt []Time
	net.SetTracer(func(ev TraceEvent) {
		if ev.Event == "rx" {
			rxAt = append(rxAt, ev.At)
			if acct.rx[1][0] != 1 {
				t.Errorf("rx trace fired before/without accounting: %v", acct.rx[1])
			}
		}
	})
	net.SetHandler(func(NodeID, Message) {})
	net.Send(Message{Src: 0, Dst: 1, Size: 5})
	if acct.rx[1][0] != 0 {
		t.Fatal("reception charged at send time")
	}
	sim.Run()
	air := net.Radio.AirTime(1, 5)
	if len(rxAt) != 1 || rxAt[0] != air {
		t.Fatalf("rx at %v, want [%g]", rxAt, air)
	}
	if acct.rx[1][0] != 1 {
		t.Fatal("reception not charged after delivery")
	}
}

func TestAirTimeOrdersDeliveries(t *testing.T) {
	sim := NewSim()
	dep := lineDeployment(2)
	net := NewNetwork(sim, dep, DefaultRadio(), newRecordingAcct())
	var sizes []int
	net.SetHandler(func(_ NodeID, m Message) { sizes = append(sizes, m.Size) })
	// A large message sent first arrives after a small message sent
	// at the same instant? No: both are scheduled from now; the larger
	// one simply takes longer air time.
	net.Send(Message{Src: 0, Dst: 1, Size: 200}) // several packets
	net.Send(Message{Src: 0, Dst: 1, Size: 1})
	sim.Run()
	if len(sizes) != 2 || sizes[0] != 1 || sizes[1] != 200 {
		t.Fatalf("deliveries = %v, want small-first", sizes)
	}
}

func TestSlotForIsGenerousAndRounded(t *testing.T) {
	sim := NewSim()
	net := NewNetwork(sim, lineDeployment(2), DefaultRadio(), nil)
	slot := net.SlotFor(100)
	if slot < net.MaxAirTime(100)-1e-9 {
		t.Fatal("SlotFor must cover the worst-case air time")
	}
	ms := slot * 1000
	if ms != float64(int(ms)) {
		t.Fatalf("SlotFor should be a millisecond multiple, got %g s", slot)
	}
}

func TestLossModel(t *testing.T) {
	sim := NewSim()
	dep := lineDeployment(2)
	net := NewNetwork(sim, dep, DefaultRadio(), newRecordingAcct())
	delivered := 0
	net.SetHandler(func(_ NodeID, m Message) { delivered++ })
	net.SetLossRate(0.5, 42)
	const sends = 200
	for i := 0; i < sends; i++ {
		net.Send(Message{Src: 0, Dst: 1, Size: 5})
	}
	sim.Run()
	if delivered == 0 || delivered == sends {
		t.Fatalf("50%% loss delivered %d of %d", delivered, sends)
	}
	if net.Lost != sends-delivered {
		t.Fatalf("Lost = %d, want %d", net.Lost, sends-delivered)
	}
	// Rough band for Bernoulli(0.5) over 200 trials.
	if delivered < 60 || delivered > 140 {
		t.Fatalf("delivered %d far from the expected ~100", delivered)
	}
	// Disable restores reliability.
	net.SetLossRate(0, 0)
	before := delivered
	net.Send(Message{Src: 0, Dst: 1, Size: 5})
	sim.Run()
	if delivered != before+1 {
		t.Fatal("loss model not disabled")
	}
}

func TestLossModelMultiPacketMoreFragile(t *testing.T) {
	// A message needing many packets survives less often than a single
	// packet at the same per-packet rate.
	count := func(size int) int {
		sim := NewSim()
		net := NewNetwork(sim, lineDeployment(2), DefaultRadio(), newRecordingAcct())
		delivered := 0
		net.SetHandler(func(_ NodeID, m Message) { delivered++ })
		net.SetLossRate(0.1, 7)
		for i := 0; i < 300; i++ {
			net.Send(Message{Src: 0, Dst: 1, Size: size})
		}
		sim.Run()
		return delivered
	}
	small := count(5)   // 1 packet
	large := count(400) // 10 packets
	if large >= small {
		t.Fatalf("multi-packet messages should be more fragile: %d vs %d", large, small)
	}
}

func TestTracer(t *testing.T) {
	sim := NewSim()
	net := NewNetwork(sim, lineDeployment(3), DefaultRadio(), nil)
	var events []TraceEvent
	net.SetTracer(func(ev TraceEvent) { events = append(events, ev) })
	net.SetHandler(func(NodeID, Message) {})
	net.Send(Message{Src: 0, Dst: 1, Size: 5})
	net.Send(Message{Src: 0, Dst: 2, Size: 5}) // non-neighbor: drop
	sim.Run()
	want := map[string]int{}
	for _, e := range events {
		want[e.Event]++
	}
	if want["tx"] != 2 || want["rx"] != 1 || want["drop"] != 1 {
		t.Fatalf("events = %v", want)
	}
	net.SetTracer(nil) // disabling must not panic
	net.Send(Message{Src: 0, Dst: 1, Size: 5})
	sim.Run()
}

func TestTracerMsgIDsAndExpect(t *testing.T) {
	// Every transmission gets a fresh MsgID; all outcome events of one
	// message share it, and a tx's Expect equals its outcome-event count.
	sim := NewSim()
	net := NewNetwork(sim, lineDeployment(4), DefaultRadio(), nil)
	var events []TraceEvent
	net.SetTracer(func(ev TraceEvent) { events = append(events, ev) })
	net.SetHandler(func(NodeID, Message) {})
	net.Send(Message{Src: 1, Dst: BroadcastID, Size: 5}) // two neighbors
	net.Send(Message{Src: 0, Dst: 1, Size: 5})
	sim.Run()
	expect := map[int64]int{}
	outcomes := map[int64]int{}
	for _, ev := range events {
		if ev.Event == "tx" {
			if _, dup := expect[ev.MsgID]; dup {
				t.Fatalf("duplicate tx MsgID %d", ev.MsgID)
			}
			expect[ev.MsgID] = ev.Expect
		} else {
			outcomes[ev.MsgID]++
		}
	}
	if len(expect) != 2 {
		t.Fatalf("tx events = %d, want 2", len(expect))
	}
	for id, want := range expect {
		if outcomes[id] != want {
			t.Fatalf("msg %d: %d outcome events, tx expected %d", id, outcomes[id], want)
		}
	}
}

// With tracing disabled, the send/deliver path must stay allocation-free:
// delivery state is pooled and the scheduled callback is a pre-bound
// method value, never a fresh closure.
func TestSendDeliverZeroAllocs(t *testing.T) {
	sim := NewSim()
	net := NewNetwork(sim, lineDeployment(4), DefaultRadio(), newRecordingAcct())
	net.SetHandler(func(NodeID, Message) {})
	send := func() {
		for i := 0; i < 64; i++ {
			net.Send(Message{Src: 1, Dst: BroadcastID, Phase: "p", Size: 20})
			net.Send(Message{Src: 2, Dst: 3, Phase: "p", Size: 90})
		}
		sim.Run()
	}
	send() // warm the delivery pool and event heap
	allocs := testing.AllocsPerRun(50, send)
	if allocs > 0 {
		t.Fatalf("send/deliver with tracing disabled: %.1f allocs per cycle, want 0", allocs)
	}
}

// Reset zeroes what a run counts and clears every fault and feature it
// armed — dead nodes, downed links, both loss models, reliable transport
// and its exhausted links — and detaches the tracer.
func TestNetworkReset(t *testing.T) {
	sim := NewSim()
	net := NewNetwork(sim, lineDeployment(4), DefaultRadio(), newRecordingAcct())
	net.SetHandler(func(NodeID, Message) {})
	net.SetTracer(func(TraceEvent) {})
	net.Send(Message{Src: 1, Dst: 3, Size: 10}) // not a neighbor: dropped
	net.Send(Message{Src: 1, Dst: 2, Size: 10})
	sim.Run()
	if net.Dropped != 1 || net.msgSeq[1] != 2 {
		t.Fatalf("setup: Dropped %d, msgSeq %v", net.Dropped, net.msgSeq)
	}
	net.Reset()
	if net.Dropped != 0 || net.msgSeq[1] != 0 || net.handler != nil || net.tracer != nil {
		t.Fatalf("after Reset: Dropped %d, msgSeq %v, handler set: %t, tracer set: %t",
			net.Dropped, net.msgSeq, net.handler != nil, net.tracer != nil)
	}

	// A network that ran a lossy reliable exchange under every fault, once
	// reset, repeats a new network's lossless run event for event.
	lossless := func(net *Network) string {
		var evs []string
		net.SetTracer(func(ev TraceEvent) { evs = append(evs, fmt.Sprintf("%+v", ev)) })
		net.SetHandler(func(NodeID, Message) {})
		net.Send(Message{Src: 1, Dst: 2, Phase: "p", Size: 90})
		net.Send(Message{Src: 2, Dst: BroadcastID, Phase: "p", Size: 10})
		net.Sim.Run()
		net.SetTracer(nil)
		return fmt.Sprintf("%v %+v %v", evs, net.counters, net.ExhaustedLinks())
	}
	want := lossless(NewNetwork(NewSim(), lineDeployment(4), DefaultRadio(), nil))
	used := NewNetwork(NewSim(), lineDeployment(4), DefaultRadio(), nil)
	used.EnableReliable(ReliableConfig{})
	used.SetLossRate(0.05, 9)
	used.SetLinkLossRate(2, 3, 1)
	used.SetHandler(func(NodeID, Message) {})
	for i := 0; i < 20; i++ {
		used.Send(Message{Src: 1, Dst: 2, Phase: "p", Size: 200})
	}
	used.Send(Message{Src: 2, Dst: 3, Phase: "p", Size: 10}) // gives up
	used.Sim.Run()
	used.KillNode(3)
	used.LinkDown(0, 1)
	if used.Retx == 0 || used.GiveUps != 1 || len(used.ExhaustedLinks()) != 1 {
		t.Fatalf("the lossy run exercised nothing: %+v", used.counters)
	}
	used.Reset()
	if !used.Sim.Reset() {
		t.Fatal("Sim.Reset refused a network that ran with loss, ARQ and faults")
	}
	if used.Reliable() || !used.Alive(3) || !used.LinkOK(0, 1) {
		t.Fatal("Reset left reliable transport, a dead node or a downed link behind")
	}
	if got := lossless(used); got != want {
		t.Fatalf("reset network's lossless run:\n%s\nnew network's:\n%s", got, want)
	}
}
