package trace

import (
	"testing"

	"sensjoin/internal/netsim"
	"sensjoin/internal/topology"
)

// Journal a real reliable run under loss and check the radio-level
// passes accept it: Conservation at packet granularity and the
// Reliability contract (exactly-once or accounted failure).
func TestReliabilityAuditAcceptsLossyRun(t *testing.T) {
	sim := netsim.NewSim()
	dep := topology.Line(4, 40, 50)
	net := netsim.NewNetwork(sim, dep, netsim.DefaultRadio(), nil)
	net.EnableReliable(netsim.ReliableConfig{})
	net.SetLossRate(0.25, 5)
	r := New()
	net.SetTracer(r.Radio())
	for i := 1; i <= 4; i++ {
		id := topology.NodeID(i)
		net.Send(netsim.Message{Kind: 1, Src: id - 1, Dst: id, Phase: "p", Size: 150})
	}
	// A transfer on a down link must end as an accounted failure.
	net.LinkDown(0, 1)
	net.Send(netsim.Message{Kind: 1, Src: 0, Dst: 1, Phase: "p", Size: 10})
	sim.Run()
	j := r.Journal()
	if net.Retx == 0 {
		t.Fatal("expected retransmissions under 25% loss")
	}
	if vs := Conservation(j); len(vs) != 0 {
		t.Fatalf("conservation violations on a valid reliable run: %v", vs)
	}
	if vs := Reliability(j); len(vs) != 0 {
		t.Fatalf("reliability violations on a valid reliable run: %v", vs)
	}
	found := false
	for _, ev := range j.Events {
		if ev.Kind == KindGiveUp {
			found = true
		}
	}
	if !found {
		t.Fatal("down-link transfer should journal a give-up event")
	}
}

// A transfer whose journal shows neither a complete delivery nor a
// give-up must be flagged.
func TestReliabilityFlagsUnaccountedTransfer(t *testing.T) {
	j := &Journal{Events: []Event{
		{Kind: KindTx, Node: 0, Peer: 1, MsgID: 1, Logical: 1, Packets: 3, Bytes: 100},
		{Kind: KindRx, Node: 0, Peer: 1, MsgID: 1, Logical: 1, Packets: 2, Bytes: 80},
	}}
	vs := Reliability(j)
	if len(vs) != 1 {
		t.Fatalf("want exactly one violation, got %v", vs)
	}
}

// A duplicate before completion and an over-delivery are both protocol
// bugs the pass must catch.
func TestReliabilityFlagsEarlyDupAndOverDelivery(t *testing.T) {
	j := &Journal{Events: []Event{
		{Kind: KindTx, MsgID: 1, Logical: 1, Packets: 2, Bytes: 50},
		{Kind: KindRx, MsgID: 1, Logical: 1, Packets: 1, Bytes: 0, Dup: true},
		{Kind: KindRx, MsgID: 1, Logical: 1, Packets: 3, Bytes: 60},
	}}
	vs := Reliability(j)
	if len(vs) < 2 {
		t.Fatalf("want early-dup and over-delivery violations, got %v", vs)
	}
}
