package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"sensjoin/internal/netsim"
	"sensjoin/internal/stats"
	"sensjoin/internal/topology"
)

func lineNet(t *testing.T, nodes int) (*netsim.Sim, *netsim.Network, *stats.Collector) {
	t.Helper()
	dep := topology.Line(nodes-1, 40, 50)
	sim := netsim.NewSim()
	coll := stats.NewCollector(dep.N())
	net := netsim.NewNetwork(sim, dep, netsim.DefaultRadio(), coll)
	return sim, net, coll
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	r.Span(1, KindTreecut, 3, -1, "ja-collect", 2) // must not panic
	r.Truncate(0)
	if r.Mark() != 0 {
		t.Fatal("nil Mark != 0")
	}
	if len(r.Journal().Events) != 0 {
		t.Fatal("nil journal not empty")
	}
}

func TestRecorderCollectsRadioAndSpans(t *testing.T) {
	sim, net, _ := lineNet(t, 3)
	rec := New()
	net.SetTracer(rec.Radio())
	net.SetHandler(func(topology.NodeID, netsim.Message) {})
	rec.Span(sim.Now(), KindPhaseStart, 0, -1, "p", 0)
	net.Send(netsim.Message{Src: 0, Dst: 1, Phase: "p", Size: 10})
	sim.Run()
	rec.Span(sim.Now(), KindPhaseEnd, 0, -1, "p", 0)
	j := rec.Journal()
	if len(j.Events) != 4 {
		t.Fatalf("events = %d, want 4 (start, tx, rx, end)", len(j.Events))
	}
	kinds := []Kind{KindPhaseStart, KindTx, KindRx, KindPhaseEnd}
	for i, k := range kinds {
		if j.Events[i].Kind != k {
			t.Fatalf("event %d kind %s, want %s", i, j.Events[i].Kind, k)
		}
	}
	if tx, rx := j.Events[1], j.Events[2]; rx.At <= tx.At {
		t.Fatalf("rx at %.6f not after tx at %.6f", rx.At, tx.At)
	}
	for i, ev := range j.Events {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
}

func TestMarkAndTruncate(t *testing.T) {
	rec := New()
	rec.Span(0, KindTreecut, 1, -1, "a", 0)
	m := rec.Mark()
	rec.Span(1, KindProxy, 2, -1, "a", 3)
	rec.Span(2, KindRecovery, 0, -1, "", 1)
	if got := len(rec.JournalSince(m).Events); got != 2 {
		t.Fatalf("JournalSince = %d events, want 2", got)
	}
	rec.Truncate(m)
	if got := len(rec.Journal().Events); got != 1 {
		t.Fatalf("after truncate: %d events, want 1", got)
	}
}

// cleanJournal runs a small broadcast+unicast workload and returns its
// journal with matching stats snapshots.
func cleanJournal(t *testing.T) (*Journal, stats.Snapshot, stats.Snapshot) {
	t.Helper()
	sim, net, coll := lineNet(t, 4)
	rec := New()
	net.SetTracer(rec.Radio())
	net.SetHandler(func(topology.NodeID, netsim.Message) {})
	before := coll.Snapshot()
	net.Send(netsim.Message{Src: 1, Dst: netsim.BroadcastID, Phase: "p", Size: 30})
	net.Send(netsim.Message{Src: 2, Dst: 3, Phase: "q", Size: 90})
	sim.Run()
	after := coll.Snapshot()
	return rec.Journal(), before, after
}

func TestConservationCleanRunPasses(t *testing.T) {
	j, _, _ := cleanJournal(t)
	if v := Conservation(j); len(v) != 0 {
		t.Fatalf("clean run flagged: %v", v)
	}
}

func TestConservationWithLossAndDropsPasses(t *testing.T) {
	// Losses and drops are not violations — they explain the gaps.
	sim, net, _ := lineNet(t, 3)
	rec := New()
	net.SetTracer(rec.Radio())
	net.SetLossRate(0.5, 11)
	net.SetHandler(func(topology.NodeID, netsim.Message) {})
	for i := 0; i < 50; i++ {
		net.Send(netsim.Message{Src: 0, Dst: 1, Phase: "p", Size: 5})
	}
	net.Send(netsim.Message{Src: 0, Dst: 2, Phase: "p", Size: 5}) // non-neighbor: drop
	net.Send(netsim.Message{Src: 0, Dst: 1, Phase: "p", Size: 5})
	net.KillNode(1) // in-flight death: drop at delivery time
	sim.Run()
	j := rec.Journal()
	if !j.HasLoss() {
		t.Fatal("journal should contain losses/drops")
	}
	if v := Conservation(j); len(v) != 0 {
		t.Fatalf("lossy-but-consistent run flagged: %v", v)
	}
}

func TestConservationFlagsPlantedViolations(t *testing.T) {
	j, _, _ := cleanJournal(t)
	// Plant 1: delete one rx — the tx's outcome count no longer matches.
	var tampered []Event
	removed := false
	for _, ev := range j.Events {
		if !removed && ev.Kind == KindRx {
			removed = true
			continue
		}
		tampered = append(tampered, ev)
	}
	if v := Conservation(&Journal{Events: tampered}); len(v) == 0 {
		t.Fatal("missing rx not flagged")
	}
	// Plant 2: an rx with no tx.
	orphan := append(append([]Event(nil), j.Events...), Event{
		Kind: KindRx, MsgID: 9999, At: 1, Node: 0, Peer: 1, Packets: 1, Bytes: 5,
	})
	if v := Conservation(&Journal{Events: orphan}); len(v) == 0 {
		t.Fatal("orphan rx not flagged")
	}
	// Plant 3: rx stamped at its send time (the bug this layer caught).
	var sendTime []Event
	txAt := map[int64]float64{}
	for _, ev := range j.Events {
		if ev.Kind == KindTx {
			txAt[ev.MsgID] = ev.At
		}
	}
	for _, ev := range j.Events {
		if ev.Kind == KindRx {
			ev.At = txAt[ev.MsgID]
		}
		sendTime = append(sendTime, ev)
	}
	if v := Conservation(&Journal{Events: sendTime}); len(v) == 0 {
		t.Fatal("rx-at-send-time not flagged")
	}
}

func TestReconcileCleanRunPasses(t *testing.T) {
	j, before, after := cleanJournal(t)
	if v := Reconcile(j, before, after); len(v) != 0 {
		t.Fatalf("clean run flagged: %v", v)
	}
}

func TestReconcileFlagsTamperedStats(t *testing.T) {
	j, before, after := cleanJournal(t)
	// Plant 1: drop a tx event from the journal.
	var tampered []Event
	for _, ev := range j.Events {
		if ev.Kind == KindTx && len(tampered) == 0 {
			continue
		}
		tampered = append(tampered, ev)
	}
	if v := Reconcile(&Journal{Events: tampered}, before, after); len(v) == 0 {
		t.Fatal("journal missing a tx not flagged against the collector")
	}
	// Plant 2: the journal claims bytes the collector never charged.
	inflated := append([]Event(nil), j.Events...)
	for i := range inflated {
		if inflated[i].Kind == KindTx {
			inflated[i].Bytes++
			break
		}
	}
	if v := Reconcile(&Journal{Events: inflated}, before, after); len(v) == 0 {
		t.Fatal("inflated journal bytes not flagged")
	}
}

func TestSegmentsAndPhaseSpans(t *testing.T) {
	j := &Journal{Events: []Event{
		{Kind: KindPhaseStart, Phase: "a", At: 0},
		{Kind: KindTx, Phase: "a", At: 1, Node: 2, MsgID: 1, Expect: 0, Packets: 3, Bytes: 100},
		{Kind: KindPhaseEnd, Phase: "a", At: 2},
		{Kind: KindPhaseStart, Phase: "a", At: 5},
		{Kind: KindPhaseEnd, Phase: "a", At: 7},
	}}
	segs := segments(j, "a")
	if len(segs) != 2 {
		t.Fatalf("segments = %d, want 2", len(segs))
	}
	spans := PhaseSpans(j)
	if len(spans) != 2 || spans[0].Duration() != 2 || spans[1].Duration() != 2 {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].TxPackets != 3 || spans[1].TxPackets != 0 {
		t.Fatalf("tx charged to wrong span: %+v", spans)
	}
	if !strings.Contains(PhaseBreakdown(j), "total") {
		t.Fatal("breakdown lacks total row")
	}
}

func TestFilterSoundness(t *testing.T) {
	clean := &Journal{Events: []Event{
		{Kind: KindSuppress, Node: 4, Peer: 7, Phase: "filter-dissem"},
	}}
	if v := FilterSoundness(clean, map[topology.NodeID]bool{8: true}); len(v) != 0 {
		t.Fatalf("non-contributing suppression flagged: %v", v)
	}
	if v := FilterSoundness(clean, map[topology.NodeID]bool{7: true}); len(v) == 0 {
		t.Fatal("contributing suppression not flagged")
	}
	// Under loss the audit must stand down: a lost Phase-A key
	// legitimately shrinks the filter.
	lossy := &Journal{Events: append([]Event{
		{Kind: KindLost, MsgID: 1, Node: 1, Peer: 2},
	}, clean.Events...)}
	if v := FilterSoundness(lossy, map[topology.NodeID]bool{7: true}); len(v) != 0 {
		t.Fatalf("lossy run flagged: %v", v)
	}
}

func TestExportsRoundTrip(t *testing.T) {
	j, _, _ := cleanJournal(t)
	j.Events = append([]Event{{Kind: KindPhaseStart, Phase: "p", At: 0}}, j.Events...)
	j.Events = append(j.Events, Event{Kind: KindPhaseEnd, Phase: "p", At: 1})

	var buf bytes.Buffer
	if err := WriteJSONL(&buf, j); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(j.Events) {
		t.Fatalf("JSONL lines = %d, want %d", len(lines), len(j.Events))
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if first["ev"] != "phase-start" {
		t.Fatalf("first line ev = %v", first["ev"])
	}

	buf.Reset()
	if err := WriteChrome(&buf, j); err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &chrome); err != nil {
		t.Fatal(err)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Fatal("empty chrome trace")
	}

	tl := Timeline(j, 60)
	if !strings.Contains(tl, "p") || !strings.Contains(tl, "timeline") {
		t.Fatalf("timeline output unexpected:\n%s", tl)
	}
}
