package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sensjoin/internal/trace"
	"sensjoin/pkg/client"
)

// The flight recorder is written by every finishing query and read by
// the debug endpoint under full concurrency; this test hammers both
// sides (run under -race in CI) and checks the ring stays bounded and
// newest-first.
func TestFlightRecorderConcurrent(t *testing.T) {
	const capacity = 64
	f := newFlightRecorder(capacity)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := fmt.Sprintf("t-%d-%d", w, i)
				f.Record(QueryRecord{TraceID: id, Session: int64(w), ID: int64(i)},
					[]trace.Event{{Trace: id}})
			}
		}(w)
	}
	for rdr := 0; rdr < 4; rdr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				recs := f.Records()
				if len(recs) > capacity {
					panic("ring over capacity")
				}
				if len(recs) > 0 {
					f.Spans(recs[0].TraceID)
				}
			}
		}()
	}
	wg.Wait()
	recs := f.Records()
	if len(recs) != capacity {
		t.Fatalf("retained %d records, want the full ring of %d", len(recs), capacity)
	}
	for _, rec := range recs {
		spans, ok := f.Spans(rec.TraceID)
		if !ok || len(spans) != 1 || spans[0].Trace != rec.TraceID {
			t.Fatalf("record %s: spans not retained with it", rec.TraceID)
		}
	}
}

// One sampled query end to end: the trace ID round-trips client →
// server → Header, the flight recorder holds the phase breakdown, the
// span tree is served over HTTP, and every event in it carries the
// query's trace ID.
func TestServerTraceEndToEnd(t *testing.T) {
	s, reg := startTestServer(t, Config{TraceSample: 1})
	c, err := client.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const traceID = "my-trace-1"
	tb, err := c.QueryOpts(`SELECT A.temp FROM Sensors A, Sensors B WHERE A.temp - B.temp > 8 ONCE`,
		client.Options{TraceID: traceID})
	if err != nil {
		t.Fatal(err)
	}
	if tb.TraceID != traceID {
		t.Fatalf("Table.TraceID = %q, want the client-chosen %q", tb.TraceID, traceID)
	}
	if !tb.Sampled {
		t.Fatal("Table.Sampled = false under TraceSample 1")
	}

	// The flight recorder has the record, with a phase breakdown: the
	// server files it before it queues Done, which the client has read.
	rec := flightRecord(s, traceID)
	if rec == nil {
		t.Fatal("query not in the flight recorder")
	}
	if rec.Epochs != 1 || !rec.Sampled || !rec.Complete {
		t.Fatalf("record = %+v, want 1 complete sampled epoch", rec)
	}
	if len(rec.Phases) == 0 {
		t.Fatal("record has no phase breakdown")
	}
	for _, p := range rec.Phases {
		if p.Seconds < 0 {
			t.Fatalf("phase %s has negative duration %v", p.Phase, p.Seconds)
		}
	}

	// The span tree is non-empty, served over HTTP as JSONL, and every
	// event — radio and span alike — carries the query's trace ID.
	mux := ObsMux(reg, "")
	s.AttachDebug(mux)
	hs := httptest.NewServer(mux)
	defer hs.Close()

	resp, err := http.Get(hs.URL + "/debug/queries?trace=" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET ?trace=: status %d: %s", resp.StatusCode, body)
	}
	j, err := trace.ReadJSONL(strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("span tree is not canonical journal JSONL: %v", err)
	}
	if len(j.Events) < 10 {
		t.Fatalf("span tree has %d events, want a full protocol execution", len(j.Events))
	}
	radio, phases := 0, 0
	for _, ev := range j.Events {
		if ev.Trace != traceID {
			t.Fatalf("event %+v carries trace %q, want %q", ev, ev.Trace, traceID)
		}
		if ev.Kind.Radio() {
			radio++
		}
		if ev.Kind == trace.KindPhaseStart {
			phases++
		}
	}
	if radio == 0 || phases == 0 {
		t.Fatalf("span tree has %d radio events and %d phase starts, want both > 0", radio, phases)
	}

	// The record list endpoint includes the query.
	resp, err = http.Get(hs.URL + "/debug/queries")
	if err != nil {
		t.Fatal(err)
	}
	var recs []QueryRecord
	if err := json.NewDecoder(resp.Body).Decode(&recs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	found := false
	for _, r := range recs {
		found = found || r.TraceID == traceID
	}
	if !found {
		t.Fatal("/debug/queries does not list the query")
	}

	// The per-phase histogram family observed the sampled query.
	snap := reg.Snapshot()
	total := int64(0)
	for k, v := range snap {
		if strings.HasPrefix(k, `sensjoind_query_phase_seconds{phase="`) && strings.HasSuffix(k, `_count`) {
			total += v.(int64)
		}
	}
	if total == 0 {
		t.Fatal("sensjoind_query_phase_seconds observed nothing")
	}
}

// Shared (grouped) execution: each member keeps its own trace identity.
// The group's shared protocol rounds live under the group's trace ID,
// and a member's span tree holds exactly its own per-epoch result
// fan-out — nothing from its cluster mates.
func TestServerGroupTracePropagation(t *testing.T) {
	s, _ := startTestServer(t, Config{TraceSample: 1, BatchWindow: 150 * time.Millisecond})
	src := `SELECT A.temp FROM Sensors A, Sensors B WHERE A.temp = B.temp SAMPLE PERIOD 30`

	const n = 3
	const rounds = 2
	var wg sync.WaitGroup
	traceIDs := make([]string, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := client.Dial(s.Addr().String())
			if err != nil {
				errs[i] = err
				return
			}
			defer c.Close()
			st, err := c.Stream(src, client.Options{Rounds: rounds})
			if err != nil {
				errs[i] = err
				return
			}
			for {
				tb, err := st.Next()
				if err == io.EOF {
					return
				}
				if err != nil {
					errs[i] = err
					return
				}
				if !tb.Shared {
					errs[i] = fmt.Errorf("member %d not shared", i)
					return
				}
				traceIDs[i] = tb.TraceID
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	seen := map[string]bool{}
	var groupID string
	for i, id := range traceIDs {
		if id == "" {
			t.Fatalf("member %d got no trace ID", i)
		}
		if seen[id] {
			t.Fatalf("trace ID %q assigned to two members", id)
		}
		seen[id] = true

		var rec *QueryRecord
		for _, r := range s.Flight().Records() {
			if r.TraceID == id {
				rec = &r
				break
			}
		}
		if rec == nil {
			t.Fatalf("member %d not in the flight recorder", i)
		}
		if rec.Group == "" || !rec.Shared || rec.ClusterSize != n {
			t.Fatalf("member record = %+v, want shared cluster of %d with a group ID", rec, n)
		}
		if groupID == "" {
			groupID = rec.Group
		} else if rec.Group != groupID {
			t.Fatalf("members span two groups: %q and %q", rec.Group, groupID)
		}
		if len(rec.Phases) == 0 {
			t.Fatalf("member %d record has no phase breakdown", i)
		}

		// The member's span tree: exactly its own rows fan-out.
		spans, ok := s.Flight().Spans(id)
		if !ok {
			t.Fatalf("member %d has no retained spans", i)
		}
		if len(spans) != rounds {
			t.Fatalf("member %d has %d spans, want one fan-out per epoch (%d)", i, len(spans), rounds)
		}
		for _, ev := range spans {
			if ev.Kind != trace.KindFanout {
				t.Fatalf("member %d span tree contains a %s event; want only fan-out", i, ev.Kind)
			}
			if ev.Trace != id {
				t.Fatalf("member %d span tagged %q", i, ev.Trace)
			}
		}
	}

	// The group's own record holds the shared radio timeline.
	groupSpans, ok := s.Flight().Spans(groupID)
	if !ok || len(groupSpans) == 0 {
		t.Fatalf("group %q has no retained spans", groupID)
	}
	radio := 0
	for _, ev := range groupSpans {
		if ev.Kind.Radio() {
			radio++
		}
	}
	if radio == 0 {
		t.Fatal("group span tree has no radio events")
	}
}
