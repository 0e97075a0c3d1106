package server

import (
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"sensjoin/internal/metrics"
	"sensjoin/internal/proto"
	"sensjoin/pkg/client"
)

// sharedSrc is a shareable continuous query: submitted together, copies
// of it form one shared batch.
const sharedSrc = `SELECT A.temp FROM Sensors A, Sensors B WHERE A.temp = B.temp SAMPLE PERIOD 30`

// flightRecord returns the newest flight record with the given trace
// ID, nil if there is none.
func flightRecord(s *Server, traceID string) *QueryRecord {
	for _, r := range s.Flight().Records() {
		if r.TraceID == traceID {
			return &r
		}
	}
	return nil
}

// waitAdmitted waits until the server has admitted n queries in all.
func waitAdmitted(t *testing.T, reg *metrics.Registry, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for reg.Snapshot()["sensjoind_queries_total"] != any(n) {
		if time.Now().After(deadline) {
			t.Fatalf("sensjoind_queries_total = %v, want %d", reg.Snapshot()["sensjoind_queries_total"], n)
		}
		time.Sleep(time.Millisecond)
	}
}

// answer is what one query's stream delivered on a raw session.
type answer struct {
	header proto.Header
	epochs int
	rows   int
	done   *proto.Done
	err    *proto.Error
}

// dialRaw opens a session and completes the handshake.
func dialRaw(t *testing.T, s *Server) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	if err := proto.WriteFrame(conn, proto.KindHello, proto.Hello{Version: proto.Version}); err != nil {
		t.Fatal(err)
	}
	if kind, _, err := proto.ReadFrame(conn); err != nil || kind != proto.KindHelloOK {
		t.Fatalf("handshake: kind %d, err %v", kind, err)
	}
	return conn
}

// readAnswers reads frames until every query in ids has its terminal
// frame. afterEpoch runs after each EpochEnd.
func readAnswers(t *testing.T, conn net.Conn, ids []int64, afterEpoch func(id int64)) map[int64]*answer {
	t.Helper()
	out := make(map[int64]*answer, len(ids))
	for _, id := range ids {
		out[id] = &answer{}
	}
	for open := len(ids); open > 0; {
		kind, payload, err := proto.ReadFrame(conn)
		if err != nil {
			t.Fatalf("reading answers: %v", err)
		}
		id, err := proto.PeekID(kind, payload)
		a := out[id]
		if err != nil || a == nil {
			t.Fatalf("unexpected frame kind %d for query %d (%v)", kind, id, err)
		}
		switch kind {
		case proto.KindHeader:
			proto.Decode(payload, &a.header)
		case proto.KindEpochEnd:
			var e proto.EpochEnd
			proto.Decode(payload, &e)
			a.epochs++
			a.rows += e.RowCount
			if afterEpoch != nil {
				afterEpoch(id)
			}
		case proto.KindDone:
			a.done = &proto.Done{}
			proto.Decode(payload, a.done)
			open--
		case proto.KindError:
			a.err = &proto.Error{}
			proto.Decode(payload, a.err)
			open--
		}
	}
	return out
}

// Every query runs through one epoch loop, whatever its shape: one-shot
// SENS-Join and external joins, a continuous query that cannot be
// shared, and a shared batch of three. Each gets its Header facts, a
// flight record filed before its Done, a span tree of only its own
// trace, one sensjoind_query_seconds observation per round, and a Done
// when it is canceled after epoch 0.
func TestExecutionContract(t *testing.T) {
	shapes := []struct {
		name    string
		src     string
		method  string
		rounds  int // epochs each member runs
		members int
	}{
		{"one-shot sens", testQueries[0], "", 1, 1},
		{"one-shot external", testQueries[0], "external", 1, 1},
		{"continuous external", sharedSrc, "external", 2, 1}, // only SENS-Join shares rounds
		{"shared batch", sharedSrc, "", 2, 3},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			s, reg := startTestServer(t, Config{TraceSample: 1, BatchWindow: 150 * time.Millisecond})
			conn := dialRaw(t, s)
			shared := sh.members > 1
			wantMethod := sh.method
			if wantMethod == "" {
				wantMethod = "sens"
			}
			submit := func(first int64, rounds int) []int64 {
				var ids []int64
				for k := 0; k < sh.members; k++ {
					id := first + int64(k)
					ids = append(ids, id)
					q := proto.Query{ID: id, Src: sh.src, Method: sh.method, Rounds: rounds,
						TraceID: fmt.Sprintf("%s/%d", sh.name, id)}
					if err := proto.WriteFrame(conn, proto.KindQuery, q); err != nil {
						t.Fatal(err)
					}
				}
				return ids
			}

			before := reg.Snapshot()["sensjoind_query_seconds_count"].(int64)
			ids := submit(1, sh.rounds)
			answers := readAnswers(t, conn, ids, nil)
			if got := reg.Snapshot()["sensjoind_query_seconds_count"].(int64) - before; got != int64(sh.rounds) {
				t.Errorf("sensjoind_query_seconds_count rose by %d, want one per round (%d)", got, sh.rounds)
			}
			misses := 0
			for _, id := range ids {
				a := answers[id]
				traceID := fmt.Sprintf("%s/%d", sh.name, id)
				if a.err != nil || a.done == nil || a.done.Epochs != sh.rounds || a.epochs != sh.rounds {
					t.Fatalf("query %d: err %+v, done %+v after %d epochs; want Done after %d", id, a.err, a.done, a.epochs, sh.rounds)
				}
				h := a.header
				if h.ClusterSize != sh.members || h.Shared != shared || h.TraceID != traceID || !h.Sampled {
					t.Errorf("query %d: Header %+v, want ClusterSize %d, Shared %t, TraceID %q, Sampled",
						id, h, sh.members, shared, traceID)
				}
				if !h.CacheHit {
					misses++
				}

				rec := flightRecord(s, traceID)
				if rec == nil {
					t.Fatalf("query %d: no flight record once Done was read", id)
				}
				if rec.Method != wantMethod || (rec.Group != "") != shared || rec.Epochs != sh.rounds ||
					rec.Rows != a.rows || !rec.Complete || len(rec.Phases) == 0 || rec.CacheHit != h.CacheHit {
					t.Errorf("query %d: record %+v; want method %s, group set %t, %d epochs, %d rows, complete, phases",
						id, rec, wantMethod, shared, sh.rounds, a.rows)
				}
				spans, ok := s.Flight().Spans(traceID)
				if !ok || len(spans) == 0 {
					t.Fatalf("query %d: no span tree", id)
				}
				for _, ev := range spans {
					if ev.Trace != traceID {
						t.Fatalf("query %d: span tree holds an event of trace %q", id, ev.Trace)
					}
				}
			}
			if misses != 1 {
				t.Errorf("%d members missed the prepared cache, want the first one only", misses)
			}

			// Cancel every member after its epoch 0: each stream ends with Done.
			ids = submit(100, maxRounds)
			answers = readAnswers(t, conn, ids, func(id int64) {
				proto.WriteFrame(conn, proto.KindCancel, proto.Cancel{ID: id})
			})
			for _, id := range ids {
				a := answers[id]
				if a.err != nil || a.done == nil || a.done.Epochs < 1 || (sh.rounds > 1 && a.done.Epochs >= maxRounds) {
					t.Errorf("canceled query %d: err %+v, done %+v; want Done after epoch 0", id, a.err, a.done)
				}
			}
		})
	}
}

// Close during a batch window: the three admitted queries form their
// batch after Close has begun and still run epoch 0 — an admitted
// execution always runs its first epoch; only later ones stop on drain.
func TestDrainRunsAdmittedBatch(t *testing.T) {
	s, reg := startTestServer(t, Config{BatchWindow: 100 * time.Millisecond})
	c, err := client.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 3
	for i := 0; i < n; i++ {
		if _, err := c.Stream(sharedSrc, client.Options{Rounds: 2}); err != nil {
			t.Fatal(err)
		}
	}
	waitAdmitted(t, reg, n)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	recs := s.Flight().Records()
	if len(recs) != n {
		t.Fatalf("%d flight records, want %d", len(recs), n)
	}
	for _, rec := range recs {
		if rec.Epochs != 1 {
			t.Errorf("member %d ran %d epochs across Close, want 1", rec.ID, rec.Epochs)
		}
	}
}

// What a drained query ran reaches its client: Close answers the
// session with a last shutdown Error behind the query's frames instead
// of closing the connection under them.
func TestDrainDeliversWhatItRan(t *testing.T) {
	s, reg := startTestServer(t, Config{})
	c, err := client.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.Stream(`SELECT A.temp, B.temp FROM Sensors A, Sensors B WHERE A.temp - B.temp > 5 SAMPLE PERIOD 30`,
		client.Options{Method: "external", Nodes: 1200, Rounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitAdmitted(t, reg, 1)
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	if _, err := st.Next(); err != nil {
		t.Fatalf("epoch 0 of a query admitted before Close: %v", err)
	}
	if _, err := st.Next(); err != io.EOF {
		t.Fatalf("after epoch 0: %v, want io.EOF", err)
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
}
