package server

import (
	"sync"
	"testing"
	"time"

	"sensjoin/internal/metrics"
	"sensjoin/internal/proto"
	"sensjoin/pkg/client"
)

// A query takes its execution slot before its runner and hands the
// runner back before the slot, so a closed loop with more queries
// outstanding than slots never leases more runners than the pool keeps:
// once both of a two-slot daemon's runners exist, eight pipelined
// callers of mixed shapes build no other — also when every query is
// sampled, since a sampled execution journals into its own recorder and
// leaves its runner as clean as an unsampled one. A query canceled while
// it waits for its slot ends with its Done and leases nothing — with both
// idle runners taken out of the pool, a lease would have to build one.
func TestClosedLoopKeepsRunnersWarm(t *testing.T) {
	const nodes = 300 // rounds of a few milliseconds keep the slot queue occupied
	closedLoop := func(cfg Config) (*Server, *metrics.Registry, func() int64, *pool) {
		s, reg := startTestServer(t, cfg)
		built := func() int64 { return reg.Snapshot()["sensjoind_runners_built_total"].(int64) }
		pl, err := s.poolFor(nodes, 0)
		if err != nil {
			t.Fatal(err)
		}
		a, err := pl.runners.Get()
		if err != nil {
			t.Fatal(err)
		}
		b, err := pl.runners.Get()
		if err != nil {
			t.Fatal(err)
		}
		pl.runners.Put(a)
		pl.runners.Put(b)

		var conns [2]*client.Client
		for i := range conns {
			if conns[i], err = client.Dial(s.Addr().String()); err != nil {
				t.Fatal(err)
			}
			defer conns[i].Close()
		}
		loop := func(total int) {
			t.Helper()
			const callers = 8
			var wg sync.WaitGroup
			errs := make([]error, callers)
			for k := 0; k < callers; k++ {
				wg.Add(1)
				go func(k int) {
					defer wg.Done()
					c := conns[k%len(conns)]
					for i := k; i < total && errs[k] == nil; i += callers {
						_, errs[k] = c.QueryOpts(testQueries[i%len(testQueries)], client.Options{Nodes: nodes})
					}
				}(k)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		loop(32) // prepared cache and both runners' storage warm
		before := built()
		loop(200)
		if n := built() - before; n != 0 {
			t.Errorf("TraceSample %g: 200 queries at 8 outstanding on 2 slots built %d runners, want 0",
				cfg.TraceSample, n)
		}
		return s, reg, built, pl
	}
	closedLoop(Config{MaxConcurrent: 2, TraceSample: 1})
	s, reg, built, pl := closedLoop(Config{MaxConcurrent: 2})

	// Hold both slots and lease both idle runners, then cancel a queued query.
	for range cap(s.execSem) {
		s.execSem <- struct{}{}
	}
	a, _ := pl.runners.Get()
	b, _ := pl.runners.Get()
	before := built()
	conn := dialRaw(t, s)
	admitted := reg.Snapshot()["sensjoind_queries_total"].(int64)
	if err := proto.WriteFrame(conn, proto.KindQuery, proto.Query{ID: 1, Src: testQueries[0], Nodes: nodes}); err != nil {
		t.Fatal(err)
	}
	waitAdmitted(t, reg, admitted+1)
	time.Sleep(20 * time.Millisecond) // let it reach the slot queue
	if err := proto.WriteFrame(conn, proto.KindCancel, proto.Cancel{ID: 1}); err != nil {
		t.Fatal(err)
	}
	ans := readAnswers(t, conn, []int64{1}, nil)[1]
	if ans.err != nil || ans.done == nil || ans.done.Epochs != 0 {
		t.Errorf("query canceled while queued: err %+v, done %+v; want Done after 0 epochs", ans.err, ans.done)
	}
	if n := built() - before; n != 0 {
		t.Errorf("a query canceled while queued built %d runners, want none leased", n)
	}
	pl.runners.Put(a)
	pl.runners.Put(b)
	for range cap(s.execSem) {
		<-s.execSem
	}
}
