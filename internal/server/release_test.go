package server

import (
	"io"
	"os"
	"sync"
	"testing"
	"time"

	"sensjoin/internal/core"
	"sensjoin/internal/tabledigest"
	"sensjoin/pkg/client"
)

// Every test of this package runs with released result storage poisoned:
// a table the daemon encoded after releasing its rows would carry
// sentinel cells or empty rows, and the byte-identity tests would see it.
func TestMain(m *testing.M) {
	core.PoisonReleased.Store(true)
	os.Exit(m.Run())
}

// pipelinedSrc is a continuous band join of a few thousand rows an
// epoch: several Rows chunks, so the write loop is still encoding epoch
// e while the runner computes epoch e+1.
const pipelinedSrc = `SELECT A.temp, B.temp, A.hum FROM Sensors A, Sensors B WHERE A.temp - B.temp > 1 SAMPLE PERIOD 30`

// continuousReference runs src's first epochs directly through the
// library, on one runner as the daemon does.
func continuousReference(t *testing.T, src string, epochs int) []tabledigest.Table[core.Row] {
	t.Helper()
	r, err := core.NewRunner(core.SetupConfig{Nodes: testNodes, Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewContinuousSENSJoin()
	var tables []tabledigest.Table[core.Row]
	for e := 0; e < epochs; e++ {
		res, err := r.Run(src, m, float64(e)*30)
		if err != nil {
			t.Fatal(err)
		}
		tables = append(tables, res.Table())
	}
	return tables
}

// streamAll reads every epoch of src, the first only after delay.
func streamAll(c *client.Client, src string, rounds int, delay time.Duration) ([]*client.Table, error) {
	st, err := c.Stream(src, client.Options{Rounds: rounds})
	if err != nil {
		return nil, err
	}
	time.Sleep(delay)
	var tables []*client.Table
	for {
		tb, err := st.Next()
		if err == io.EOF {
			return tables, nil
		}
		if err != nil {
			return nil, err
		}
		tables = append(tables, tb)
	}
}

// The daemon releases a result once its write loop has encoded the
// epoch's last Rows chunk, and its storage serves a later epoch. With
// released storage poisoned, every table a client receives still equals
// direct library execution — a one-shot query of each shape, a pipelined
// continuous query whose epochs share one leased runner, and a shared
// batch of three — and the daemon did release the results. A second
// Release of one result hands its storage back once only.
func TestResultReleasePoisoned(t *testing.T) {
	if !core.PoisonReleased.Load() {
		t.Fatal("released storage is not poisoned")
	}
	const epochs = 3

	t.Run("one-shot", func(t *testing.T) {
		s, _ := startTestServer(t, Config{})
		c, err := client.Dial(s.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		before := core.Poisoned.Load()
		for _, src := range testQueries {
			tb, err := c.Query(src)
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			if d := tabledigest.Diff(clientTable(tb), reference(t, src, 0)); d != "" {
				t.Fatalf("table differs from direct execution for %s: %s", src, d)
			}
		}
		// Three of the four are plain indexed joins; the aggregate's one
		// row has no storage to release.
		if got := core.Poisoned.Load() - before; got < 3 {
			t.Errorf("%d results released, want >= 3", got)
		}
	})

	t.Run("pipelined continuous", func(t *testing.T) {
		s, _ := startTestServer(t, Config{})
		c, err := client.Dial(s.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		want := continuousReference(t, pipelinedSrc, epochs)
		before := core.Poisoned.Load()
		tables, err := streamAll(c, pipelinedSrc, epochs, 50*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if len(tables) != epochs {
			t.Fatalf("got %d epochs, want %d", len(tables), epochs)
		}
		for e, tb := range tables {
			if len(tb.Rows) <= 512 {
				t.Fatalf("epoch %d has %d rows: one chunk, nothing to pipeline", e, len(tb.Rows))
			}
			if d := tabledigest.Diff(clientTable(tb), want[e]); d != "" {
				t.Fatalf("epoch %d differs from direct execution: %s", e, d)
			}
		}
		if got := core.Poisoned.Load() - before; got < epochs {
			t.Errorf("%d results released, want one per epoch (%d)", got, epochs)
		}
	})

	t.Run("shared batch", func(t *testing.T) {
		s, _ := startTestServer(t, Config{BatchWindow: 150 * time.Millisecond})
		want := continuousReference(t, pipelinedSrc, epochs)
		before := core.Poisoned.Load()
		const members = 3
		tables := make([][]*client.Table, members)
		errs := make([]error, members)
		var wg sync.WaitGroup
		for i := range members {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c, err := client.Dial(s.Addr().String())
				if err != nil {
					errs[i] = err
					return
				}
				defer c.Close()
				tables[i], errs[i] = streamAll(c, pipelinedSrc, epochs, time.Duration(i)*20*time.Millisecond)
			}()
		}
		wg.Wait()
		for i := range members {
			if errs[i] != nil {
				t.Fatalf("member %d: %v", i, errs[i])
			}
			if len(tables[i]) != epochs || !tables[i][0].Shared || tables[i][0].ClusterSize != members {
				t.Fatalf("member %d: %d epochs, want %d of a shared cluster of %d", i, len(tables[i]), epochs, members)
			}
			for e, tb := range tables[i] {
				if d := tabledigest.Diff(clientTable(tb), want[e]); d != "" {
					t.Fatalf("member %d epoch %d differs from direct execution: %s", i, e, d)
				}
			}
		}
		if got := core.Poisoned.Load() - before; got < members*epochs {
			t.Errorf("%d results released, want one per member and epoch (%d)", got, members*epochs)
		}
	})

	t.Run("double release", func(t *testing.T) {
		r, err := core.NewRunner(core.SetupConfig{Nodes: testNodes, Seed: testSeed})
		if err != nil {
			t.Fatal(err)
		}
		src := testQueries[0]
		want := reference(t, src, 0)
		run := func() *core.Result {
			res, err := r.Run(src, core.NewSENSJoin(), 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) == 0 {
				t.Fatal("fixture drifted: no rows")
			}
			return res
		}
		first := run()
		before := core.Poisoned.Load()
		first.Release()
		second := run() // carved from first's storage
		first.Release() // a no-op: must not poison second
		third := run()  // needs storage of its own
		if got := core.Poisoned.Load() - before; got != 1 {
			t.Errorf("two Release calls poisoned %d times, want once", got)
		}
		if &second.Rows[0][0] == &third.Rows[0][0] {
			t.Error("the storage released twice served two live results")
		}
		for name, res := range map[string]*core.Result{"second": second, "third": third} {
			if d := tabledigest.Diff(res.Table(), want); d != "" {
				t.Errorf("the %s result differs from direct execution: %s", name, d)
			}
		}
		var none *core.Result
		none.Release() // nil-safe
	})
}
