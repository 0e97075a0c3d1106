// Command sensjoinctl is the command-line client for sensjoind.
//
// Usage:
//
//	sensjoinctl [-addr 127.0.0.1:7077] [-method sens|external]
//	            [-at 0] [-rounds 1] [-nodes 0] [-seed 0] [-rows 10]
//	            [-trace id] "SELECT ... ONCE"
//
// One-shot queries print one table; periodic queries print one table
// per epoch (-rounds many). Facts about the execution (cache hit,
// shared execution, trace ID when span-sampled) go to stderr; tables
// go to stdout. A query or connection failure exits nonzero.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"sensjoin/pkg/client"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, runs the query and returns the
// exit status (2 for a usage error, 1 for a failure).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sensjoinctl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:7077", "sensjoind address")
	method := fs.String("method", "", "join method: sens (default) or external")
	at := fs.Float64("at", 0, "snapshot time of the first epoch")
	rounds := fs.Int("rounds", 1, "epochs to stream for a periodic query")
	nodes := fs.Int("nodes", 0, "deployment node-count override (0 = server default)")
	seed := fs.Int64("seed", 0, "deployment seed override (0 = server default)")
	maxRows := fs.Int("rows", 10, "result rows to print per epoch (0 = all)")
	traceID := fs.String("trace", "", "client-chosen trace ID (empty = server assigns)")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: sensjoinctl [flags] \"SELECT ...\"")
		fs.Usage()
		return 2
	}
	if err := query(*addr, fs.Arg(0), client.Options{
		Method: *method, At: *at, Rounds: *rounds, Nodes: *nodes, Seed: *seed,
		TraceID: *traceID,
	}, *maxRows, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "sensjoinctl:", err)
		return 1
	}
	return 0
}

// query runs src on the daemon at addr and prints every epoch's table.
func query(addr, src string, o client.Options, maxRows int, stdout, stderr io.Writer) error {
	c, err := client.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	fmt.Fprintf(stderr, "session %d on %d nodes (seed %d)\n",
		c.Hello.Session, c.Hello.Nodes, c.Hello.Seed)

	st, err := c.Stream(src, o)
	if err != nil {
		return err
	}
	defer st.Close()
	first := true
	for {
		t, err := st.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if first {
			facts := []string{}
			if t.CacheHit {
				facts = append(facts, "prepared-cache hit")
			}
			if t.Shared {
				facts = append(facts, fmt.Sprintf("shared execution (cluster of %d)", t.ClusterSize))
			}
			if t.Sampled {
				facts = append(facts, fmt.Sprintf("span-sampled as %s", t.TraceID))
			}
			if len(facts) > 0 {
				fmt.Fprintln(stderr, strings.Join(facts, ", "))
			}
			first = false
		}
		printTable(stdout, t, maxRows)
	}
}

func printTable(w io.Writer, t *client.Table, maxRows int) {
	fmt.Fprintf(w, "epoch %d (t=%g): %d row(s), %d/%d contributing nodes, complete=%t\n",
		t.Epoch, t.Time, len(t.Rows), t.Contributing, t.Members, t.Complete)
	fmt.Fprintln(w, strings.Join(t.Columns, "\t"))
	n := len(t.Rows)
	if maxRows > 0 && n > maxRows {
		n = maxRows
	}
	for _, row := range t.Rows[:n] {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = fmt.Sprintf("%.3f", v)
		}
		fmt.Fprintln(w, strings.Join(cells, "\t"))
	}
	if n < len(t.Rows) {
		fmt.Fprintf(w, "... (%d more rows)\n", len(t.Rows)-n)
	}
}
