// Command sensjoin runs one query on a simulated sensor network and
// prints the result, the per-phase communication costs, and (optionally)
// a comparison against the external join.
//
// Usage:
//
//	sensjoin [-nodes 300] [-seed 1] [-method sens|external|noquad]
//	         [-compare] [-rows 10] [-flood] [-audit] [-trace run.jsonl]
//	         [-metrics out.prom] "SELECT ... ONCE"
//
// Example (the paper's Q1):
//
//	sensjoin -nodes 500 -compare \
//	  "SELECT MIN(distance(A.x, A.y, B.x, B.y)) FROM Sensors A, Sensors B
//	   WHERE A.temp - B.temp > 10.0 ONCE"
package main

import (
	"compress/gzip"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"sensjoin"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// methods maps each -method value to its constructor.
var methods = map[string]func() sensjoin.Method{
	"sens":        sensjoin.SENSJoin,
	"external":    sensjoin.ExternalJoin,
	"noquad":      sensjoin.SENSJoinNoQuad,
	"mediated":    sensjoin.MediatedJoin,
	"semi":        sensjoin.SemiJoinMethod,
	"incremental": sensjoin.ContinuousSENSJoin,
}

// run is the command: it parses args, runs the query and returns the
// exit status (2 for a usage error, 1 for a failure).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sensjoin", flag.ContinueOnError)
	fs.SetOutput(stderr)
	nodes := fs.Int("nodes", 300, "sensor node count")
	seed := fs.Int64("seed", 1, "placement and field seed")
	method := fs.String("method", "sens", "join method: sens, external, noquad, mediated, semi, or incremental")
	explain := fs.Bool("explain", false, "print the execution plan instead of running")
	advise := fs.Bool("advise", false, "print the cost model's method recommendation")
	compare := fs.Bool("compare", false, "also run the external join and report savings")
	maxRows := fs.Int("rows", 10, "result rows to print (0 = all)")
	flood := fs.Bool("flood", false, "include query dissemination in the run")
	traceFile := fs.String("trace", "", "write the execution journal as JSON Lines to this file (plus a Chrome trace alongside) and print the phase breakdown")
	audit := fs.Bool("audit", false, "self-audit the execution against its journal; violations exit nonzero")
	metricsFile := fs.String("metrics", "", `write live instrument values in Prometheus text format to this file after the run ("-" = stderr)`)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	src := strings.Join(fs.Args(), " ")
	if strings.TrimSpace(src) == "" {
		fmt.Fprintln(stderr, "usage: sensjoin [flags] \"SELECT ... ONCE\"")
		fs.PrintDefaults()
		return 2
	}
	newMethod, ok := methods[*method]
	if !ok {
		fmt.Fprintf(stderr, "sensjoin: unknown method %q\n", *method)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "sensjoin:", err)
		return 1
	}

	net, err := sensjoin.NewNetwork(sensjoin.Config{Nodes: *nodes, Seed: *seed})
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "network: %d nodes, %.0fx%.0f m, avg degree %.1f, tree depth %d\n",
		net.Nodes(), net.Area().Width(), net.Area().Height(), net.AvgDegree(), net.TreeDepth())

	if *explain {
		plan, err := net.Explain(src)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, plan)
		return 0
	}
	if *advise {
		a, err := net.Advise(src)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "recommendation: %s\n", a.Use)
		fmt.Fprintf(stdout, "  predicted packets: external %.0f, sens-join %.0f\n", a.PredictedExternal, a.PredictedSENS)
		fmt.Fprintf(stdout, "  expected result fraction: %.1f%%, break-even near %.0f%%\n",
			100*a.ExpectedFraction, 100*a.BreakEvenFraction)
		return 0
	}

	m := newMethod()
	if *traceFile != "" {
		net.EnableJournal()
	}
	if *metricsFile != "" {
		net.EnableMetrics()
	}
	if *flood {
		if err := net.DisseminateQuery(src); err != nil {
			return fail(err)
		}
	}
	var res *sensjoin.Result
	if *audit {
		var violations []string
		res, violations, err = net.ExecuteAudited(src, m)
		if err != nil {
			return fail(err)
		}
		for _, v := range violations {
			fmt.Fprintln(stderr, "audit violation:", v)
		}
		if len(violations) > 0 {
			return fail(fmt.Errorf("%d audit violation(s)", len(violations)))
		}
		fmt.Fprintln(stdout, "audit: conservation, reconciliation, slot order, filter soundness — clean")
	} else {
		res, err = net.Execute(src, m)
		if err != nil {
			return fail(err)
		}
	}
	if *traceFile != "" {
		if err := writeJournal(net, *traceFile, stdout); err != nil {
			return fail(err)
		}
	}

	fmt.Fprintf(stdout, "\nresult: %d row(s), %d of %d member nodes contributing (%.1f%%), response %.1fs\n",
		len(res.Rows), res.ContributingNodes, res.MemberNodes, 100*res.Fraction(), res.ResponseTime)
	fmt.Fprintln(stdout, strings.Join(res.Columns, " | "))
	for i, row := range res.Rows {
		if *maxRows > 0 && i >= *maxRows {
			fmt.Fprintf(stdout, "... (%d more)\n", len(res.Rows)-i)
			break
		}
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = fmt.Sprintf("%.4g", v)
		}
		fmt.Fprintln(stdout, strings.Join(cells, " | "))
	}

	fmt.Fprintf(stdout, "\ncommunication (%s):\n%s", m.Name(), net.PhaseTable())
	total := net.TotalPackets(m)
	fmt.Fprintf(stdout, "total: %d packets, %.1f mJ estimated radio energy\n", total, 1000*net.TotalEnergy())

	if *compare && *method != "external" {
		net.ResetStats()
		if _, err := net.Execute(src, sensjoin.ExternalJoin()); err != nil {
			return fail(err)
		}
		ext := net.TotalPackets(sensjoin.ExternalJoin())
		fmt.Fprintf(stdout, "\nexternal join: %d packets -> savings %.1f%%\n",
			ext, 100*(1-float64(total)/float64(ext)))
	}

	if *metricsFile != "" {
		if err := writeMetricsOut(net, *metricsFile, stderr); err != nil {
			return fail(err)
		}
	}
	return 0
}

// writeMetricsOut dumps the live instruments in Prometheus text format
// to path ("-" = stderr).
func writeMetricsOut(net *sensjoin.Network, path string, stderr io.Writer) error {
	if path == "-" {
		return net.WriteMetrics(stderr)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := net.WriteMetrics(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeJournal exports the execution journal as JSON Lines plus a Chrome
// trace_event file (gzipped when path ends in ".gz") and prints the
// per-phase breakdown to stdout.
func writeJournal(net *sensjoin.Network, path string, stdout io.Writer) error {
	if err := writeMaybeGz(path, net.WriteTrace); err != nil {
		return err
	}
	chrome := strings.TrimSuffix(path, ".gz")
	if strings.HasSuffix(path, ".gz") {
		chrome += ".chrome.json.gz"
	} else {
		chrome += ".chrome.json"
	}
	if err := writeMaybeGz(chrome, net.WriteChromeTrace); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\njournal -> %s (+ %s)\n%s", path, chrome, net.PhaseBreakdown())
	return nil
}

// writeMaybeGz creates path and streams write into it, through gzip
// when the path ends in ".gz".
func writeMaybeGz(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var w io.Writer = f
	var gz *gzip.Writer
	if strings.HasSuffix(path, ".gz") {
		gz = gzip.NewWriter(f)
		w = gz
	}
	if err := write(w); err != nil {
		f.Close()
		return err
	}
	if gz != nil {
		if err := gz.Close(); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
