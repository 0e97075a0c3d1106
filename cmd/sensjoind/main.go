// Command sensjoind is the sensjoin query daemon: a long-running
// server that executes queries on simulated sensor-network deployments
// for many concurrent client sessions.
//
// Usage:
//
//	sensjoind [-listen 127.0.0.1:7077] [-http 127.0.0.1:7078]
//	          [-nodes 150] [-seed 1] [-packet 0]
//	          [-max-sessions 256] [-max-concurrent 0] [-max-queue 0]
//	          [-batch-window 25ms] [-idle-timeout 5m] [-trace-sample 0]
//
// -listen is the query protocol port (see PROTOCOL.md, pkg/client).
// -http serves observability: /metrics (Prometheus), /healthz,
// /debug/vars (expvar's memstats and cmdline), /debug/pprof/ and the
// /debug/queries flight recorder ("" disables it). -trace-sample sets
// the fraction of queries whose full span tree is captured and served at
// /debug/queries?trace=<id>.
//
// SIGINT/SIGTERM drain the server gracefully (in-flight queries finish,
// continuous queries end their epoch loops early) and exit 0.
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sensjoin/internal/metrics"
	"sensjoin/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, serves until SIGINT or SIGTERM and
// returns the exit status (2 for a usage error, 1 for a failure). It
// prints only to stderr.
func run(args []string, _, stderr io.Writer) int {
	fs := flag.NewFlagSet("sensjoind", flag.ContinueOnError)
	fs.SetOutput(stderr)
	listen := fs.String("listen", "127.0.0.1:7077", "query protocol listen address")
	httpAddr := fs.String("http", "", "observability HTTP listen address (e.g. 127.0.0.1:7078; empty = off)")
	nodes := fs.Int("nodes", 150, "default deployment: sensor node count")
	seed := fs.Int64("seed", 1, "default deployment: placement and field seed")
	packet := fs.Int("packet", 0, "radio maximum packet size in bytes (0 = paper default)")
	maxSessions := fs.Int("max-sessions", 256, "maximum concurrently open client sessions")
	maxConcurrent := fs.Int("max-concurrent", 0, "maximum concurrently executing queries (0 = GOMAXPROCS)")
	maxQueue := fs.Int("max-queue", 0, "admitted-but-waiting query bound beyond -max-concurrent (0 = 4x)")
	batchWindow := fs.Duration("batch-window", 25*time.Millisecond, "grouping window for compatible continuous queries")
	idleTimeout := fs.Duration("idle-timeout", 5*time.Minute, "close sessions idle for this long")
	queryTimeout := fs.Duration("query-timeout", 5*time.Minute, "per-epoch execution deadline; expiry answers a timeout error and frees the slot")
	traceSample := fs.Float64("trace-sample", 0, "fraction of queries (0..1) whose span tree is captured into /debug/queries")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(stderr, "sensjoind takes no positional arguments")
		fs.Usage()
		return 2
	}
	if err := serve(*listen, *httpAddr, server.Config{
		Nodes: *nodes, Seed: *seed, MaxPacket: *packet,
		MaxSessions: *maxSessions, MaxConcurrent: *maxConcurrent, MaxQueue: *maxQueue,
		BatchWindow: *batchWindow, IdleTimeout: *idleTimeout, QueryTimeout: *queryTimeout,
		TraceSample: *traceSample,
	}, stderr); err != nil {
		fmt.Fprintln(stderr, "sensjoind:", err)
		return 1
	}
	return 0
}

// serve runs the daemon until SIGINT or SIGTERM, then drains it. The
// signals are caught before the listen addresses are printed, so a
// caller that has read them can stop the daemon with either.
func serve(listen, httpAddr string, cfg server.Config, stderr io.Writer) error {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	reg := metrics.New()
	cfg.Registry = reg
	cfg.Logger = slog.New(slog.NewTextHandler(stderr, nil))

	srv, err := server.Listen(listen, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "sensjoind: serving queries on %s (nodes=%d seed=%d)\n",
		srv.Addr(), cfg.Nodes, cfg.Seed)

	var obs *server.ObsHTTP
	if httpAddr != "" {
		ln, err := net.Listen("tcp", httpAddr)
		if err != nil {
			srv.Close()
			return err
		}
		mux := server.ObsMux(reg, "sensjoind: /metrics /healthz /debug/vars /debug/pprof/ /debug/queries")
		srv.AttachDebug(mux)
		obs = server.StartObsHTTP(ln, mux, cfg.Logger)
		fmt.Fprintf(stderr, "sensjoind: observability on http://%s/ (metrics, pprof, debug/queries)\n", ln.Addr())
	}

	got := <-sig
	fmt.Fprintf(stderr, "sensjoind: %v: draining\n", got)
	err = srv.Close()
	if obs != nil {
		obs.Stop()
	}
	fmt.Fprintln(stderr, "sensjoind: bye")
	return err
}
