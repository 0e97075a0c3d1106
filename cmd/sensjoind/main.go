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
// /debug/vars, /debug/pprof/ and the /debug/queries flight recorder
// ("" disables it). -trace-sample sets the fraction of queries whose
// full span tree is captured and served at /debug/queries?trace=<id>.
//
// SIGINT/SIGTERM drain the server gracefully (in-flight queries finish,
// continuous queries end their epoch loops early) and exit 0.
package main

import (
	"flag"
	"fmt"
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
	listen := flag.String("listen", "127.0.0.1:7077", "query protocol listen address")
	httpAddr := flag.String("http", "", "observability HTTP listen address (e.g. 127.0.0.1:7078; empty = off)")
	nodes := flag.Int("nodes", 150, "default deployment: sensor node count")
	seed := flag.Int64("seed", 1, "default deployment: placement and field seed")
	packet := flag.Int("packet", 0, "radio maximum packet size in bytes (0 = paper default)")
	maxSessions := flag.Int("max-sessions", 256, "maximum concurrently open client sessions")
	maxConcurrent := flag.Int("max-concurrent", 0, "maximum concurrently executing queries (0 = GOMAXPROCS)")
	maxQueue := flag.Int("max-queue", 0, "admitted-but-waiting query bound beyond -max-concurrent (0 = 4x)")
	batchWindow := flag.Duration("batch-window", 25*time.Millisecond, "grouping window for compatible continuous queries")
	idleTimeout := flag.Duration("idle-timeout", 5*time.Minute, "close sessions idle for this long")
	queryTimeout := flag.Duration("query-timeout", 5*time.Minute, "per-epoch execution deadline; expiry answers a timeout error and frees the slot")
	traceSample := flag.Float64("trace-sample", 0, "fraction of queries (0..1) whose span tree is captured into /debug/queries")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "sensjoind takes no positional arguments")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*listen, *httpAddr, server.Config{
		Nodes: *nodes, Seed: *seed, MaxPacket: *packet,
		MaxSessions: *maxSessions, MaxConcurrent: *maxConcurrent, MaxQueue: *maxQueue,
		BatchWindow: *batchWindow, IdleTimeout: *idleTimeout, QueryTimeout: *queryTimeout,
		TraceSample: *traceSample,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "sensjoind:", err)
		os.Exit(1)
	}
}

func run(listen, httpAddr string, cfg server.Config) error {
	reg := metrics.New()
	cfg.Registry = reg
	cfg.Logger = slog.New(slog.NewTextHandler(os.Stderr, nil))

	srv, err := server.Listen(listen, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "sensjoind: serving queries on %s (nodes=%d seed=%d)\n",
		srv.Addr(), cfg.Nodes, cfg.Seed)

	var obs *server.ObsHTTP
	if httpAddr != "" {
		ln, err := net.Listen("tcp", httpAddr)
		if err != nil {
			srv.Close()
			return err
		}
		metrics.PublishExpvar("sensjoind", reg)
		obs = server.StartObsHTTP(ln, reg, srv, cfg.Logger)
		fmt.Fprintf(os.Stderr, "sensjoind: observability on http://%s/ (metrics, pprof, debug/queries)\n", ln.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	got := <-sig
	fmt.Fprintf(os.Stderr, "sensjoind: %v: draining\n", got)
	err = srv.Close()
	if obs != nil {
		obs.Stop()
	}
	fmt.Fprintln(os.Stderr, "sensjoind: bye")
	return err
}
