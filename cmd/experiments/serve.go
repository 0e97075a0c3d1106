// Live observability server for the experiment suite (-serve): the
// standard observability mux (server.ObsMux) plus the suite's own
// endpoints.
//
// Endpoints:
//
//	/metrics      Prometheus text exposition (version 0.0.4)
//	/progress     JSON per-experiment sweep-cell completion
//	/healthz      liveness probe
//	/debug/vars   expvar (memstats, cmdline)
//	/debug/pprof/ CPU/heap/goroutine profiles
//	/quit         with -hold: release the server and exit
//
// Everything the server prints goes to run's stderr writer; stdout stays
// reserved for the byte-identical experiment tables.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"

	"sensjoin/internal/bench"
	"sensjoin/internal/metrics"
	"sensjoin/internal/server"
)

// obsServer serves the live observability endpoints while the suite
// runs (and afterwards with -hold); Stop shuts it down.
type obsServer struct {
	*server.ObsHTTP
	addr     net.Addr
	stderr   io.Writer
	quit     chan struct{}
	quitOnce sync.Once
}

// startServe listens on addr and serves reg and prog, announcing the
// bound address on stderr. The returned server is already running; call
// Stop when done (hold first to wait for /quit or an interrupt).
func startServe(addr string, reg *metrics.Registry, prog *bench.Progress, stderr io.Writer) (*obsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("-serve: %w", err)
	}
	o := &obsServer{addr: ln.Addr(), stderr: stderr, quit: make(chan struct{})}

	mux := server.ObsMux(reg, "sensjoin experiments: /metrics /progress /healthz /debug/vars /debug/pprof/ /quit")
	mux.HandleFunc("/progress", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		snap := prog.Snapshot()
		if snap == nil {
			snap = []bench.ExpProgress{}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(map[string]any{"experiments": snap}); err != nil {
			// Headers are gone; all we can do is log instead of
			// silently truncating the response.
			fmt.Fprintf(stderr, "-serve: /progress: %v\n", err)
		}
	})
	mux.HandleFunc("/quit", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "bye")
		o.quitOnce.Do(func() { close(o.quit) })
	})
	o.ObsHTTP = server.StartObsHTTP(ln, mux, slog.New(slog.NewTextHandler(stderr, nil)).With("flag", "-serve"))
	fmt.Fprintf(stderr, "serving observability on http://%s/ (metrics, progress, pprof)\n", o.addr)
	return o, nil
}

// hold blocks until /quit is hit or the process is interrupted.
func (o *obsServer) hold() {
	fmt.Fprintf(o.stderr, "holding: GET http://%s/quit (or interrupt) to exit\n", o.addr)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case <-o.quit:
	case <-sig:
	}
}
