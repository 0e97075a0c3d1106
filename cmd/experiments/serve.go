// Live observability server for the experiment suite (-serve).
//
// Endpoints:
//
//	/metrics      Prometheus text exposition (version 0.0.4)
//	/progress     JSON per-experiment sweep-cell completion
//	/debug/vars   expvar (includes the full registry snapshot)
//	/debug/pprof/ CPU/heap/goroutine profiles
//	/quit         with -hold: release the server and exit
//
// Everything the server prints goes to run's stderr writer; stdout stays
// reserved for the byte-identical experiment tables.
package main

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"sensjoin/internal/bench"
	"sensjoin/internal/metrics"
	"sensjoin/internal/server"
)

// obsServer serves the live observability endpoints while the suite
// runs (and afterwards with -hold).
type obsServer struct {
	srv      *http.Server
	addr     net.Addr
	stderr   io.Writer
	quit     chan struct{}
	quitOnce sync.Once
}

// startServe listens on addr and serves reg and prog, announcing the
// bound address on stderr. The returned server is already running; call
// stop when done (hold first to wait for /quit or an interrupt).
func startServe(addr string, reg *metrics.Registry, prog *bench.Progress, stderr io.Writer) (*obsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("-serve: %w", err)
	}
	o := &obsServer{stderr: stderr, quit: make(chan struct{})}

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := reg.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
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
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintln(w, "sensjoin experiments: /metrics /progress /debug/vars /debug/pprof/ /quit")
	})

	// Expose the registry through expvar too. PublishExpvar is safe
	// against double starts (expvar.Publish itself panics on
	// re-registration) and retargets the existing var on later calls.
	metrics.PublishExpvar("sensjoin", reg)

	// Hardened server config: header/idle timeouts defeat slowloris
	// clients; WriteTimeout stays 0 so /debug/pprof/profile can stream
	// its whole profiling window.
	o.srv = server.Hardened(mux)
	o.addr = ln.Addr()
	server.ServeHTTP(o.srv, ln, slog.New(slog.NewTextHandler(stderr, nil)).With("flag", "-serve"))
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

// stop shuts the server down, letting in-flight requests finish.
func (o *obsServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	o.srv.Shutdown(ctx)
}
