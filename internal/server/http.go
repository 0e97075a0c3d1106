package server

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"time"

	"sensjoin/internal/metrics"
	"sensjoin/internal/trace"
)

// Hardened wraps a handler in an http.Server with conservative
// timeouts, so a client that opens a connection and never finishes its
// request headers (slowloris) or goes idle cannot pin a goroutine and a
// file descriptor forever. WriteTimeout deliberately stays zero:
// /debug/pprof/profile legitimately streams for its whole profiling
// window.
func Hardened(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// ServeHTTP runs srv on ln in the background, logging (rather than
// dropping) the terminal Serve error.
func ServeHTTP(srv *http.Server, ln net.Listener, log *slog.Logger) {
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Error("http: serve", "err", err)
		}
	}()
}

// ObsHTTP is a running observability HTTP server.
type ObsHTTP struct {
	srv *http.Server
}

// StartObsHTTP serves h, an observability mux (ObsMux and the caller's
// own endpoints), on ln with the hardened server configuration.
func StartObsHTTP(ln net.Listener, h http.Handler, log *slog.Logger) *ObsHTTP {
	srv := Hardened(h)
	ServeHTTP(srv, ln, log)
	return &ObsHTTP{srv: srv}
}

// Stop shuts the observability server down, letting in-flight requests
// finish briefly.
func (o *ObsHTTP) Stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	o.srv.Shutdown(ctx)
}

// ObsMux builds the standard observability mux: Prometheus exposition of
// reg, a health probe, expvar's own variables (memstats, cmdline) and
// pprof, with index, the caller's list of its endpoints, served at /.
func ObsMux(reg *metrics.Registry, index string) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := reg.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
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
		fmt.Fprintln(w, index)
	})
	return mux
}

// AttachDebug registers the server's query-level debug endpoints on
// mux:
//
//	/debug/queries              JSON array of recent QueryRecords,
//	                            newest first (the flight recorder)
//	/debug/queries?trace=<id>   the retained span tree of one sampled
//	                            query, one trace.Event JSON per line
func (s *Server) AttachDebug(mux *http.ServeMux) {
	mux.HandleFunc("/debug/queries", func(w http.ResponseWriter, r *http.Request) {
		if id := r.URL.Query().Get("trace"); id != "" {
			spans, ok := s.flight.Spans(id)
			if !ok {
				http.Error(w, "trace ID not in the flight recorder", http.StatusNotFound)
				return
			}
			// The canonical journal JSONL (one event per line, kind
			// named in "ev") — the same form WriteJSONL/ReadJSONL and
			// the audit tooling speak.
			w.Header().Set("Content-Type", "application/jsonl")
			trace.WriteJSONL(w, &trace.Journal{Events: spans})
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.flight.Records())
	})
}
