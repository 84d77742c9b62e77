// Package admin serves Bistro's observability endpoints over HTTP:
//
//   - /metrics  — Prometheus text exposition of the server's registry;
//   - /healthz  — liveness probe (200 ok / 503 with the error);
//   - /readyz   — readiness probe: 200 only once the server finished
//     startup reconciliation (and, on a promoted standby, replaying the
//     shipped WAL) — load balancers and sources should wait on this,
//     not /healthz, before directing traffic;
//   - /statusz  — structured JSON snapshot (feeds, subscribers,
//     receipts, scheduler load, node role, recent alarms), the
//     machine-readable twin of `bistroctl status`;
//   - /debug/pprof/ — the running daemon's profiles (net/http/pprof),
//     behind the same timeouts and body cap as every other endpoint; a
//     CPU profile or trace must be shorter than the write timeout.
//
// The endpoint is deliberately separate from the source/subscriber
// protocol listener: operators point scrapers and dashboards at it
// without touching the data path, and it can be bound to a loopback or
// management interface independently.
package admin

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"bistro/internal/metrics"
)

// Options configure an admin endpoint.
type Options struct {
	// Listen is the HTTP address ("127.0.0.1:0" for an ephemeral port).
	Listen string
	// Registry backs /metrics.
	Registry *metrics.Registry
	// OnScrape, when set, runs before each /metrics exposition. The
	// server uses it to refresh snapshot-derived gauges (queue depths,
	// breaker states, per-feed totals) so hot paths never pay for them.
	OnScrape func()
	// Status, when set, produces the /statusz JSON document.
	Status func() any
	// Healthy, when set, gates /healthz; a non-nil error yields 503.
	Healthy func() error
	// Ready, when set, gates /readyz; a non-nil error yields 503.
	// Distinct from Healthy: a starting (or promoting) server is
	// healthy but not ready until reconciliation completes.
	Ready func() error
	// ReadHeaderTimeout, ReadTimeout, and WriteTimeout harden the
	// listener against slow-loris clients holding connections open.
	// Zero means the package default; tests override with tiny values.
	ReadHeaderTimeout time.Duration
	ReadTimeout       time.Duration
	WriteTimeout      time.Duration
	// MaxHeaderBytes caps request header size (0 = the default 64 KiB).
	MaxHeaderBytes int
}

// Server is a running admin endpoint.
type Server struct {
	ln   net.Listener
	srv  *http.Server
	done chan struct{}
}

// Start binds the listener and begins serving. The returned server is
// already accepting; Addr reports the bound address.
func Start(opts Options) (*Server, error) {
	ln, err := net.Listen("tcp", opts.Listen)
	if err != nil {
		return nil, fmt.Errorf("admin: listen %s: %w", opts.Listen, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if opts.OnScrape != nil {
			opts.OnScrape()
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if opts.Registry != nil {
			opts.Registry.WritePrometheus(w)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if opts.Healthy != nil {
			if err := opts.Healthy(); err != nil {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if opts.Ready != nil {
			if err := opts.Ready(); err != nil {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, r *http.Request) {
		if opts.Status == nil {
			http.Error(w, "status unavailable", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(opts.Status())
	})
	if opts.ReadHeaderTimeout <= 0 {
		opts.ReadHeaderTimeout = 5 * time.Second
	}
	if opts.ReadTimeout <= 0 {
		opts.ReadTimeout = 30 * time.Second
	}
	if opts.WriteTimeout <= 0 {
		opts.WriteTimeout = time.Minute
	}
	if opts.MaxHeaderBytes <= 0 {
		opts.MaxHeaderBytes = 64 << 10
	}
	// Registered here, not on http.DefaultServeMux (where the pprof
	// package's init also puts them), which nothing serves. Index
	// serves the named profiles: heap, goroutine, allocs, block, mutex.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", withinWriteTimeout(pprof.Profile, 30, opts.WriteTimeout))
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", withinWriteTimeout(pprof.Trace, 1, opts.WriteTimeout))
	// No admin endpoint reads a body, but cap it anyway so a client
	// streaming one cannot hold memory or the connection.
	capped := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, 1<<20)
		mux.ServeHTTP(w, r)
	})
	s := &Server{
		ln: ln,
		srv: &http.Server{
			Handler:           capped,
			ReadHeaderTimeout: opts.ReadHeaderTimeout,
			ReadTimeout:       opts.ReadTimeout,
			WriteTimeout:      opts.WriteTimeout,
			MaxHeaderBytes:    opts.MaxHeaderBytes,
		},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln)
	}()
	return s, nil
}

// withinWriteTimeout refuses a CPU profile or trace whose `seconds`
// (defaultSec when absent) reaches limit. net/http/pprof pushes the
// connection's write deadline out by the run it is asked for, so
// without this a client could keep the profiler or the tracer running
// on the live daemon for as long as it liked.
func withinWriteTimeout(h http.HandlerFunc, defaultSec float64, limit time.Duration) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sec, err := strconv.ParseFloat(r.FormValue("seconds"), 64)
		if err != nil || sec <= 0 {
			sec = defaultSec
		}
		if time.Duration(sec*float64(time.Second)) >= limit {
			http.Error(w, fmt.Sprintf("seconds must be under the admin write timeout (%s)", limit), http.StatusBadRequest)
			return
		}
		h(w, r)
	}
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Stop closes the listener and waits for the serve loop to exit.
// In-flight handlers are not drained; every handler is a fast
// read-only snapshot.
func (s *Server) Stop() {
	s.srv.Close()
	<-s.done
}
