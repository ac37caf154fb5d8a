package obs

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Debug-server read/write deadlines. A debug endpoint must never let one
// stuck client pin a handler goroutine: ReadHeaderTimeout bounds a
// slow-header (slowloris) connection, WriteTimeout bounds a scrape that
// stops reading mid-body. Package variables rather than constants so tests
// can shrink them without waiting wall-clock seconds; production code never
// mutates them. The values bound I/O on an operator-facing debug port, so
// they are deliberately generous — pprof profile captures stream for up to
// 30s by default and must fit inside the write deadline.
var (
	serverReadHeaderTimeout = 5 * time.Second
	serverWriteTimeout      = 60 * time.Second
)

// DebugServer is the opt-in (-listen) HTTP surface over a live process: the
// Prometheus exposition of a registry plus the RunTracker's progress
// counters on /metrics, the tracker's JSON sample on /runs, a liveness
// probe on /healthz, and the runtime profiler under /debug/pprof/. It is
// deliberately shaped as the seed of the cohort-serve daemon (ROADMAP):
// a long-lived listener beside a batch computation, sharing nothing with
// the deterministic result path — every payload it serves is explicitly
// scheduling-dependent and never enters canonical output.
//
// The handlers run on their own goroutines inside net/http; they touch the
// computation only through the tracker's atomics and the registry's
// publication lock, so serving never perturbs results.
type DebugServer struct {
	ln      net.Listener
	srv     *http.Server
	reg     *Registry
	tracker *RunTracker
}

// StartDebugServer listens on addr (host:port; ":0" picks a free port) and
// serves in the background until Close. reg and tracker may each be nil —
// the corresponding sections of /metrics and /runs are simply empty.
// Publishers feeding reg concurrently with scrapes must write under
// reg.Sync.
func StartDebugServer(addr string, reg *Registry, tracker *RunTracker) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: debug server: %w", err)
	}
	s := &DebugServer{ln: ln, reg: reg, tracker: tracker}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/runs", s.handleRuns)
	// The profiler handlers are mounted explicitly on this private mux —
	// importing net/http/pprof for its DefaultServeMux side effect would
	// expose the profiler on any default-mux server a future caller starts.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: serverReadHeaderTimeout,
		WriteTimeout:      serverWriteTimeout,
	}
	go s.srv.Serve(ln) // returns ErrServerClosed on Close; nothing to report
	return s, nil
}

// Addr returns the bound listen address (resolves ":0" to the picked port).
func (s *DebugServer) Addr() string {
	if s == nil || s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the listener and all handler goroutines. Nil-safe, so CLIs
// may defer Close on an optional server.
func (s *DebugServer) Close() error {
	if s == nil || s.srv == nil {
		return nil
	}
	return s.srv.Close()
}

// handleHealthz is the liveness probe: constant body, no shared state.
func (s *DebugServer) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

// handleMetrics serves the Prometheus exposition. Everything it reaches
// holds locks for microseconds (registry snapshot, tracker atomics).
func (s *DebugServer) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", PromContentType)
	if err := WritePromRuns(w, s.tracker.Sample()); err != nil {
		return // client went away mid-write; nothing to clean up
	}
	s.reg.WriteProm(w)
}

// handleRuns serves the tracker's JSON sample.
func (s *DebugServer) handleRuns(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	s.tracker.WriteJSON(w)
}
