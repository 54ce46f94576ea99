package server

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"time"

	"tdd/internal/obs"
	"tdd/internal/wal"
)

// Config tunes a Server. The zero value is usable: DefaultConfig fills in
// each unset field.
type Config struct {
	// Workers bounds concurrent query evaluations (default: NumCPU).
	Workers int
	// Queue is how many requests may wait for a worker beyond the ones
	// running (default: 4×Workers, at least 64 — backpressure should bite
	// under real overload, not at a burst a few cores can absorb). Further
	// requests fast-fail with 503 + Retry-After instead of waiting out
	// their deadline.
	Queue int
	// CacheSize bounds the number of warm specifications resident at
	// once (default 64): one LRU over all programs.
	CacheSize int
	// RequestTimeout is the per-request deadline covering queueing and
	// evaluation (default 30s; <0 disables).
	RequestTimeout time.Duration
	// MaxWindow bounds period certification per program (0 = engine
	// default).
	MaxWindow int
	// Logger receives structured request logs (default: discard).
	Logger *slog.Logger
	// SlowQueryLog, when positive, logs the full phase trace of any ask,
	// answers, or facts request that takes at least this long (default:
	// disabled).
	SlowQueryLog time.Duration
	// SlowQueryKeep bounds the GET /debug/slow ring buffer of fully
	// traced slow queries (default 64; <0 disables retention — slow
	// queries still log, they just are not kept for later inspection).
	SlowQueryKeep int
	// EnablePprof mounts net/http/pprof under /debug/pprof/ (default:
	// off — profiling endpoints expose internals and should be opted
	// into).
	EnablePprof bool

	// DataDir, when set, makes the server durable: every program lives
	// under DataDir/programs/<id>/ as base sources and a write-ahead log
	// of fact batches. On startup the
	// directory is recovered and every program recompiled, so a restarted
	// server answers warm.
	DataDir string
	// Fsync picks the WAL durability policy: "always" (fsync inside every
	// append, full durability), "interval" (background fsync every
	// FsyncInterval; default), or "off" (fsync only on close).
	Fsync string
	// FsyncInterval is the background fsync cadence under Fsync
	// "interval" (default 100ms).
	FsyncInterval time.Duration
	// Follow, when set to a leader's base URL, runs the server as a
	// read-only follower: it tails the leader's WAL feed, applies every
	// batch through the ordinary ingest path, and rejects writes with
	// 403. Composable with DataDir (a durable follower).
	Follow string
	// FollowInterval is the leader poll cadence (default 500ms).
	FollowInterval time.Duration
}

// DefaultConfig resolves unset fields.
func DefaultConfig(c Config) Config {
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.Queue <= 0 {
		c.Queue = 4 * c.Workers
		if c.Queue < 64 {
			c.Queue = 64
		}
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 64
	}
	if c.SlowQueryKeep == 0 {
		c.SlowQueryKeep = 64
	}
	if c.SlowQueryKeep < 0 {
		c.SlowQueryKeep = 0
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.RequestTimeout < 0 {
		c.RequestTimeout = 0
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	if c.Fsync == "" {
		c.Fsync = "interval"
	}
	if c.FsyncInterval <= 0 {
		c.FsyncInterval = 100 * time.Millisecond
	}
	if c.FollowInterval <= 0 {
		c.FollowInterval = 500 * time.Millisecond
	}
	return c
}

// routeNames label metrics slots; they match the mux patterns below.
var routeNames = []string{
	"register", "list", "facts", "ask", "answers", "period", "spec", "wal", "healthz", "metrics", "metrics_prom",
	"debug_flights", "debug_slow", "debug_graph",
}

// Server is the tddserve HTTP service: registry + spec cache + worker
// pool + metrics behind a JSON API. Create with New, expose with
// Handler or Serve, stop with Shutdown.
type Server struct {
	cfg      Config
	reg      *Registry
	pool     *Pool
	metrics  *Metrics
	mux      *http.ServeMux
	httpSrv  *http.Server
	inflight *inflightTable
	slow     *slowRing

	// readOnly is set in follower mode: register and facts return 403.
	readOnly bool
	follower *follower
	// recoveredPrograms/recoveredBatches report what RecoverFromWAL
	// replayed at startup (boot banner, tests).
	recoveredPrograms int
	recoveredBatches  int
}

// New builds a Server (resolving cfg through DefaultConfig), recovers
// the data directory when one is configured, starts the follower loop
// when a leader is configured, and starts the worker pool.
func New(cfg Config) (*Server, error) {
	cfg = DefaultConfig(cfg)
	m := newMetrics(routeNames)
	s := &Server{
		cfg:      cfg,
		metrics:  m,
		reg:      NewRegistry(cfg.CacheSize, cfg.MaxWindow, m),
		pool:     NewPool(cfg.Workers, cfg.Queue),
		mux:      http.NewServeMux(),
		inflight: newInflightTable(),
		slow:     newSlowRing(cfg.SlowQueryKeep),
	}
	if cfg.DataDir != "" {
		pol, err := wal.ParsePolicy(cfg.Fsync)
		if err != nil {
			return nil, err
		}
		store, err := wal.Open(cfg.DataDir, wal.Options{
			Policy:   pol,
			Interval: cfg.FsyncInterval,
			FsyncObserver: func(d time.Duration) {
				m.WalFsyncs.Add(1)
				m.fsyncLatency.observe(d)
			},
		})
		if err != nil {
			return nil, fmt.Errorf("opening data directory: %w", err)
		}
		s.reg.EnableDurability(store)
		// Recover warm: every program recompiled now, so the first query
		// after a restart hits the same fast path as before the crash.
		progs, batches, err := s.reg.RecoverFromWAL(true)
		if err != nil {
			store.Close() //nolint:errcheck // the recovery error wins
			return nil, fmt.Errorf("recovering %s: %w", cfg.DataDir, err)
		}
		s.recoveredPrograms, s.recoveredBatches = progs, batches
	}
	s.route("POST /programs", "register", s.handleRegister)
	s.route("GET /programs", "list", s.handleList)
	s.route("POST /programs/{id}/facts", "facts", s.handleFacts)
	s.route("POST /programs/{id}/ask", "ask", s.handleAsk)
	s.route("POST /programs/{id}/answers", "answers", s.handleAnswers)
	s.route("GET /programs/{id}/period", "period", s.handlePeriod)
	s.route("GET /programs/{id}/spec", "spec", s.handleSpec)
	s.route("GET /programs/{id}/wal", "wal", s.handleWAL)
	s.route("GET /healthz", "healthz", s.handleHealthz)
	s.route("GET /metrics", "metrics", s.handleMetrics)
	s.route("GET /metrics.prom", "metrics_prom", s.handleMetricsProm)
	s.route("GET /debug/flights", "debug_flights", s.handleDebugFlights)
	s.route("GET /debug/slow", "debug_slow", s.handleDebugSlow)
	s.route("GET /debug/graph", "debug_graph", s.handleDebugGraph)
	if cfg.EnablePprof {
		// Raw stdlib handlers, outside the instrumentation middleware:
		// profile endpoints stream for configurable durations and would
		// only distort the latency histograms.
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	if cfg.Follow != "" {
		s.readOnly = true
		s.follower = startFollower(s, cfg.Follow, cfg.FollowInterval)
	}
	return s, nil
}

// Recovered reports what startup recovery replayed from the data
// directory (0, 0 without one).
func (s *Server) Recovered() (programs, batches int) {
	return s.recoveredPrograms, s.recoveredBatches
}

// Registry exposes the program registry (preloading, tests).
func (s *Server) Registry() *Registry { return s.reg }

// Metrics exposes the metrics (tests).
func (s *Server) Metrics() *Metrics { return s.metrics }

// statusRecorder captures the response status for metrics and logs.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// route registers pattern with the instrumentation middleware: in-flight
// table (the in_flight gauge is its length), the route's request and error
// counters (the server-wide rows are their sums), latency histogram,
// structured log line.
func (s *Server) route(pattern, name string, h http.HandlerFunc) {
	rm := s.metrics.route(name)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rm.Requests.Add(1)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}

		// Every request gets a trace ID: echoed in the X-Trace-Id header,
		// attached to the log line, and reused as the ?trace=1 trace ID so
		// logs and phase trees join on it. An inbound X-Trace-Id (a proxy,
		// or a follower correlating its replication fetches with the
		// leader's logs) is honored so both sides log the same ID.
		tid := r.Header.Get("X-Trace-Id")
		if tid == "" || len(tid) > 64 {
			tid = obs.NewID()
		}
		rec.Header().Set("X-Trace-Id", tid)
		token := s.inflight.add(&inflightReq{
			route:   name,
			method:  r.Method,
			path:    r.URL.Path,
			program: r.PathValue("id"),
			traceID: tid,
			started: start,
		})
		h(rec, r.WithContext(obs.WithID(r.Context(), tid)))
		s.inflight.remove(token)

		d := time.Since(start)
		rm.latency.observe(d)
		if rec.status >= 400 {
			rm.Errors.Add(1)
		}
		s.cfg.Logger.Info("request",
			"route", name,
			"method", r.Method,
			"path", r.URL.Path,
			"status", rec.status,
			"duration_us", d.Microseconds(),
			"remote", r.RemoteAddr,
			"trace", tid,
		)
	})
}

// Handler returns the root handler (also useful under httptest).
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on l until Shutdown. It always returns a
// non-nil error; after Shutdown the error is http.ErrServerClosed.
func (s *Server) Serve(l net.Listener) error {
	s.httpSrv = &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
	}
	return s.httpSrv.Serve(l)
}

// Shutdown gracefully stops the server. The ordering is the durability
// guarantee: the listener closes and in-flight requests get until ctx's
// deadline to finish; the follower loop stops; the worker pool is torn
// down, which WAITS for every dispatched closure — so when the WAL store
// finally flushes, fsyncs, and closes, no ingest can still be appending.
// Every 2xx-acknowledged batch is fully on disk; an ingest racing the
// shutdown either completed its append first or gets rejected with
// ErrClosed (503) — never a torn record.
func (s *Server) Shutdown(ctx context.Context) error {
	var err error
	if s.httpSrv != nil {
		err = s.httpSrv.Shutdown(ctx)
	}
	if s.follower != nil {
		s.follower.stop()
	}
	s.pool.Close()
	if werr := s.reg.CloseWAL(); werr != nil && err == nil {
		err = werr
	}
	return err
}

// Close releases resources without the graceful drain (tests using only
// Handler). The follower → pool → WAL ordering matches Shutdown.
func (s *Server) Close() {
	if s.follower != nil {
		s.follower.stop()
	}
	s.pool.Close()
	s.reg.CloseWAL() //nolint:errcheck // no caller to report to
}
