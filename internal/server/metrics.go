package server

import (
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// bucketBoundsMicros are the upper bounds (inclusive, in microseconds) of
// the latency histogram buckets; a final implicit +Inf bucket catches the
// rest. Spec-cache hits land in the leftmost buckets, cold compiles and
// period certifications in the right tail — the histogram exists to make
// that separation visible.
var bucketBoundsMicros = [...]int64{
	50, 100, 250, 500,
	1000, 2500, 5000, 10000,
	25000, 50000, 100000, 250000,
	500000, 1000000, 5000000,
}

// histogram is a fixed-bucket latency histogram with lock-free updates.
type histogram struct {
	buckets   [len(bucketBoundsMicros) + 1]atomic.Int64
	count     atomic.Int64
	sumMicros atomic.Int64
}

func (h *histogram) observe(d time.Duration) {
	us := d.Microseconds()
	i := 0
	for i < len(bucketBoundsMicros) && us > bucketBoundsMicros[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumMicros.Add(us)
}

// HistogramSnapshot is the JSON form of a histogram.
type HistogramSnapshot struct {
	Count   int64            `json:"count"`
	MeanUs  float64          `json:"mean_us"`
	Buckets map[string]int64 `json:"buckets,omitempty"`
}

func (h *histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count.Load(), Buckets: make(map[string]int64)}
	if s.Count > 0 {
		s.MeanUs = float64(h.sumMicros.Load()) / float64(s.Count)
	}
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		if i < len(bucketBoundsMicros) {
			s.Buckets[formatMicros(bucketBoundsMicros[i])] = n
		} else {
			s.Buckets["+Inf"] = n
		}
	}
	return s
}

func formatMicros(us int64) string {
	return "le_" + time.Duration(us*int64(time.Microsecond)).String()
}

// cumulative returns the Prometheus view of the histogram: per-bucket
// cumulative counts (one per bound plus the +Inf catch-all), the total
// observation count, and the sum in microseconds.
func (h *histogram) cumulative() (buckets [len(bucketBoundsMicros) + 1]int64, count, sumUs int64) {
	var running int64
	for i := range h.buckets {
		running += h.buckets[i].Load()
		buckets[i] = running
	}
	return buckets, h.count.Load(), h.sumMicros.Load()
}

// routeMetrics instruments one route.
type routeMetrics struct {
	Requests atomic.Int64
	Errors   atomic.Int64
	Sheds    atomic.Int64 // requests rejected by admission (full queue)
	Timeouts atomic.Int64 // requests that hit the per-request deadline
	latency  histogram
}

// RouteSnapshot is the JSON form of a route's metrics.
type RouteSnapshot struct {
	Requests int64             `json:"requests"`
	Errors   int64             `json:"errors"`
	Sheds    int64             `json:"sheds"`
	Timeouts int64             `json:"timeouts"`
	Latency  HistogramSnapshot `json:"latency"`
}

// Metrics is the server's observability state: request counters and
// latency histograms per route, cache and engine counters, and an
// in-flight gauge. All fields are updated with atomics; a snapshot is
// served at GET /metrics.
type Metrics struct {
	Requests    atomic.Int64 // all requests, any route
	Errors      atomic.Int64 // responses with status >= 400
	InFlight    atomic.Int64 // currently executing requests
	Timeouts    atomic.Int64 // requests that hit the per-request deadline
	CacheHits   atomic.Int64 // spec-cache lookups answered warm
	CacheMisses atomic.Int64 // spec-cache lookups that had to (re)compile
	CacheEvict  atomic.Int64 // entries displaced by the LRU policy

	// Admission and coalescing counters (see pool.go, flight.go).
	Shed          atomic.Int64 // requests rejected by admission instead of queued
	Coalesced     atomic.Int64 // asks that joined an in-flight identical evaluation
	FlightLeaders atomic.Int64 // coalescable evaluations actually run

	Asserts       atomic.Int64 // successful fact-ingestion batches
	FactsIngested atomic.Int64 // facts new to a database across all ingestions

	// Durability counters (all zero without -data).
	WalAppends     atomic.Int64 // batches appended to a program WAL
	WalFsyncs      atomic.Int64 // fsync calls across all program logs
	Snapshots      atomic.Int64 // snapshot+truncate cycles completed
	SnapshotErrors atomic.Int64 // snapshot attempts that failed (batch stayed logged)

	// Replication counters and gauges (all zero unless following).
	FollowerPolls   atomic.Int64 // leader poll cycles completed
	FollowerRecords atomic.Int64 // WAL records applied from the leader
	FollowerErrors  atomic.Int64 // poll or apply failures (incl. divergence)
	FollowerLag     atomic.Int64 // gauge: leader batches not yet applied, summed over programs

	// fsyncLatency observes every WAL fsync across all program logs.
	fsyncLatency histogram

	// start anchors the uptime gauge: set once when the server's metrics
	// are created, read by every snapshot.
	start time.Time

	routes map[string]*routeMetrics
	// orphan absorbs updates for route names missing from routes, so a
	// route registered without a metrics slot degrades to uncounted
	// rather than a nil dereference on the request path.
	orphan routeMetrics
}

// newMetrics pre-creates the per-route slots so handler-path updates are
// lock-free map reads.
func newMetrics(routes []string) *Metrics {
	m := &Metrics{start: time.Now(), routes: make(map[string]*routeMetrics, len(routes))}
	for _, r := range routes {
		m.routes[r] = &routeMetrics{}
	}
	return m
}

// BuildInfo identifies the running binary in /metrics and as the
// tddserve_build_info info-gauge in /metrics.prom.
type BuildInfo struct {
	GoVersion string `json:"go_version"`
	Version   string `json:"version"`
	Revision  string `json:"revision"`
}

var (
	buildInfoOnce sync.Once
	buildInfoVal  BuildInfo
)

// binaryBuildInfo reads the module and VCS identity stamped into the
// binary, once; "unknown" fields mean the binary was built without VCS
// metadata (go test, go run).
func binaryBuildInfo() BuildInfo {
	buildInfoOnce.Do(func() {
		buildInfoVal = BuildInfo{GoVersion: runtime.Version(), Version: "unknown", Revision: "unknown"}
		bi, ok := debug.ReadBuildInfo()
		if !ok {
			return
		}
		if bi.Main.Version != "" && bi.Main.Version != "(devel)" {
			buildInfoVal.Version = bi.Main.Version
		}
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				buildInfoVal.Revision = s.Value
			}
		}
	})
	return buildInfoVal
}

// RuntimeSnapshot is the Go-runtime section of /metrics: scheduler and
// heap health at snapshot time.
type RuntimeSnapshot struct {
	Goroutines    int    `json:"goroutines"`
	HeapAlloc     uint64 `json:"heap_alloc_bytes"`
	HeapSys       uint64 `json:"heap_sys_bytes"`
	GCCycles      uint32 `json:"gc_cycles"`
	GCPauseUs     int64  `json:"gc_pause_total_us"`
	LastGCPauseUs int64  `json:"gc_pause_last_us"`
}

// runtimeSnapshot reads the runtime gauges. ReadMemStats stops the world
// briefly; that is fine on a monitoring endpoint.
func runtimeSnapshot() RuntimeSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rs := RuntimeSnapshot{
		Goroutines: runtime.NumGoroutine(),
		HeapAlloc:  ms.HeapAlloc,
		HeapSys:    ms.HeapSys,
		GCCycles:   ms.NumGC,
		GCPauseUs:  int64(ms.PauseTotalNs / 1000),
	}
	if ms.NumGC > 0 {
		rs.LastGCPauseUs = int64(ms.PauseNs[(ms.NumGC+255)%256] / 1000)
	}
	return rs
}

func (m *Metrics) route(name string) *routeMetrics {
	if rm, ok := m.routes[name]; ok {
		return rm
	}
	return &m.orphan
}

// MetricsSnapshot is the GET /metrics response body.
type MetricsSnapshot struct {
	// Build and process identity: what binary this is and how long it has
	// been serving.
	Build     BuildInfo       `json:"build"`
	UptimeSec float64         `json:"uptime_sec"`
	Runtime   RuntimeSnapshot `json:"runtime"`

	Requests    int64 `json:"requests"`
	Errors      int64 `json:"errors"`
	InFlight    int64 `json:"in_flight"`
	Timeouts    int64 `json:"timeouts"`
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	CacheEvict  int64 `json:"cache_evictions"`
	Asserts     int64 `json:"asserts"`
	Ingested    int64 `json:"facts_ingested"`
	// Admission and coalescing: shed requests were rejected fast instead
	// of queued; coalesced asks rode an identical in-flight evaluation
	// (flight_leaders counts the evaluations that actually ran).
	Shed          int64 `json:"shed_requests"`
	Coalesced     int64 `json:"coalesced_requests"`
	FlightLeaders int64 `json:"flight_leaders"`
	// QueueDepth/QueueCapacity gauge the worker-pool queue; filled in by
	// the metrics handler.
	QueueDepth    int64 `json:"queue_depth"`
	QueueCapacity int64 `json:"queue_capacity"`
	// LintWarnings gauges lint findings at warning severity or above,
	// summed over the warm programs; filled in by the metrics handler
	// alongside Programs.
	LintWarnings int64                    `json:"lint_warnings"`
	WalAppends   int64                    `json:"wal_appends"`
	WalFsyncs    int64                    `json:"wal_fsyncs"`
	Snapshots    int64                    `json:"wal_snapshots"`
	SnapErrors   int64                    `json:"wal_snapshot_errors"`
	FsyncLatency HistogramSnapshot        `json:"wal_fsync_latency"`
	Follower     *FollowerSnapshot        `json:"follower,omitempty"`
	Routes       map[string]RouteSnapshot `json:"routes"`
	// Programs holds per-program engine counters for every warm program;
	// filled in by the metrics handler from the registry.
	Programs map[string]ProgramStats `json:"programs,omitempty"`
	// Durability holds per-program WAL state (last durable rev, snapshot
	// age, log size); filled in by the metrics handler when the server
	// runs with a data directory.
	Durability map[string]DurabilityStats `json:"durability,omitempty"`
}

// FollowerSnapshot is the replication section of /metrics, present only
// on a follower.
type FollowerSnapshot struct {
	Leader  string `json:"leader"`
	Polls   int64  `json:"polls"`
	Records int64  `json:"records_applied"`
	Errors  int64  `json:"errors"`
	// Lag is the number of leader batches not yet applied, summed over
	// programs, as of the last poll.
	Lag int64 `json:"lag_records"`
}

// DurabilityStats is the JSON form of one program's WAL state.
type DurabilityStats struct {
	Seq            uint64  `json:"seq"`
	Rev            string  `json:"rev"`
	DurableSeq     uint64  `json:"durable_seq"`
	DurableRev     string  `json:"durable_rev"`
	SnapshotSeq    uint64  `json:"snapshot_seq"`
	SnapshotAgeSec float64 `json:"snapshot_age_sec,omitempty"`
	WalBytes       int64   `json:"wal_bytes"`
}

// Snapshot captures a consistent-enough view for serving: counters are
// read individually (no global lock), which is the standard monitoring
// trade-off.
func (m *Metrics) Snapshot() MetricsSnapshot {
	s := MetricsSnapshot{
		Build:         binaryBuildInfo(),
		UptimeSec:     time.Since(m.start).Seconds(),
		Runtime:       runtimeSnapshot(),
		Requests:      m.Requests.Load(),
		Errors:        m.Errors.Load(),
		InFlight:      m.InFlight.Load(),
		Timeouts:      m.Timeouts.Load(),
		CacheHits:     m.CacheHits.Load(),
		CacheMisses:   m.CacheMisses.Load(),
		CacheEvict:    m.CacheEvict.Load(),
		Asserts:       m.Asserts.Load(),
		Ingested:      m.FactsIngested.Load(),
		Shed:          m.Shed.Load(),
		Coalesced:     m.Coalesced.Load(),
		FlightLeaders: m.FlightLeaders.Load(),
		WalAppends:    m.WalAppends.Load(),
		WalFsyncs:     m.WalFsyncs.Load(),
		Snapshots:     m.Snapshots.Load(),
		SnapErrors:    m.SnapshotErrors.Load(),
		FsyncLatency:  m.fsyncLatency.snapshot(),
		Routes:        make(map[string]RouteSnapshot, len(m.routes)),
	}
	for name, r := range m.routes {
		s.Routes[name] = RouteSnapshot{
			Requests: r.Requests.Load(),
			Errors:   r.Errors.Load(),
			Sheds:    r.Sheds.Load(),
			Timeouts: r.Timeouts.Load(),
			Latency:  r.latency.snapshot(),
		}
	}
	return s
}
