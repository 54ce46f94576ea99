package server

// The server's telemetry: the counters the request path increments, and
// one table that declares every exported metric once. GET /metrics (JSON)
// and GET /metrics.prom (Prometheus text exposition 0.0.4, hand-rolled: the
// metric set is small and fixed) are two walks of that table over one
// scrape. To add a metric, add its row and its increment site.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"tdd/internal/wal"
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

// histSnapshot is one reading of a histogram: per-bucket counts (one per
// bound plus the +Inf catch-all), the observation count, and the sum in
// microseconds. Both expositions render this reading.
type histSnapshot struct {
	buckets      [len(bucketBoundsMicros) + 1]int64
	count, sumUs int64
}

func (h *histogram) snapshot() histSnapshot {
	s := histSnapshot{count: h.count.Load(), sumUs: h.sumMicros.Load()}
	for i := range h.buckets {
		s.buckets[i] = h.buckets[i].Load()
	}
	return s
}

// MarshalJSON renders the JSON form: the count, the mean, and the
// non-empty buckets keyed by their bound.
func (s histSnapshot) MarshalJSON() ([]byte, error) {
	out := struct {
		Count   int64            `json:"count"`
		MeanUs  float64          `json:"mean_us"`
		Buckets map[string]int64 `json:"buckets,omitempty"`
	}{Count: s.count, Buckets: make(map[string]int64)}
	if s.count > 0 {
		out.MeanUs = float64(s.sumUs) / float64(s.count)
	}
	for i, n := range s.buckets {
		switch {
		case n == 0:
		case i < len(bucketBoundsMicros):
			out.Buckets["le_"+time.Duration(bucketBoundsMicros[i]*int64(time.Microsecond)).String()] = n
		default:
			out.Buckets["+Inf"] = n
		}
	}
	return json.Marshal(out)
}

// writeProm renders the Prometheus form: cumulative buckets with bounds in
// seconds, then the sum and the count. labels is the family's own label
// set ("" or `route="ask"`). Floats print in fmt's default form, which is
// the shortest one Prometheus clients use (5e-05, 0.001, 1).
func (s histSnapshot) writeProm(w io.Writer, family, labels string) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	var running int64
	for i, n := range s.buckets {
		running += n
		le := "+Inf"
		if i < len(bucketBoundsMicros) {
			le = fmt.Sprint(float64(bucketBoundsMicros[i]) / 1e6)
		}
		fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d\n", family, labels, sep, le, running)
	}
	if labels != "" {
		labels = "{" + labels + "}"
	}
	fmt.Fprintf(w, "%s_sum%s %v\n%s_count%s %d\n", family, labels, float64(s.sumUs)/1e6, family, labels, s.count)
}

// routeMetrics instruments one route.
type routeMetrics struct {
	Requests, Errors, Sheds, Timeouts atomic.Int64
	latency                           histogram
}

// Metrics is the server's observability state. Every field is updated
// with atomics at its increment site; what each one counts is said once,
// in the help text of its metricTable row.
type Metrics struct {
	Panics                             atomic.Int64
	CacheHits, CacheMisses, CacheEvict atomic.Int64
	// Coalescing (flight.go).
	Coalesced, FlightLeaders atomic.Int64
	Asserts, FactsIngested   atomic.Int64
	// Durability: all zero without a data directory.
	WalAppends, WalFsyncs atomic.Int64
	// Replication: all zero unless following. FollowerLag is a gauge.
	FollowerPolls, FollowerRecords, FollowerErrors, FollowerLag atomic.Int64

	// fsyncLatency observes every WAL fsync across all program logs.
	fsyncLatency histogram

	// start anchors the uptime gauge: set once when the server's metrics
	// are created, read by every scrape.
	start time.Time

	// routes holds the request, error, shed and timeout counters; the
	// server-wide rows are their sums (routeTotal).
	routes map[string]*routeMetrics
	// orphan absorbs updates for route names missing from routes, so a
	// route registered without a metrics slot degrades to uncounted per
	// route rather than a nil dereference on the request path.
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

func (m *Metrics) route(name string) *routeMetrics {
	if rm, ok := m.routes[name]; ok {
		return rm
	}
	return &m.orphan
}

// buildInfo is the module and VCS identity stamped into the binary;
// "unknown" fields mean it was built without VCS metadata (go test, go
// run).
var buildInfo = func() []label {
	version, revision := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		if bi.Main.Version != "" && bi.Main.Version != "(devel)" {
			version = bi.Main.Version
		}
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				revision = s.Value
			}
		}
	}
	return []label{{"go_version", runtime.Version()}, {"version", version}, {"revision", revision}}
}()

// scope says what a metric is measured per: the JSON object holding one
// member object per instance, and the Prometheus label naming the
// instance. The zero scope is the server itself.
type scope struct{ section, label string }

var (
	perServer  = scope{}
	perRoute   = scope{"routes", "route"}
	perProgram = scope{"programs", "program"}
	perLog     = scope{"durability", "program"}
)

// label is one string of an info-style metric.
type label struct{ name, value string }

// metric is one row of metricTable. What load returns decides how the row
// renders:
//
//   - a number: the JSON member and the Prometheus sample value;
//   - a time.Duration: integer microseconds in JSON (the key says _us),
//     float seconds in Prometheus (the family says _seconds);
//   - a histSnapshot: see its MarshalJSON and writeProm;
//   - a []label: an info-style metric — in Prometheus a constant-1 sample
//     carrying the labels, in JSON the label's value when there is one
//     label and an object of them when there are several;
//   - a string: a JSON member with no Prometheus family.
type metric struct {
	scope scope
	json  string // member path within the scope's JSON object, dot-separated
	prom  string // Prometheus family; "" keeps the row out of /metrics.prom
	kind  string // Prometheus TYPE: counter, gauge or histogram
	help  string
	load  func(s *scrape, id string) any
}

// JSON keys cmd/tddload reads back off GET /metrics.
const (
	KeyShed          = "shed_requests"
	KeyCoalesced     = "coalesced_requests"
	KeyFlightLeaders = "flight_leaders"
)

const (
	counter = "counter"
	gauge   = "gauge"
	histo   = "histogram"
)

// routeTotal loads a server-wide row: the sum of one per-route counter
// over every route, the orphan slot included.
func routeTotal(counter func(*routeMetrics) *atomic.Int64) func(*scrape, string) any {
	return func(s *scrape, _ string) any {
		n := counter(&s.m.orphan).Load()
		for _, rm := range s.m.routes {
			n += counter(rm).Load()
		}
		return n
	}
}

// metricTable declares every metric the server exports, once: both
// expositions walk it in this order.
var metricTable = []metric{
	{perServer, "build", "tddserve_build_info", gauge, "Build identity (info-style: value is always 1).",
		func(*scrape, string) any { return buildInfo }},
	{perServer, "uptime_sec", "tddserve_uptime_seconds", gauge, "Seconds since the server's metrics were created.",
		func(s *scrape, _ string) any { return s.uptime.Seconds() }},
	{perServer, "runtime.goroutines", "tddserve_goroutines", gauge, "Live goroutines in the serving process.",
		func(s *scrape, _ string) any { return s.goroutines }},
	{perServer, "runtime.heap_alloc_bytes", "tddserve_heap_alloc_bytes", gauge, "Heap bytes allocated and in use.",
		func(s *scrape, _ string) any { return s.mem.HeapAlloc }},
	{perServer, "runtime.heap_sys_bytes", "tddserve_heap_sys_bytes", gauge, "Heap bytes obtained from the OS.",
		func(s *scrape, _ string) any { return s.mem.HeapSys }},
	{perServer, "runtime.gc_cycles", "tddserve_gc_cycles_total", counter, "Completed garbage-collection cycles.",
		func(s *scrape, _ string) any { return s.mem.NumGC }},
	{perServer, "runtime.gc_pause_total_us", "tddserve_gc_pause_seconds_total", counter, "Cumulative stop-the-world GC pause time.",
		func(s *scrape, _ string) any { return time.Duration(s.mem.PauseTotalNs) }},
	{perServer, "runtime.gc_pause_last_us", "tddserve_gc_pause_last_seconds", gauge, "Stop-the-world pause of the most recent GC cycle (0 before the first).",
		func(s *scrape, _ string) any {
			if s.mem.NumGC == 0 {
				return time.Duration(0)
			}
			return time.Duration(s.mem.PauseNs[(s.mem.NumGC+255)%256])
		}},

	{perServer, "requests", "tddserve_requests_total", counter, "HTTP requests received, any route.",
		routeTotal(func(rm *routeMetrics) *atomic.Int64 { return &rm.Requests })},
	{perServer, "errors", "tddserve_errors_total", counter, "Responses with status >= 400.",
		routeTotal(func(rm *routeMetrics) *atomic.Int64 { return &rm.Errors })},
	{perServer, "in_flight", "tddserve_in_flight_requests", gauge, "Requests currently executing.",
		func(s *scrape, _ string) any { return s.inFlight }},
	{perServer, "timeouts", "tddserve_timeouts_total", counter, "Requests that hit the per-request deadline.",
		routeTotal(func(rm *routeMetrics) *atomic.Int64 { return &rm.Timeouts })},
	{perServer, "panics", "tddserve_panics_total", counter, "Requests whose evaluation panicked; the worker recovered and the client got a 500.",
		func(s *scrape, _ string) any { return s.m.Panics.Load() }},
	{perServer, "cache_hits", "tddserve_spec_cache_hits_total", counter, "Spec-cache lookups answered warm.",
		func(s *scrape, _ string) any { return s.m.CacheHits.Load() }},
	{perServer, "cache_misses", "tddserve_spec_cache_misses_total", counter, "Spec-cache lookups that had to (re)compile.",
		func(s *scrape, _ string) any { return s.m.CacheMisses.Load() }},
	{perServer, "cache_evictions", "tddserve_spec_cache_evictions_total", counter, "Warm entries displaced by the LRU policy.",
		func(s *scrape, _ string) any { return s.m.CacheEvict.Load() }},
	{perServer, "asserts", "tddserve_asserts_total", counter, "Successful fact-ingestion batches.",
		func(s *scrape, _ string) any { return s.m.Asserts.Load() }},
	{perServer, "facts_ingested", "tddserve_facts_ingested_total", counter, "Facts new to a database across all ingestions.",
		func(s *scrape, _ string) any { return s.m.FactsIngested.Load() }},
	{perServer, "wal_appends", "tddserve_wal_appends_total", counter, "Fact batches appended to program write-ahead logs.",
		func(s *scrape, _ string) any { return s.m.WalAppends.Load() }},
	{perServer, "wal_fsyncs", "tddserve_wal_fsyncs_total", counter, "Fsync calls across all program logs.",
		func(s *scrape, _ string) any { return s.m.WalFsyncs.Load() }},
	{perServer, "wal_fsync_latency", "tddserve_fsync_duration_seconds", histo, "WAL fsync latency across all program logs.",
		func(s *scrape, _ string) any { return s.m.fsyncLatency.snapshot() }},
	// The follower rows read zero (and an empty leader) on a server that
	// follows nobody.
	{perServer, "follower.leader", "", "", "", func(s *scrape, _ string) any { return s.leader }},
	{perServer, "follower.polls", "tddserve_follower_polls_total", counter, "Leader poll cycles completed by a follower.",
		func(s *scrape, _ string) any { return s.m.FollowerPolls.Load() }},
	{perServer, "follower.records_applied", "tddserve_follower_records_applied_total", counter, "Leader WAL records applied by a follower.",
		func(s *scrape, _ string) any { return s.m.FollowerRecords.Load() }},
	{perServer, "follower.errors", "tddserve_follower_errors_total", counter, "Follower poll or apply failures, including divergence.",
		func(s *scrape, _ string) any { return s.m.FollowerErrors.Load() }},
	{perServer, "follower.lag_records", "tddserve_follower_lag_records", gauge, "Leader batches not yet applied, summed over programs.",
		func(s *scrape, _ string) any { return s.m.FollowerLag.Load() }},
	{perServer, KeyShed, "tddserve_shed_total", counter, "Requests rejected by admission control instead of queued.",
		routeTotal(func(rm *routeMetrics) *atomic.Int64 { return &rm.Sheds })},
	{perServer, KeyCoalesced, "tddserve_coalesced_requests_total", counter, "Asks that joined an identical in-flight evaluation.",
		func(s *scrape, _ string) any { return s.m.Coalesced.Load() }},
	{perServer, KeyFlightLeaders, "tddserve_flight_leaders_total", counter, "Coalescable evaluations actually run (flight leaders).",
		func(s *scrape, _ string) any { return s.m.FlightLeaders.Load() }},
	{perServer, "queue_depth", "tddserve_queue_depth", gauge, "Admitted tasks waiting for a worker in the shared pool queue.",
		func(s *scrape, _ string) any { return s.queueDepth }},
	{perServer, "queue_capacity", "tddserve_queue_capacity", gauge, "Bound of the shared worker-pool queue.",
		func(s *scrape, _ string) any { return s.queueCapacity }},
	{perServer, "lint_warnings", "tddserve_lint_warnings", gauge, "Lint findings at warning severity or above across warm programs.",
		func(s *scrape, _ string) any {
			n := 0
			for _, e := range s.programs {
				n += e.lint.Warnings()
			}
			return n
		}},

	{perRoute, "requests", "tddserve_route_requests_total", counter, "Requests per route.",
		func(s *scrape, id string) any { return s.m.routes[id].Requests.Load() }},
	{perRoute, "errors", "tddserve_route_errors_total", counter, "Error responses per route.",
		func(s *scrape, id string) any { return s.m.routes[id].Errors.Load() }},
	{perRoute, "sheds", "tddserve_route_sheds_total", counter, "Requests rejected by admission control per route.",
		func(s *scrape, id string) any { return s.m.routes[id].Sheds.Load() }},
	{perRoute, "timeouts", "tddserve_route_timeouts_total", counter, "Requests that hit the per-request deadline per route.",
		func(s *scrape, id string) any { return s.m.routes[id].Timeouts.Load() }},
	{perRoute, "latency", "tddserve_request_duration_seconds", histo, "Request latency per route.",
		func(s *scrape, id string) any { return s.m.routes[id].latency.snapshot() }},

	// A warm program's row is its revision, its work certificate
	// (core.Certificate, captured when the entry was built) and its lint
	// count.
	{perProgram, "rev", "", "", "", func(s *scrape, id string) any { return s.programs[id].Rev() }},
	{perProgram, "window", "tddserve_program_window", gauge, "Largest time point algorithm BT evaluated for a warm program.",
		func(s *scrape, id string) any { return s.programs[id].cert.Window }},
	{perProgram, "period.base", "tddserve_program_period_base", gauge, "Base b of a warm program's certified period: states repeat from time b on.",
		func(s *scrape, id string) any { return s.programs[id].cert.Period.Base }},
	{perProgram, "period.p", "tddserve_program_period_p", gauge, "Length p of a warm program's certified period.",
		func(s *scrape, id string) any { return s.programs[id].cert.Period.P }},
	{perProgram, "derived", "tddserve_program_derived_facts", gauge, "Facts derived beyond the database for a warm program.",
		func(s *scrape, id string) any { return s.programs[id].cert.Derived }},
	{perProgram, "firings", "tddserve_program_rule_firings", gauge, "Rule firings for a warm program.",
		func(s *scrape, id string) any { return s.programs[id].cert.Firings }},
	{perProgram, "sweeps", "tddserve_program_sweeps", gauge, "Full window sweeps for a warm program.",
		func(s *scrape, id string) any { return s.programs[id].cert.Sweeps }},
	{perProgram, "representatives", "tddserve_program_representatives", gauge, "Representative terms |T| of a warm program's specification.",
		func(s *scrape, id string) any { return s.programs[id].cert.Representatives }},
	{perProgram, "facts", "tddserve_program_spec_facts", gauge, "Primary-database facts |B| of a warm program's specification.",
		func(s *scrape, id string) any { return s.programs[id].cert.Facts }},
	{perProgram, "lint_warnings", "tddserve_program_lint_warnings", gauge, "Lint findings at warning severity or above for a warm program.",
		func(s *scrape, id string) any { return s.programs[id].lint.Warnings() }},

	{perLog, "seq", "tddserve_program_wal_seq", gauge, "Batches ingested into a program since registration.",
		func(s *scrape, id string) any { return s.logs[id].Seq }},
	{perLog, "rev", "", "", "", func(s *scrape, id string) any { return s.logs[id].Rev }},
	{perLog, "durable_seq", "tddserve_program_durable_seq", gauge, "Highest batch sequence known fsynced for a program.",
		func(s *scrape, id string) any { return s.logs[id].DurableSeq }},
	// The durable rev is a string, so Prometheus gets it info-style: a
	// constant-1 gauge with the rev as a label.
	{perLog, "durable_rev", "tddserve_program_durable_rev", gauge, "Last durable revision per program (info-style: value is always 1).",
		func(s *scrape, id string) any { return []label{{"rev", s.logs[id].DurableRev}} }},
	{perLog, "wal_bytes", "tddserve_program_wal_bytes", gauge, "Size in bytes of a program's WAL.",
		func(s *scrape, id string) any { return s.logs[id].Bytes }},
}

// scrape is everything one exposition reads that is not an atomic on
// Metrics, gathered once so every row of a response sees the same
// runtime, registry and WAL state. Warm entries are immutable once
// published, so holding them takes no program lock.
type scrape struct {
	m          *Metrics
	uptime     time.Duration
	goroutines int
	mem        runtime.MemStats
	leader     string // "" unless following

	inFlight, queueDepth, queueCapacity int

	programs map[string]*entry
	logs     map[string]wal.LogStats // nil without a data directory
	// ids lists each scope's instances, sorted; a scope with a nil list
	// (perLog without a data directory) is left out of both expositions.
	ids map[scope][]string
}

// scrape gathers one reading. ReadMemStats stops the world briefly; that
// is fine on a monitoring endpoint.
func (s *Server) scrape() *scrape {
	sc := &scrape{
		m:             s.metrics,
		uptime:        time.Since(s.metrics.start),
		goroutines:    runtime.NumGoroutine(),
		leader:        s.cfg.Follow,
		inFlight:      s.inflight.len(),
		queueDepth:    s.pool.Depth(),
		queueCapacity: s.pool.Capacity(),
		programs:      s.reg.Warm(),
		logs:          s.reg.DurabilityStats(),
	}
	runtime.ReadMemStats(&sc.mem)
	sc.ids = map[scope][]string{
		perServer:  {""},
		perRoute:   sortedKeys(s.metrics.routes),
		perProgram: sortedKeys(sc.programs),
	}
	if sc.logs != nil {
		sc.ids[perLog] = sortedKeys(sc.logs)
	}
	return sc
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// object returns the JSON object at the dot-separated path under root,
// creating it (and its parents) on first use.
func object(root map[string]any, path ...string) map[string]any {
	for _, name := range path {
		child, ok := root[name].(map[string]any)
		if !ok {
			child = make(map[string]any)
			root[name] = child
		}
		root = child
	}
	return root
}

// json is the GET /metrics walk: every row, for every instance of its
// scope, becomes a member of a nested object.
func (s *scrape) json() map[string]any {
	root := make(map[string]any)
	for i := range metricTable {
		m := &metricTable[i]
		path := strings.Split(m.json, ".")
		for _, id := range s.ids[m.scope] {
			obj := root
			if m.scope != perServer {
				obj = object(root, m.scope.section, id)
			}
			obj = object(obj, path[:len(path)-1]...)
			v := m.load(s, id)
			switch t := v.(type) {
			case time.Duration:
				v = t.Microseconds()
			case []label:
				v = t[0].value
				if len(t) > 1 {
					members := make(map[string]any, len(t))
					for _, l := range t {
						members[l.name] = l.value
					}
					v = members
				}
			}
			obj[path[len(path)-1]] = v
		}
	}
	return root
}

// prometheus is the GET /metrics.prom walk: every row with a family
// becomes a HELP/TYPE header and one sample (or histogram) per instance of
// its scope, instances sorted so the output is deterministic.
func (s *scrape) prometheus(w io.Writer) {
	for i := range metricTable {
		m := &metricTable[i]
		ids := s.ids[m.scope]
		if m.prom == "" || ids == nil {
			continue
		}
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", m.prom, m.help, m.prom, m.kind)
		for _, id := range ids {
			var labels []string
			if m.scope != perServer {
				labels = append(labels, fmt.Sprintf("%s=%q", m.scope.label, id))
			}
			value := ""
			switch t := m.load(s, id).(type) {
			case histSnapshot:
				t.writeProm(w, m.prom, strings.Join(labels, ","))
				continue
			case []label:
				for _, l := range t {
					labels = append(labels, fmt.Sprintf("%s=%q", l.name, l.value))
				}
				value = "1"
			case time.Duration:
				value = fmt.Sprint(t.Seconds())
			default:
				value = fmt.Sprint(t)
			}
			if len(labels) > 0 {
				fmt.Fprintf(w, "%s{%s} %s\n", m.prom, strings.Join(labels, ","), value)
			} else {
				fmt.Fprintf(w, "%s %s\n", m.prom, value)
			}
		}
	}
}

// GET /metrics
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.scrape().json())
}

// GET /metrics.prom — the same table in Prometheus text exposition, for
// scrape-based monitoring.
func (s *Server) handleMetricsProm(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.scrape().prometheus(w)
}
