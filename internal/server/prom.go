package server

// Prometheus text exposition (version 0.0.4) of the server's metrics.
// Hand-rolled rather than depending on a client library: the metric set
// is small, fixed, and entirely atomics-backed, so the exposition is a
// deterministic walk. Served at GET /metrics.prom next to the richer
// JSON snapshot at GET /metrics.

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"
)

// promMetric describes one scalar family: name, type, help, and a loader.
type promMetric struct {
	name string
	typ  string // "counter" or "gauge"
	help string
	load func(m *Metrics) int64
}

var promScalars = []promMetric{
	{"tddserve_requests_total", "counter", "HTTP requests received, any route.",
		func(m *Metrics) int64 { return m.Requests.Load() }},
	{"tddserve_errors_total", "counter", "Responses with status >= 400.",
		func(m *Metrics) int64 { return m.Errors.Load() }},
	{"tddserve_in_flight_requests", "gauge", "Requests currently executing.",
		func(m *Metrics) int64 { return m.InFlight.Load() }},
	{"tddserve_timeouts_total", "counter", "Requests that hit the per-request deadline.",
		func(m *Metrics) int64 { return m.Timeouts.Load() }},
	{"tddserve_spec_cache_hits_total", "counter", "Spec-cache lookups answered warm.",
		func(m *Metrics) int64 { return m.CacheHits.Load() }},
	{"tddserve_spec_cache_misses_total", "counter", "Spec-cache lookups that had to (re)compile.",
		func(m *Metrics) int64 { return m.CacheMisses.Load() }},
	{"tddserve_spec_cache_evictions_total", "counter", "Warm entries displaced by the LRU policy.",
		func(m *Metrics) int64 { return m.CacheEvict.Load() }},
	{"tddserve_asserts_total", "counter", "Successful fact-ingestion batches.",
		func(m *Metrics) int64 { return m.Asserts.Load() }},
	{"tddserve_facts_ingested_total", "counter", "Facts new to a database across all ingestions.",
		func(m *Metrics) int64 { return m.FactsIngested.Load() }},
	{"tddserve_wal_appends_total", "counter", "Fact batches appended to program write-ahead logs.",
		func(m *Metrics) int64 { return m.WalAppends.Load() }},
	{"tddserve_wal_fsyncs_total", "counter", "Fsync calls across all program logs.",
		func(m *Metrics) int64 { return m.WalFsyncs.Load() }},
	{"tddserve_wal_snapshots_total", "counter", "Snapshot + log-truncation cycles completed.",
		func(m *Metrics) int64 { return m.Snapshots.Load() }},
	{"tddserve_wal_snapshot_errors_total", "counter", "Snapshot attempts that failed (the batch stayed logged).",
		func(m *Metrics) int64 { return m.SnapshotErrors.Load() }},
	{"tddserve_follower_polls_total", "counter", "Leader poll cycles completed by a follower.",
		func(m *Metrics) int64 { return m.FollowerPolls.Load() }},
	{"tddserve_follower_records_applied_total", "counter", "Leader WAL records applied by a follower.",
		func(m *Metrics) int64 { return m.FollowerRecords.Load() }},
	{"tddserve_follower_errors_total", "counter", "Follower poll or apply failures, including divergence.",
		func(m *Metrics) int64 { return m.FollowerErrors.Load() }},
	{"tddserve_follower_lag_records", "gauge", "Leader batches not yet applied, summed over programs.",
		func(m *Metrics) int64 { return m.FollowerLag.Load() }},
	{"tddserve_shed_total", "counter", "Requests rejected by admission control instead of queued.",
		func(m *Metrics) int64 { return m.Shed.Load() }},
	{"tddserve_coalesced_requests_total", "counter", "Asks that joined an identical in-flight evaluation.",
		func(m *Metrics) int64 { return m.Coalesced.Load() }},
	{"tddserve_flight_leaders_total", "counter", "Coalescable evaluations actually run (flight leaders).",
		func(m *Metrics) int64 { return m.FlightLeaders.Load() }},
}

// promLe renders a bucket bound in seconds the way Prometheus clients do
// (shortest float form, e.g. 5e-05, 0.001, 1).
func promLe(us int64) string {
	return strconv.FormatFloat(float64(us)/1e6, 'g', -1, 64)
}

// writePrometheus renders the whole exposition: the scalar families, the
// worker-queue gauges, the per-route
// request/error/shed/timeout counters and latency histograms, and
// per-warm-program engine gauges. Route and program names are emitted
// sorted so the output is deterministic (and testable line-for-line).
func (m *Metrics) writePrometheus(w io.Writer, programs map[string]ProgramStats, durability map[string]DurabilityStats,
	queueDepth, queueCapacity int) {
	bi := binaryBuildInfo()
	fmt.Fprintf(w, "# HELP tddserve_build_info Build identity (info-style: value is always 1).\n# TYPE tddserve_build_info gauge\ntddserve_build_info{go_version=%q,version=%q,revision=%q} 1\n",
		bi.GoVersion, bi.Version, bi.Revision)
	fmt.Fprintf(w, "# HELP tddserve_uptime_seconds Seconds since the server's metrics were created.\n# TYPE tddserve_uptime_seconds gauge\ntddserve_uptime_seconds %s\n",
		strconv.FormatFloat(time.Since(m.start).Seconds(), 'g', -1, 64))
	rs := runtimeSnapshot()
	fmt.Fprintf(w, "# HELP tddserve_goroutines Live goroutines in the serving process.\n# TYPE tddserve_goroutines gauge\ntddserve_goroutines %d\n", rs.Goroutines)
	fmt.Fprintf(w, "# HELP tddserve_heap_alloc_bytes Heap bytes allocated and in use.\n# TYPE tddserve_heap_alloc_bytes gauge\ntddserve_heap_alloc_bytes %d\n", rs.HeapAlloc)
	fmt.Fprintf(w, "# HELP tddserve_heap_sys_bytes Heap bytes obtained from the OS.\n# TYPE tddserve_heap_sys_bytes gauge\ntddserve_heap_sys_bytes %d\n", rs.HeapSys)
	fmt.Fprintf(w, "# HELP tddserve_gc_cycles_total Completed garbage-collection cycles.\n# TYPE tddserve_gc_cycles_total counter\ntddserve_gc_cycles_total %d\n", rs.GCCycles)
	fmt.Fprintf(w, "# HELP tddserve_gc_pause_seconds_total Cumulative stop-the-world GC pause time.\n# TYPE tddserve_gc_pause_seconds_total counter\ntddserve_gc_pause_seconds_total %s\n",
		strconv.FormatFloat(float64(rs.GCPauseUs)/1e6, 'g', -1, 64))

	for _, s := range promScalars {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n", s.name, s.help, s.name, s.typ, s.name, s.load(m))
	}

	fmt.Fprintf(w, "# HELP tddserve_queue_depth Admitted tasks waiting for a worker in the shared pool queue.\n# TYPE tddserve_queue_depth gauge\ntddserve_queue_depth %d\n", queueDepth)
	fmt.Fprintf(w, "# HELP tddserve_queue_capacity Bound of the shared worker-pool queue.\n# TYPE tddserve_queue_capacity gauge\ntddserve_queue_capacity %d\n", queueCapacity)

	fmt.Fprintf(w, "# HELP tddserve_fsync_duration_seconds WAL fsync latency across all program logs.\n# TYPE tddserve_fsync_duration_seconds histogram\n")
	{
		buckets, count, sumUs := m.fsyncLatency.cumulative()
		for i, bound := range bucketBoundsMicros {
			fmt.Fprintf(w, "tddserve_fsync_duration_seconds_bucket{le=%q} %d\n", promLe(bound), buckets[i])
		}
		fmt.Fprintf(w, "tddserve_fsync_duration_seconds_bucket{le=\"+Inf\"} %d\n", buckets[len(buckets)-1])
		fmt.Fprintf(w, "tddserve_fsync_duration_seconds_sum %s\n", strconv.FormatFloat(float64(sumUs)/1e6, 'g', -1, 64))
		fmt.Fprintf(w, "tddserve_fsync_duration_seconds_count %d\n", count)
	}

	routes := make([]string, 0, len(m.routes))
	for name := range m.routes {
		routes = append(routes, name)
	}
	sort.Strings(routes)

	fmt.Fprintf(w, "# HELP tddserve_route_requests_total Requests per route.\n# TYPE tddserve_route_requests_total counter\n")
	for _, name := range routes {
		fmt.Fprintf(w, "tddserve_route_requests_total{route=%q} %d\n", name, m.routes[name].Requests.Load())
	}
	fmt.Fprintf(w, "# HELP tddserve_route_errors_total Error responses per route.\n# TYPE tddserve_route_errors_total counter\n")
	for _, name := range routes {
		fmt.Fprintf(w, "tddserve_route_errors_total{route=%q} %d\n", name, m.routes[name].Errors.Load())
	}
	fmt.Fprintf(w, "# HELP tddserve_route_sheds_total Requests rejected by admission control per route.\n# TYPE tddserve_route_sheds_total counter\n")
	for _, name := range routes {
		fmt.Fprintf(w, "tddserve_route_sheds_total{route=%q} %d\n", name, m.routes[name].Sheds.Load())
	}
	fmt.Fprintf(w, "# HELP tddserve_route_timeouts_total Requests that hit the per-request deadline per route.\n# TYPE tddserve_route_timeouts_total counter\n")
	for _, name := range routes {
		fmt.Fprintf(w, "tddserve_route_timeouts_total{route=%q} %d\n", name, m.routes[name].Timeouts.Load())
	}

	fmt.Fprintf(w, "# HELP tddserve_request_duration_seconds Request latency per route.\n# TYPE tddserve_request_duration_seconds histogram\n")
	for _, name := range routes {
		buckets, count, sumUs := m.routes[name].latency.cumulative()
		for i, bound := range bucketBoundsMicros {
			fmt.Fprintf(w, "tddserve_request_duration_seconds_bucket{route=%q,le=%q} %d\n", name, promLe(bound), buckets[i])
		}
		fmt.Fprintf(w, "tddserve_request_duration_seconds_bucket{route=%q,le=\"+Inf\"} %d\n", name, buckets[len(buckets)-1])
		fmt.Fprintf(w, "tddserve_request_duration_seconds_sum{route=%q} %s\n", name, strconv.FormatFloat(float64(sumUs)/1e6, 'g', -1, 64))
		fmt.Fprintf(w, "tddserve_request_duration_seconds_count{route=%q} %d\n", name, count)
	}

	var lintWarnings int64
	for _, p := range programs {
		lintWarnings += int64(p.LintWarnings)
	}
	fmt.Fprintf(w, "# HELP tddserve_lint_warnings Lint findings at warning severity or above across warm programs.\n# TYPE tddserve_lint_warnings gauge\ntddserve_lint_warnings %d\n", lintWarnings)

	ids := make([]string, 0, len(programs))
	for id := range programs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	progGauges := []struct {
		name, help string
		load       func(ProgramStats) int64
	}{
		{"tddserve_program_derived_facts", "Facts derived beyond the database for a warm program.",
			func(p ProgramStats) int64 { return int64(p.Derived) }},
		{"tddserve_program_rule_firings", "Rule firings for a warm program.",
			func(p ProgramStats) int64 { return int64(p.Firings) }},
		{"tddserve_program_sweeps", "Full window sweeps for a warm program.",
			func(p ProgramStats) int64 { return int64(p.Sweeps) }},
		{"tddserve_program_representatives", "Representative terms |T| of a warm program's specification.",
			func(p ProgramStats) int64 { return int64(p.Representatives) }},
		{"tddserve_program_spec_facts", "Primary-database facts |B| of a warm program's specification.",
			func(p ProgramStats) int64 { return int64(p.Facts) }},
		{"tddserve_program_lint_warnings", "Lint findings at warning severity or above for a warm program.",
			func(p ProgramStats) int64 { return int64(p.LintWarnings) }},
	}
	for _, g := range progGauges {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", g.name, g.help, g.name)
		for _, id := range ids {
			fmt.Fprintf(w, "%s{program=%q} %d\n", g.name, id, g.load(programs[id]))
		}
	}

	if len(durability) == 0 {
		return
	}
	dids := make([]string, 0, len(durability))
	for id := range durability {
		dids = append(dids, id)
	}
	sort.Strings(dids)
	durGauges := []struct {
		name, help string
		load       func(DurabilityStats) int64
	}{
		{"tddserve_program_wal_seq", "Batches ingested into a program since registration.",
			func(d DurabilityStats) int64 { return int64(d.Seq) }},
		{"tddserve_program_durable_seq", "Highest batch sequence known fsynced for a program.",
			func(d DurabilityStats) int64 { return int64(d.DurableSeq) }},
		{"tddserve_program_snapshot_seq", "Batch sequence covered by the program's latest snapshot.",
			func(d DurabilityStats) int64 { return int64(d.SnapshotSeq) }},
		{"tddserve_program_wal_bytes", "Live WAL segment size in bytes for a program.",
			func(d DurabilityStats) int64 { return d.WalBytes }},
	}
	for _, g := range durGauges {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", g.name, g.help, g.name)
		for _, id := range dids {
			fmt.Fprintf(w, "%s{program=%q} %d\n", g.name, id, g.load(durability[id]))
		}
	}
	fmt.Fprintf(w, "# HELP tddserve_program_snapshot_age_seconds Seconds since the program's latest snapshot (0 before any snapshot).\n# TYPE tddserve_program_snapshot_age_seconds gauge\n")
	for _, id := range dids {
		fmt.Fprintf(w, "tddserve_program_snapshot_age_seconds{program=%q} %s\n", id,
			strconv.FormatFloat(durability[id].SnapshotAgeSec, 'g', -1, 64))
	}
	// The durable rev is a string, so expose it info-style: a constant-1
	// gauge with the rev as a label, the idiom Prometheus uses for build
	// and version identifiers.
	fmt.Fprintf(w, "# HELP tddserve_program_durable_rev Last durable revision per program (info-style: value is always 1).\n# TYPE tddserve_program_durable_rev gauge\n")
	for _, id := range dids {
		fmt.Fprintf(w, "tddserve_program_durable_rev{program=%q,rev=%q} 1\n", id, durability[id].DurableRev)
	}
}
