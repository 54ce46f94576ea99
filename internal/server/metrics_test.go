package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"tdd/internal/obs"
	"tdd/internal/workload"
)

// metricsTree is a decoded GET /metrics body.
type metricsTree map[string]any

// scrapeJSON fetches and decodes GET /metrics.
func scrapeJSON(t *testing.T, base string) metricsTree {
	t.Helper()
	resp, body := getJSON(t, base+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	var tree metricsTree
	if err := json.Unmarshal(body, &tree); err != nil {
		t.Fatal(err)
	}
	return tree
}

// at walks a member path; ok is false when a step is missing.
func (m metricsTree) at(path ...string) (v any, ok bool) {
	v = map[string]any(m)
	for _, name := range path {
		obj, isObj := v.(map[string]any)
		if !isObj {
			return nil, false
		}
		if v, ok = obj[name]; !ok {
			return nil, false
		}
	}
	return v, true
}

// num returns the number at a member path, failing the test without one.
func (m metricsTree) num(t *testing.T, path ...string) float64 {
	t.Helper()
	v, _ := m.at(path...)
	f, ok := v.(float64)
	if !ok {
		t.Fatalf("/metrics has no number at %s (got %v)", strings.Join(path, "."), v)
	}
	return f
}

// flattenKeys lists the member paths of a /metrics body with instance
// names (route, program, bucket bound) replaced by "*".
func flattenKeys(prefix string, v any, instances bool, out map[string]bool) {
	obj, ok := v.(map[string]any)
	if !ok {
		out[prefix] = true
		return
	}
	for k, child := range obj {
		name := k
		if instances {
			name = "*"
		}
		path := name
		if prefix != "" {
			path = prefix + "." + name
		}
		perInstance := prefix == "" && (k == "routes" || k == "programs" || k == "durability") || k == "buckets"
		flattenKeys(path, child, perInstance, out)
	}
}

// promSamples parses an exposition into sample line → value (the key is
// everything before the value: name plus label set) and family → TYPE.
func promSamples(t *testing.T, body string) (samples map[string]float64, families map[string]string) {
	t.Helper()
	samples, families = map[string]float64{}, map[string]string{}
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(rest, " ")
			families[name] = kind
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		samples[line[:i]] = v
	}
	return samples, families
}

// parentJSONKeys and parentPromFamilies are the wire names the parent of
// the one-table change exported (a durable leader and a follower of it,
// after a registration, an ask and an ingest), captured by running that
// commit, less the snapshot counters and gauges that went with the
// snapshot writer (deletedJSONKeys, deletedPromFamilies): nothing on
// either list may disappear.
var parentJSONKeys = []string{
	"asserts", "build.go_version", "build.revision", "build.version",
	"cache_evictions", "cache_hits", "cache_misses", "coalesced_requests",
	"durability.*.durable_rev", "durability.*.durable_seq", "durability.*.rev", "durability.*.seq",
	"durability.*.wal_bytes",
	"errors", "facts_ingested", "flight_leaders",
	"follower.errors", "follower.lag_records", "follower.leader", "follower.polls", "follower.records_applied",
	"in_flight", "lint_warnings",
	"programs.*.derived", "programs.*.facts", "programs.*.firings", "programs.*.lint_warnings",
	"programs.*.period.base", "programs.*.period.p", "programs.*.representatives", "programs.*.rev", "programs.*.sweeps",
	"queue_capacity", "queue_depth", "requests",
	"routes.*.errors", "routes.*.latency.buckets.*", "routes.*.latency.count", "routes.*.latency.mean_us",
	"routes.*.requests", "routes.*.sheds", "routes.*.timeouts",
	"runtime.gc_cycles", "runtime.gc_pause_last_us", "runtime.gc_pause_total_us", "runtime.goroutines",
	"runtime.heap_alloc_bytes", "runtime.heap_sys_bytes",
	"shed_requests", "timeouts", "uptime_sec",
	"wal_appends", "wal_fsync_latency.count", "wal_fsync_latency.mean_us", "wal_fsyncs",
}

var parentPromFamilies = []string{
	"tddserve_asserts_total counter", "tddserve_build_info gauge", "tddserve_coalesced_requests_total counter",
	"tddserve_errors_total counter", "tddserve_facts_ingested_total counter", "tddserve_flight_leaders_total counter",
	"tddserve_follower_errors_total counter", "tddserve_follower_lag_records gauge",
	"tddserve_follower_polls_total counter", "tddserve_follower_records_applied_total counter",
	"tddserve_fsync_duration_seconds histogram", "tddserve_gc_cycles_total counter",
	"tddserve_gc_pause_seconds_total counter", "tddserve_goroutines gauge", "tddserve_heap_alloc_bytes gauge",
	"tddserve_heap_sys_bytes gauge", "tddserve_in_flight_requests gauge", "tddserve_lint_warnings gauge",
	"tddserve_program_derived_facts gauge", "tddserve_program_durable_rev gauge", "tddserve_program_durable_seq gauge",
	"tddserve_program_lint_warnings gauge", "tddserve_program_representatives gauge",
	"tddserve_program_rule_firings gauge", "tddserve_program_spec_facts gauge", "tddserve_program_sweeps gauge",
	"tddserve_program_wal_bytes gauge", "tddserve_program_wal_seq gauge", "tddserve_queue_capacity gauge",
	"tddserve_queue_depth gauge", "tddserve_request_duration_seconds histogram", "tddserve_requests_total counter",
	"tddserve_route_errors_total counter", "tddserve_route_requests_total counter",
	"tddserve_route_sheds_total counter", "tddserve_route_timeouts_total counter", "tddserve_shed_total counter",
	"tddserve_spec_cache_evictions_total counter", "tddserve_spec_cache_hits_total counter",
	"tddserve_spec_cache_misses_total counter", "tddserve_timeouts_total counter", "tddserve_uptime_seconds gauge",
	"tddserve_wal_appends_total counter", "tddserve_wal_fsyncs_total counter",
}

// deletedJSONKeys and deletedPromFamilies were exported only for the
// snapshot writer, which is gone; nothing may export them again.
var (
	deletedJSONKeys = []string{
		"durability.*.snapshot_age_sec", "durability.*.snapshot_seq", "wal_snapshot_errors", "wal_snapshots",
	}
	deletedPromFamilies = []string{
		"tddserve_program_snapshot_age_seconds", "tddserve_program_snapshot_seq",
		"tddserve_wal_snapshot_errors_total", "tddserve_wal_snapshots_total",
	}
)

// TestExpositionsAgree is the one-table contract: after a registration,
// an ask and an ingest on a durable server, every row of metricTable
// appears in the JSON walk, every row with a family appears in the
// Prometheus walk, and the two carry the same value (one scrape, rendered
// twice); the live endpoints still parse; and every wire name the parent
// commit exported is still exported, save the deleted snapshot rows.
func TestExpositionsAgree(t *testing.T) {
	s, ts := newTestServer(t, Config{DataDir: t.TempDir()})
	id := register(t, ts.URL, skiUnit)
	askServed(t, ts.URL, id, "plane(0, hunter)")
	ingest(t, ts.URL, id, "resort(whistler).\nplane(1, whistler).\n")

	sc := s.scrape()
	raw, err := json.Marshal(sc.json())
	if err != nil {
		t.Fatal(err)
	}
	var tree metricsTree
	if err := json.Unmarshal(raw, &tree); err != nil {
		t.Fatal(err)
	}
	var prom bytes.Buffer
	sc.prometheus(&prom)
	validatePromText(t, prom.String())
	samples, families := promSamples(t, prom.String())

	for _, m := range metricTable {
		ids := sc.ids[m.scope]
		if len(ids) == 0 {
			t.Errorf("row %q: scope %+v has no instance on a durable server with a program", m.json, m.scope)
		}
		for _, inst := range ids {
			path := strings.Split(m.json, ".")
			var labels []string
			if m.scope != perServer {
				path = append([]string{m.scope.section, inst}, path...)
				labels = []string{m.scope.label + "=" + strconv.Quote(inst)}
			}
			// series is the sample key promSamples files a family's sample
			// under: the name, then the scope's label and any extra ones.
			series := func(family string, extra ...string) string {
				if all := append(labels, extra...); len(all) > 0 {
					return family + "{" + strings.Join(all, ",") + "}"
				}
				return family
			}
			jv, ok := tree.at(path...)
			if !ok {
				t.Errorf("row %q: missing from /metrics at %v", m.json, path)
				continue
			}
			if m.prom == "" {
				if _, isString := jv.(string); !isString {
					t.Errorf("row %q has no Prometheus family but is not a string: %v", m.json, jv)
				}
				continue
			}
			if families[m.prom] != m.kind {
				t.Errorf("row %q: family %s has TYPE %q, want %q", m.json, m.prom, families[m.prom], m.kind)
			}
			switch v := m.load(sc, inst).(type) {
			case histSnapshot:
				pc, ok := samples[series(m.prom+"_count")]
				if jc := tree.num(t, append(path, "count")...); !ok || pc != jc || jc != float64(v.count) {
					t.Errorf("row %q: /metrics.prom count %v, /metrics count %v, histogram %d", m.json, pc, jc, v.count)
				}
			case []label:
				var extra []string
				for _, l := range v {
					want := jv
					if obj, isObj := jv.(map[string]any); isObj {
						want = obj[l.name]
					}
					if want != l.value {
						t.Errorf("row %q: /metrics carries %v for %s, want %q", m.json, want, l.name, l.value)
					}
					extra = append(extra, l.name+"="+strconv.Quote(l.value))
				}
				if samples[series(m.prom, extra...)] != 1 {
					t.Errorf("row %q: no info sample %s 1", m.json, series(m.prom, extra...))
				}
			default:
				pv, ok := samples[series(m.prom)]
				if !ok {
					t.Errorf("row %q: no sample %s", m.json, series(m.prom))
					continue
				}
				want := jv.(float64)
				if _, isDuration := v.(time.Duration); isDuration {
					want /= 1e6 // JSON microseconds, Prometheus seconds
				}
				if math.Abs(pv-want) > 1e-6*math.Max(1, math.Abs(want)) {
					t.Errorf("row %q: /metrics says %v, /metrics.prom says %v", m.json, want, pv)
				}
			}
		}
	}

	// The live endpoints: both parse, and no parent wire name is gone. The
	// follower keys were only exported by a follower at the parent; the
	// table exports them everywhere.
	keys := map[string]bool{}
	flattenKeys("", map[string]any(scrapeJSON(t, ts.URL)), false, keys)
	for _, k := range parentJSONKeys {
		if !keys[k] {
			t.Errorf("/metrics no longer exports %s", k)
		}
	}
	for _, k := range deletedJSONKeys {
		if keys[k] {
			t.Errorf("/metrics still exports the deleted %s", k)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics.prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	live, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	validatePromText(t, string(live))
	_, liveFamilies := promSamples(t, string(live))
	for _, f := range parentPromFamilies {
		name, kind, _ := strings.Cut(f, " ")
		if liveFamilies[name] != kind {
			t.Errorf("/metrics.prom no longer exports %s as a %s (got %q)", name, kind, liveFamilies[name])
		}
	}
	for _, name := range deletedPromFamilies {
		if liveFamilies[name] != "" {
			t.Errorf("/metrics.prom still exports the deleted %s", name)
		}
	}
	// The exposition-drift rows: the certified period and the last GC
	// pause reach Prometheus, as table rows like any other.
	for _, name := range []string{"tddserve_program_period_base", "tddserve_program_period_p", "tddserve_gc_pause_last_seconds"} {
		if liveFamilies[name] != gauge {
			t.Errorf("/metrics.prom has no %s gauge", name)
		}
	}
	// Declared once: no two rows share a JSON member or a family.
	seen := map[string]bool{}
	for _, m := range metricTable {
		for _, name := range []string{m.scope.section + "/" + m.json, m.prom} {
			if name != "" && seen[name] {
				t.Errorf("metricTable declares %s twice", name)
			}
			seen[name] = true
		}
	}
}

// duringIngest starts an ingest on a registered program and runs read
// once the ingest's "ingest" span — recorded wholly inside the critical
// section in which BT.Assert holds the program's BT mutex — has begun.
// The batch fills every cycle of a period-60060 program, a six-figure
// number of derived facts. It returns how long read took from the
// span's start and how long the span held the BT.
func duringIngest(t *testing.T, s *Server, read func(id string)) (took, held time.Duration) {
	t.Helper()
	rules, facts := workload.Cycles([]int{4, 3, 5, 7, 11, 13})
	busy, _, err := s.reg.Register("", rules, facts)
	if err != nil {
		t.Fatal(err)
	}
	ingestSpans := func() (out []obs.SpanJSON) {
		for _, p := range busy.tr.Snapshot().Phases {
			if p.Name == "ingest" {
				out = append(out, p)
			}
		}
		return out
	}

	done := make(chan error, 1)
	go func() {
		_, _, err := s.reg.Ingest(busy.ID(), "cyc0(1..3).\ncyc1(1..2).\ncyc2(1..4).\ncyc3(1..6).\ncyc4(1..10).\ncyc5(1..12).\n")
		done <- err
	}()
	// The span cannot have started before the last poll that missed it.
	notBefore := time.Now()
	for now := notBefore; len(ingestSpans()) == 0; now = time.Now() {
		notBefore = now
		select {
		case err := <-done:
			t.Fatalf("ingest returned before its span was seen: %v", err)
		default:
		}
	}
	read(busy.ID())
	took = time.Since(notBefore)

	if err := <-done; err != nil {
		t.Fatal(err)
	}
	return took, time.Duration(ingestSpans()[0].Us) * time.Microsecond
}

// TestScrapeTakesNoProgramLock pins the scrape path off every program
// lock. While an ingest holds a program's BT (duringIngest), both
// expositions are scraped and another program is looked up; all of it
// must finish before the ingest's span could have ended. A scrape that
// reads the program's counters through its BT waits for the mutex
// instead, holding the registry mutex every Lookup needs.
func TestScrapeTakesNoProgramLock(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	other := register(t, ts.URL, evenUnit)
	took, held := duringIngest(t, s, func(busy string) {
		for _, path := range []string{"/metrics", "/metrics.prom"} {
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(busy)) {
				t.Fatalf("%s during an ingest: status %d, err %v, or the busy program is missing", path, resp.StatusCode, err)
			}
		}
		if _, err := s.reg.Lookup(other); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("two scrapes and a Lookup took %v inside an ingest that held its BT for %v", took, held)
	if took >= held {
		t.Errorf("two scrapes and a Lookup took %v from the start of an ingest that held its program's BT for %v: they waited on it", took, held)
	}
}
