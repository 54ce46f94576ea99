package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"tdd/internal/obs"
)

// TestHistogramBoundaries pins the bucket edges: bounds are inclusive
// upper bounds, and observations past the last bound land in the +Inf
// catch-all.
func TestHistogramBoundaries(t *testing.T) {
	var h histogram
	h.observe(50 * time.Microsecond)  // exactly on the first bound -> bucket 0
	h.observe(51 * time.Microsecond)  // just past it -> bucket 1
	h.observe(100 * time.Microsecond) // exactly on the second bound -> bucket 1
	h.observe(time.Hour)              // past every bound -> +Inf

	if got := h.buckets[0].Load(); got != 1 {
		t.Errorf("bucket le=50us = %d, want 1 (bound must be inclusive)", got)
	}
	if got := h.buckets[1].Load(); got != 2 {
		t.Errorf("bucket le=100us = %d, want 2", got)
	}
	if got := h.buckets[len(h.buckets)-1].Load(); got != 1 {
		t.Errorf("+Inf bucket = %d, want 1", got)
	}

	// One reading, two renderings: the JSON form keys the non-empty
	// buckets by bound, the Prometheus form accumulates them.
	snap := h.snapshot()
	if snap.count != 4 {
		t.Errorf("count = %d, want 4", snap.count)
	}
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Count   int64            `json:"count"`
		Buckets map[string]int64 `json:"buckets"`
	}
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.Count != 4 || got.Buckets["+Inf"] != 1 || got.Buckets["le_100µs"] != 2 {
		t.Errorf("JSON form = %s, want count 4, +Inf 1, le_100µs 2", raw)
	}
	var prom strings.Builder
	snap.writeProm(&prom, "h", `route="x"`)
	for _, want := range []string{
		`h_bucket{route="x",le="5e-05"} 1`,
		`h_bucket{route="x",le="0.0001"} 3`,
		`h_bucket{route="x",le="5"} 3`,
		`h_bucket{route="x",le="+Inf"} 4`,
		`h_count{route="x"} 4`,
	} {
		if !strings.Contains(prom.String(), want+"\n") {
			t.Errorf("Prometheus form missing %q:\n%s", want, prom.String())
		}
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines;
// run under -race this doubles as the data-race check for the lock-free
// update path.
func TestHistogramConcurrent(t *testing.T) {
	var h histogram
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.observe(time.Duration(w*i) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	if got := h.count.Load(); got != workers*per {
		t.Errorf("count = %d, want %d", got, workers*per)
	}
	var sum int64
	for i := range h.buckets {
		sum += h.buckets[i].Load()
	}
	if sum != workers*per {
		t.Errorf("bucket sum = %d, want %d", sum, workers*per)
	}
}

// TestRouteMetricsOrphan checks that asking for an unregistered route
// name yields a usable sink instead of nil.
func TestRouteMetricsOrphan(t *testing.T) {
	m := newMetrics([]string{"known"})
	rm := m.route("never-registered")
	if rm == nil {
		t.Fatal("route() returned nil for an unknown name")
	}
	rm.Requests.Add(1) // must not panic
	if rm == m.route("known") {
		t.Error("orphan sink aliases a registered route")
	}
}

// promFamily strips histogram-sample suffixes back to the family name.
func promFamily(name string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suf) {
			return strings.TrimSuffix(name, suf)
		}
	}
	return name
}

// validatePromText parses a Prometheus text exposition: every sample
// line must be "name{labels} value" for a family with exactly one HELP
// and one TYPE line, declared before its first sample.
func validatePromText(t *testing.T, body string) {
	t.Helper()
	help := map[string]int{}
	typ := map[string]string{}
	samples := 0
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, found := strings.Cut(rest, " ")
			if !found {
				t.Errorf("HELP line without text: %q", line)
			}
			help[name]++
			if help[name] > 1 {
				t.Errorf("duplicate HELP for %s", name)
			}
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(rest, " ")
			if kind != "counter" && kind != "gauge" && kind != "histogram" {
				t.Errorf("unknown TYPE %q for %s", kind, name)
			}
			if _, dup := typ[name]; dup {
				t.Errorf("duplicate TYPE for %s", name)
			}
			typ[name] = kind
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Errorf("unexpected comment line %q", line)
			continue
		}
		samples++
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		fam := promFamily(name)
		if help[fam] == 0 {
			t.Errorf("sample %q before/without HELP for %s", line, fam)
		}
		if _, ok := typ[fam]; !ok {
			t.Errorf("sample %q before/without TYPE for %s", line, fam)
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Errorf("sample line %q is not name value", line)
		}
	}
	if samples == 0 {
		t.Error("exposition contained no samples")
	}
}

// TestMetricsProm serves traffic and checks GET /metrics.prom is valid
// Prometheus text exposition carrying the route and program families.
func TestMetricsProm(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	id := register(t, ts.URL, evenUnit)
	askServed(t, ts.URL, id, "even(4)")

	resp, err := http.Get(ts.URL + "/metrics.prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	validatePromText(t, body)
	for _, want := range []string{
		"tddserve_requests_total ",
		`tddserve_route_requests_total{route="ask"} 1`,
		`tddserve_request_duration_seconds_bucket{route="ask",le="+Inf"} 1`,
		`tddserve_program_derived_facts{program="` + id + `"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// findSpan looks up a span by name anywhere in a phase tree.
func findSpan(phases []obs.SpanJSON, name string) *obs.SpanJSON {
	for i := range phases {
		if phases[i].Name == name {
			return &phases[i]
		}
		if sp := findSpan(phases[i].Children, name); sp != nil {
			return sp
		}
	}
	return nil
}

// TestAskTrace is the acceptance check for ?trace=1: a warm served query
// returns a phase tree containing (at least) classify, certify-period, a
// fixpoint with per-sweep firing counts, and an answer phase; the
// top-level phase durations of the best of up to three traced asks sum
// to within 10% of the reported total; and
// the per-rule firing table rides along.
func TestAskTrace(t *testing.T) {
	// The non-temporal rule forces the engine's outer fixpoint to
	// re-sweep the window, so the trace carries per-sweep spans.
	unit := skiUnit + "visited(X) :- plane(T, X).\n"
	_, ts := newTestServer(t, Config{Workers: 2})
	id := register(t, ts.URL, unit)
	askServed(t, ts.URL, id, "plane(2, hunter)") // warm the entry

	// One traced ask with every structural assertion; it returns the sum
	// of the top-level phase durations and the reported total. The 10%
	// attribution bound is a wall-clock ratio, which a scheduler gap
	// between two phases on a busy host can break: it is applied to the
	// best of up to three asks, as scripts/ci.sh's timing gates are.
	tracedAsk := func() (sum, total int64) {
		resp, body := postJSON(t, ts.URL+"/programs/"+id+"/ask?trace=1",
			askRequest{Query: "plane(2, hunter)"})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var ar askResponse
		if err := json.Unmarshal(body, &ar); err != nil {
			t.Fatal(err)
		}
		if !ar.Result {
			t.Error("expected plane(2, hunter) to hold")
		}
		if ar.Trace == nil {
			t.Fatal("?trace=1 returned no trace")
		}
		if ar.TraceID == "" || ar.Trace.TraceID != ar.TraceID {
			t.Errorf("trace ids disagree: response %q, trace %q", ar.TraceID, ar.Trace.TraceID)
		}
		if got := resp.Header.Get("X-Trace-Id"); got != ar.TraceID {
			t.Errorf("X-Trace-Id header %q != trace id %q", got, ar.TraceID)
		}

		for _, phase := range []string{"classify", "certify-period", "fixpoint", "answer"} {
			if findSpan(ar.Trace.Phases, phase) == nil {
				t.Errorf("phase tree missing %q:\n%s", phase, body)
			}
		}
		fx := findSpan(ar.Trace.Phases, "fixpoint")
		if fx != nil {
			sweeps := 0
			for _, c := range fx.Children {
				if c.Name == "sweep" {
					sweeps++
					if _, ok := c.Counters["firings"]; !ok {
						t.Error("sweep span lacks a firings counter")
					}
				}
			}
			if sweeps == 0 {
				t.Error("fixpoint has no per-sweep spans")
			}
		}

		if len(ar.Trace.Rules) == 0 {
			t.Fatal("trace carries no per-rule firing table")
		}
		firings := 0
		for _, r := range ar.Trace.Rules {
			if r.Rule == "" {
				t.Error("rule row without source text")
			}
			firings += r.Firings
		}
		if firings == 0 {
			t.Error("per-rule firing table is all zeros")
		}

		for _, p := range ar.Trace.Phases {
			sum += p.Us
		}
		total = ar.Trace.TotalUs
		if total <= 0 {
			t.Fatalf("total_us = %d", total)
		}
		return sum, total
	}
	sum, total := tracedAsk()
	for attempt := 1; attempt < 3 && !attributed(sum, total); attempt++ {
		sum, total = tracedAsk()
	}
	if !attributed(sum, total) {
		t.Errorf("phase durations sum to %dus, total %dus — off by more than 10%%", sum, total)
	}

	// Without ?trace=1 the response must stay lean.
	_, body := postJSON(t, ts.URL+"/programs/"+id+"/ask", askRequest{Query: "plane(7, hunter)"})
	var plain askResponse
	if err := json.Unmarshal(body, &plain); err != nil {
		t.Fatal(err)
	}
	if plain.Trace != nil {
		t.Error("trace block present without ?trace=1")
	}
}

// attributed reports whether top-level phases summing to sum account for
// the total to within 10%.
func attributed(sum, total int64) bool {
	diff := total - sum
	return diff >= 0 && float64(diff) <= 0.1*float64(total)
}

// TestAnswersTrace checks the answers endpoint carries the same trace
// block.
func TestAnswersTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	id := register(t, ts.URL, evenUnit)
	resp, body := postJSON(t, ts.URL+"/programs/"+id+"/answers?trace=1",
		answersRequest{Query: "even(T)"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var ar answersResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Trace == nil {
		t.Fatal("?trace=1 returned no trace")
	}
	if findSpan(ar.Trace.Phases, "certify-period") == nil {
		t.Errorf("phase tree missing certify-period: %s", body)
	}
	if findSpan(ar.Trace.Phases, "answer") == nil {
		t.Errorf("phase tree missing answer: %s", body)
	}
}

// TestSlowQueryLog checks that a request over the threshold dumps its
// phase tree to the structured log.
func TestSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	logger := slog.New(slog.NewTextHandler(&lockedWriter{w: &buf, mu: &mu}, nil))
	_, ts := newTestServer(t, Config{Workers: 2, SlowQueryLog: time.Nanosecond, Logger: logger})
	id := register(t, ts.URL, evenUnit)
	askServed(t, ts.URL, id, "even(4)")

	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "slow query") {
		t.Fatalf("no slow-query line in log:\n%s", out)
	}
	if !strings.Contains(out, "answer") {
		t.Errorf("slow-query line lacks the phase tree:\n%s", out)
	}
}

// lockedWriter serializes writes from the server's handler goroutines.
type lockedWriter struct {
	w  io.Writer
	mu *sync.Mutex
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// TestPprofGate checks pprof is mounted only when opted into.
func TestPprofGate(t *testing.T) {
	_, off := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof reachable without EnablePprof: status %d", resp.StatusCode)
	}

	_, on := newTestServer(t, Config{Workers: 1, EnablePprof: true})
	resp, err = http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("goroutine")) {
		t.Errorf("pprof index: status %d body %.80s", resp.StatusCode, body)
	}
}
