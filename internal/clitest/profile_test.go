package clitest

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestQueryProfileFlag drives tdd query -profile and checks the EXPLAIN
// ANALYZE tree: the header, the dominant join, per-literal scan/match
// rows with selectivity and time, and the cardinality tables.
func TestQueryProfileFlag(t *testing.T) {
	file := writeFile(t, "ski.tdd", skiUnit)
	out, err := run(t, "tdd", "query", "-profile", file, "exists T plane(T, hunter)")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "?- exists T plane(T, hunter)\nyes") {
		t.Errorf("missing answer:\n%s", out)
	}
	for _, want := range []string{
		"profile  window=", "dominant join:", "scanned=", "matched=",
		"sel=", "time=", "cardinalities", "resort(X)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("profile tree missing %q:\n%s", want, out)
		}
	}
}

// TestQueryProfileRejectsFromSpec: a saved specification never re-enters
// the engine, so -profile with -fromspec must fail loudly instead of
// printing an empty tree.
func TestQueryProfileRejectsFromSpec(t *testing.T) {
	file := writeFile(t, "even.tdd", evenUnit)
	spec := writeFile(t, "even.spec.json", "")
	if out, err := run(t, "tdd", "query", "-savespec", spec, file); err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	out, err := run(t, "tdd", "query", "-profile", "-fromspec", spec, "even(4)")
	if err == nil {
		t.Fatalf("-profile -fromspec should fail:\n%s", out)
	}
	if !strings.Contains(out, "-fromspec") {
		t.Errorf("error should explain the -fromspec restriction:\n%s", out)
	}
}

// register posts a unit program and returns its id.
func register(t *testing.T, base, unit string) string {
	t.Helper()
	resp, err := http.Post(base+"/programs", "application/json",
		bytes.NewReader(mustJSON(t, map[string]string{"unit": unit})))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var reg struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reg); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: status %d", resp.StatusCode)
	}
	return reg.ID
}

// TestServeProfileParam checks ?profile=1 end to end over a real server
// process: the ask response embeds the join-cost profile with per-literal
// counters, a dominant join, and cardinality tables.
func TestServeProfileParam(t *testing.T) {
	base := startServe(t)
	id := register(t, base, skiUnit)

	resp, err := http.Post(base+"/programs/"+id+"/ask?profile=1", "application/json",
		bytes.NewReader(mustJSON(t, map[string]string{"query": "plane(3000, hunter)"})))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var ar struct {
		Result  bool `json:"result"`
		Profile *struct {
			Window int64 `json:"window"`
			JoinUs int64 `json:"join_us"`
			Rules  []struct {
				Rule     string `json:"rule"`
				Calls    int64  `json:"calls"`
				Us       int64  `json:"us"`
				Literals []struct {
					Pos         int     `json:"pos"`
					Literal     string  `json:"literal"`
					Scanned     int64   `json:"scanned"`
					Matched     int64   `json:"matched"`
					Selectivity float64 `json:"selectivity"`
				} `json:"literals"`
			} `json:"rules"`
			Dominant *struct {
				Rule    string `json:"rule"`
				Pos     int    `json:"pos"`
				Literal string `json:"literal"`
			} `json:"dominant"`
			Cardinalities []struct {
				Pred  string `json:"pred"`
				Facts int64  `json:"facts"`
			} `json:"cardinalities"`
		} `json:"profile"`
	}
	if err := json.Unmarshal(raw, &ar); err != nil {
		t.Fatalf("%v\n%s", err, raw)
	}
	p := ar.Profile
	if p == nil {
		t.Fatalf("?profile=1 response has no profile:\n%s", raw)
	}
	if p.Window <= 0 || len(p.Rules) == 0 {
		t.Fatalf("profile shape: window=%d rules=%d\n%s", p.Window, len(p.Rules), raw)
	}
	for _, r := range p.Rules {
		if r.Calls <= 0 || len(r.Literals) == 0 {
			t.Errorf("rule %q: calls=%d literals=%d", r.Rule, r.Calls, len(r.Literals))
		}
		for _, l := range r.Literals {
			if l.Matched > l.Scanned {
				t.Errorf("%s[%d]: matched %d > scanned %d", r.Rule, l.Pos, l.Matched, l.Scanned)
			}
		}
	}
	if p.Dominant == nil || p.Dominant.Pos == 0 {
		t.Errorf("dominant join missing or not a join literal: %+v", p.Dominant)
	}
	if len(p.Cardinalities) == 0 {
		t.Errorf("profile has no cardinality tables:\n%s", raw)
	}

	// Without ?profile=1 the block is elided.
	resp, err = http.Post(base+"/programs/"+id+"/ask", "application/json",
		bytes.NewReader(mustJSON(t, map[string]string{"query": "plane(3000, hunter)"})))
	if err != nil {
		t.Fatal(err)
	}
	var bare map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&bare); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, ok := bare["profile"]; ok {
		t.Error("ask without ?profile=1 should omit the profile block")
	}
}

// TestServeDebugFlights drives load through a 1-slot cache so every ask
// recompiles its program, and polls GET /debug/flights until it observes
// the ask both as an in-flight request (age, trace id) and as an
// in-flight coalescable evaluation.
func TestServeDebugFlights(t *testing.T) {
	base := startServe(t, "-cache", "1")
	skiID := register(t, base, skiUnit)
	evenID := register(t, base, evenUnit)

	// Alternating asks: each one evicts the other program's spec, so each
	// ask holds its request slot through a full recompile — a wide window
	// for the poller to catch it in flight.
	stop := make(chan struct{})
	done := make(chan struct{})
	var askErr atomic.Value
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, q := range []struct{ id, query string }{
				{skiID, "plane(3000, hunter)"},
				{evenID, "even(1000000)"},
			} {
				resp, err := http.Post(base+"/programs/"+q.id+"/ask", "application/json",
					bytes.NewReader([]byte(`{"query": "`+q.query+`"}`)))
				if err != nil {
					askErr.Store(err)
					return
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
			}
		}
	}()
	defer func() {
		close(stop)
		<-done
		if err := askErr.Load(); err != nil {
			t.Fatalf("background ask failed: %v", err)
		}
	}()

	type flightsResp struct {
		Requests []struct {
			Route   string `json:"route"`
			Program string `json:"program"`
			TraceID string `json:"trace_id"`
			AgeUs   int64  `json:"age_us"`
		} `json:"requests"`
		Flights []struct {
			Program string `json:"program"`
			Query   string `json:"query"`
			Kind    string `json:"kind"`
			AgeUs   int64  `json:"age_us"`
		} `json:"flights"`
	}
	var sawRequest, sawFlight bool
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) && !(sawRequest && sawFlight) {
		resp, err := http.Get(base + "/debug/flights")
		if err != nil {
			t.Fatal(err)
		}
		var fr flightsResp
		if err := json.NewDecoder(resp.Body).Decode(&fr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		for _, r := range fr.Requests {
			if r.Route == "ask" && (r.Program == skiID || r.Program == evenID) {
				if r.TraceID == "" {
					t.Error("in-flight request has no trace id")
				}
				if r.AgeUs < 0 {
					t.Errorf("in-flight request age %dus", r.AgeUs)
				}
				sawRequest = true
			}
		}
		for _, f := range fr.Flights {
			if f.Kind == "ask" && (f.Program == skiID || f.Program == evenID) {
				if f.Query == "" {
					t.Error("in-flight evaluation has no query")
				}
				sawFlight = true
			}
		}
	}
	if !sawRequest {
		t.Error("/debug/flights never showed the ask as an in-flight request")
	}
	if !sawFlight {
		t.Error("/debug/flights never showed an in-flight coalescable evaluation")
	}
}

// TestServeDebugSlowAndShards checks /debug/slow — a nanosecond slow-query
// threshold makes every ask slow, so the ring retains its full phase tree —
// and that /debug/shards went with the registry's lock split (E16).
func TestServeDebugSlowAndShards(t *testing.T) {
	base := startServe(t, "-slowquery", "1ns", "-slow-keep", "8")
	id := register(t, base, evenUnit)

	resp, err := http.Post(base+"/programs/"+id+"/ask", "application/json",
		bytes.NewReader(mustJSON(t, map[string]string{"query": "even(1000000)"})))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()

	resp, err = http.Get(base + "/debug/slow")
	if err != nil {
		t.Fatal(err)
	}
	var slow struct {
		ThresholdUs int64 `json:"threshold_us"`
		Keep        int   `json:"keep"`
		Total       int64 `json:"total"`
		Slow        []struct {
			Route     string          `json:"route"`
			Program   string          `json:"program"`
			Query     string          `json:"query"`
			TraceID   string          `json:"trace_id"`
			ElapsedUs int64           `json:"elapsed_us"`
			Trace     json.RawMessage `json:"trace"`
		} `json:"slow"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&slow); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if slow.Keep != 8 {
		t.Errorf("slow keep = %d, want 8", slow.Keep)
	}
	if slow.Total < 1 || len(slow.Slow) < 1 {
		t.Fatalf("slow ring empty after a slow ask: total=%d entries=%d", slow.Total, len(slow.Slow))
	}
	e := slow.Slow[0]
	if e.Route != "ask" || e.Program != id || e.Query != "even(1000000)" {
		t.Errorf("slow entry = %+v", e)
	}
	if e.TraceID == "" || len(e.Trace) == 0 {
		t.Errorf("slow entry lost its trace: id=%q trace=%s", e.TraceID, e.Trace)
	}

	resp, err = http.Get(base + "/debug/shards")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/debug/shards: status %d, want 404", resp.StatusCode)
	}
}

// TestServeBuildAndRuntimeMetrics checks the process-identity satellite:
// /metrics carries build info, uptime, and runtime gauges, and
// /metrics.prom exposes them as tddserve_build_info + runtime families.
func TestServeBuildAndRuntimeMetrics(t *testing.T) {
	base := startServe(t)

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Build struct {
			GoVersion string `json:"go_version"`
			Version   string `json:"version"`
			Revision  string `json:"revision"`
		} `json:"build"`
		UptimeSec float64 `json:"uptime_sec"`
		Runtime   struct {
			Goroutines int    `json:"goroutines"`
			HeapAlloc  uint64 `json:"heap_alloc_bytes"`
			HeapSys    uint64 `json:"heap_sys_bytes"`
		} `json:"runtime"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !strings.HasPrefix(snap.Build.GoVersion, "go") {
		t.Errorf("build.go_version = %q", snap.Build.GoVersion)
	}
	if snap.UptimeSec <= 0 {
		t.Errorf("uptime_sec = %v", snap.UptimeSec)
	}
	if snap.Runtime.Goroutines < 1 || snap.Runtime.HeapAlloc == 0 || snap.Runtime.HeapSys == 0 {
		t.Errorf("runtime gauges = %+v", snap.Runtime)
	}

	resp, err = http.Get(base + "/metrics.prom")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, fam := range []string{
		"tddserve_build_info{go_version=", "tddserve_uptime_seconds",
		"tddserve_goroutines", "tddserve_heap_alloc_bytes",
		"tddserve_gc_cycles_total", "tddserve_gc_pause_seconds_total",
	} {
		if !bytes.Contains(raw, []byte(fam)) {
			t.Errorf("/metrics.prom missing %s", fam)
		}
	}
}
