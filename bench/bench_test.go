package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n          int
		want, best float64
	}{
		{19, 99, 50},   // 9.5 samples beyond the median: even p50 is all there is
		{100, 99, 90},  // 10 beyond p90, 5 beyond p95
		{300, 95, 95},  // 15 beyond p95
		{300, 99, 95},  // 3 beyond p99: answered at p95
		{1000, 99, 99}, // exactly 10 beyond p99
		{999, 99, 95},  // 9.99 beyond p99
		{1000, 95, 95}, // never above what was asked for
		{20000, 99.9, 99.9},
	} {
		if got := tailPercentile(tc.n, tc.want); got != tc.best {
			t.Errorf("tailPercentile(%d, %v) = %v, want %v", tc.n, tc.want, got, tc.best)
		}
	}
}

func TestSegmentStats(t *testing.T) {
	// Two segments of four ops and a remainder that must be ignored.
	ms := []float64{10, 10, 30, 10, 20, 20, 20, 20, 1000}
	medians, rates := segmentStats(ms, 4)
	if want := []float64{10, 20}; !reflect.DeepEqual(medians, want) {
		t.Errorf("medians = %v, want %v", medians, want)
	}
	// 4 ops in 60 ms and 4 ops in 80 ms of busy time.
	if want := []float64{4 / 0.060, 4 / 0.080}; !almostEqual(rates, want) {
		t.Errorf("rates = %v, want %v", rates, want)
	}
	if m, r := segmentStats(ms, 0); m != nil || r != nil {
		t.Errorf("zero-size segments must yield nothing, got %v %v", m, r)
	}
}

func almostEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9*math.Abs(b[i]) {
			return false
		}
	}
	return true
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// -> [3.5, 13.5, 31.0]; quantiles([1, 2, 4, 5, 9], n=4) -> [1.5, 4.0, 7.0]
	q1, q3 := exclusiveQuartiles([]float64{1, 2, 4, 7, 11, 16, 22, 29, 37, 46})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v, want 3.5, 31", q1, q3)
	}
	if q1, q3 := exclusiveQuartiles([]float64{1, 2, 4, 5, 9}); q1 != 1.5 || q3 != 7 {
		t.Errorf("quartiles of five = %v, %v, want 1.5, 7", q1, q3)
	}
	sp := spreadOf([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if sp.Median != 13.5 || sp.Min != 1 || sp.Max != 46 {
		t.Errorf("spread = %+v", sp)
	}
	if want := 27.5 / 13.5; math.Abs(sp.IQRShare-want) > 1e-12 {
		t.Errorf("IQR share = %v, want %v", sp.IQRShare, want)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},  // 20 covered
		{Name: "b", Start: 25, End: 50, Parent: 0},  // overlaps a: 20 more
		{Name: "c", Start: 90, End: 120, Parent: 0}, // clipped to the parent: 10
		{Name: "a.x", Start: 12, End: 17, Parent: 1},
	}
	self := selfTimes(spans)
	want := []int64{100 - 20 - 20 - 10, 20 - 5, 25, 30, 5}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times = %v, want %v", self, want)
	}

	// Folding: a root span reports its self time; what its children cover
	// is the op's staged time.
	rec := &recorder{spans: []span{
		{Name: "op", Start: 0, End: 10e6, Parent: -1, Op: 0},
		{Name: "s", Start: 0, End: 3e6, Parent: 0, Op: 0},
		{Name: "s", Start: 4e6, End: 6e6, Parent: 0, Op: 0},
		{Name: "op", Start: 10e6, End: 20e6, Parent: -1, Op: 1},
		{Name: "s", Start: 10e6, End: 13e6, Parent: 3, Op: 1},
		{Name: "s", Start: 14e6, End: 16e6, Parent: 3, Op: 1},
	}}
	st := foldSpans([]*recorder{rec})
	if st.spanMs["s"] != 2.5 || st.spanMs["op"] != 5 || st.stageMs != 5 {
		t.Errorf("folded: span %v root self %v staged %v", st.spanMs["s"], st.spanMs["op"], st.stageMs)
	}
}

// TestSeedDeterminism: the same seed gives byte-identical inputs and op
// scripts, another seed gives different ones.
func TestSeedDeterminism(t *testing.T) {
	type gen struct {
		name string
		make func(seed int64) any
	}
	gens := []gen{
		{"reach", func(seed int64) any { r, f, q := reachInputs(seed); return []string{r, f, q} }},
		{"ski", func(seed int64) any { m := skiInputs(skiParams, seed); return []string{m.rules, m.facts} }},
		{"warm queries", func(seed int64) any { return probesOf(warmQueries(skiInputs(skiParams, seed))) }},
		{"ingest script", func(seed int64) any { return ingestScript(skiInputs(ingestParams, seed), seed) }},
		{"served plan", func(seed int64) any {
			l := newLabels("r", seed)
			return [][]slot{servedPlan(0, seed, l, l), servedPlan(1, seed, l, l)}
		}},
	}
	for _, g := range gens {
		a, b, c := g.make(5), g.make(5), g.make(6)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 5 generated twice differs", g.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 5 and 6 generate the same inputs", g.name)
		}
	}
	// The two clients of served_mixed follow different scripts.
	l := newLabels("r", 5)
	if reflect.DeepEqual(servedPlan(0, 5, l, l), servedPlan(1, 5, l, l)) {
		t.Error("served plan: both clients got the same script")
	}
	// The seed must not change how constants sort.
	a, b := newLabels("r", 5), newLabels("r", 6)
	if (a.name(2) < a.name(10)) != (b.name(2) < b.name(10)) || (a.name(3) < a.constant("nowhere")) != (b.name(3) < b.constant("nowhere")) {
		t.Error("labels: sort order depends on the seed")
	}
}

func TestComparatorVerdicts(t *testing.T) {
	// Bounds of a tenth, whatever the benchmark's own table says.
	lat := metricDef{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.10}
	rate := metricDef{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	bf := benchmarkFile{EndToEnd: []metricDef{lat, rate}}
	bf.Workloads = append(bf.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "w"})
	mk := func(latency, rate float64) document {
		return document{Workloads: map[string]result{"w": {Correct: true, Attempted: 10, Metrics: map[string]metricValue{
			"op_ms_p50": {Value: latency, Unit: "ms"}, "ops_per_s": {Value: rate, Unit: "1/s"},
		}}}}
	}
	for _, tc := range []struct {
		d         metricDef
		base, cur metricValue
		want      string
	}{
		{lat, metricValue{Value: 10, Unit: "ms"}, metricValue{Value: 10.9, Unit: "ms"}, "unchanged"},
		{lat, metricValue{Value: 10, Unit: "ms"}, metricValue{Value: 11.1, Unit: "ms"}, "regressed"},
		{lat, metricValue{Value: 10, Unit: "ms"}, metricValue{Value: 8.5, Unit: "ms"}, "improved"},
		{rate, metricValue{Value: 100, Unit: "1/s"}, metricValue{Value: 85, Unit: "1/s"}, "regressed"}, // higher is better
		{rate, metricValue{Value: 100, Unit: "1/s"}, metricValue{Value: 120, Unit: "1/s"}, "improved"},
		{lat, metricValue{Value: 0, Unit: "ms"}, metricValue{Value: 1, Unit: "ms"}, "unresolved"},
		{lat, metricValue{Value: 10, Unit: "ms"}, metricValue{Value: 10, Unit: "s"}, "unresolved"},
		// Spread wider than the bound and overlapping runs: not decidable.
		{lat, metricValue{Value: 10, Unit: "ms", Min: 9, Max: 12, Spread: 0.2}, metricValue{Value: 12, Unit: "ms", Min: 11, Max: 13, Spread: 0.05}, "unresolved"},
		// ... unless every run of one side beats every run of the other.
		{lat, metricValue{Value: 10, Unit: "ms", Min: 9, Max: 12, Spread: 0.2}, metricValue{Value: 14, Unit: "ms", Min: 13, Max: 15, Spread: 0.05}, "regressed"},
	} {
		if got := verdict(tc.d, tc.base, tc.cur); got != tc.want {
			t.Errorf("verdict(%s, %v -> %v) = %s, want %s", tc.d.Name, tc.base, tc.cur, got, tc.want)
		}
	}

	var out bytes.Buffer
	if compareDocs(&out, bf, mk(10, 100), mk(10.5, 98)) {
		t.Errorf("a change inside every bound reported as a regression:\n%s", out.String())
	}
	out.Reset()
	if !compareDocs(&out, bf, mk(10, 100), mk(12, 100)) || !strings.Contains(out.String(), "regressed") {
		t.Errorf("a 20 %% slower median not reported as a regression:\n%s", out.String())
	}
	failing := mk(10, 100)
	r := failing.Workloads["w"]
	r.Failed, r.Correct = 1, false
	failing.Workloads["w"] = r
	if !compareDocs(&out, bf, mk(10, 100), failing) {
		t.Error("new failed ops must count as a regression")
	}
}

// TestBenchmarkJSONMatchesTables keeps the declaration the driver reads in
// step with the tables the program reports from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != refSeconds {
		t.Errorf("run_seconds = %d, the op counts are sized for %d", bf.RunSeconds, refSeconds)
	}
	if !reflect.DeepEqual(bf.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", bf.Paths)
	}
	if !reflect.DeepEqual(bf.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the endToEnd table:\n%v\n%v", bf.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the perLayer table")
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %q, defined %q", i, bf.Workloads[i].Name, w.name)
		}
		// Every workload keeps at least 300 timed ops per run and whole
		// segments of whole episodes.
		n := w.opsFor(refSeconds)
		if n*w.clients < 300 {
			t.Errorf("%s: %d timed ops per run, want >= 300", w.name, n*w.clients)
		}
		if per := w.segmentOps(n); n%per != 0 || n/per < 32 {
			t.Errorf("%s: %d ops do not divide into at least 32 whole segments of %d", w.name, n, per)
		}
	}
	for _, sm := range spanMetrics {
		found := false
		for _, d := range perLayer {
			found = found || d.Name == sm.metric
		}
		if !found {
			t.Errorf("span metric %s is not declared", sm.metric)
		}
	}
}

// TestSmokeAllWorkloads runs every workload at the golden seed with a
// handful of ops, untraced and staged: zero failed ops, the pinned
// results, every declared metric present and finite, and the staged ops
// agreeing with the unstaged ones.
func TestSmokeAllWorkloads(t *testing.T) {
	host := pinHost()
	dir := t.TempDir()
	for _, w := range workloads {
		n := 3
		if w.clients > 1 {
			n = 40 // enough requests to meet every route
		}
		m := &measurement{w: w}
		if err := m.tracedRound(goldenSeed, n); err != nil {
			t.Fatal(err)
		}
		if attempted, failed, first := m.failures(); failed != 0 || attempted != 2*n*w.clients {
			t.Errorf("%s: attempted %d failed %d: %v", w.name, attempted, failed, first)
		}
		if err := checkGolden(w.name, m.golden); err != nil {
			t.Errorf("%v\n(regenerate with: go run ./bench -update-golden bench/golden.json)", err)
		}
		res := m.result(host, true)
		if !res.Correct || len(res.Metrics) != len(perLayer) {
			t.Errorf("%s: traced result correct=%v with %d metrics, want %d", w.name, res.Correct, len(res.Metrics), len(perLayer))
		}
		for _, name := range []string{"driver.stage_sum_ratio", "driver.trace_overhead_ratio", "driver.samples"} {
			if res.Metrics[name].Value <= 0 {
				t.Errorf("%s: %s = %v", w.name, name, res.Metrics[name].Value)
			}
		}
		e2e := (&measurement{w: w, passes: m.passes, setupS: []float64{0.1}}).result(host, false)
		for _, d := range endToEnd {
			if v := e2e.Metrics[d.Name]; v.Value <= 0 || v.Unit != d.Unit {
				t.Errorf("%s: %s = %+v", w.name, d.Name, v)
			}
		}
		path := filepath.Join(dir, w.name+".json")
		if err := writeSpans(path, host, w.name, goldenSeed, m.recs); err != nil {
			t.Fatal(err)
		}
		var doc struct{ Spans []span }
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &doc); err != nil || len(doc.Spans) < n*w.clients {
			t.Errorf("%s: span file: %d spans, err %v", w.name, len(doc.Spans), err)
		}
	}
}

// tinyWorkload is a cold workload small enough to drive run() end to end.
func tinyWorkload(name string, corrupt bool) *workloadDef {
	return &workloadDef{
		name: name, why: "test", clients: 1, ops: 32, setupReps: 2, quiesce: true,
		setup: func(int64) (instance, error) {
			inst, err := newCold("even(T+2) :- even(T).\n", "even(0).\n", "even(1000000)")
			if err == nil && corrupt {
				inst.(*coldInst).wantAsk = !inst.(*coldInst).wantAsk
			}
			return inst, err
		},
	}
}

// TestWrongExpectedAnswerFailsTheRun: a run whose ops disagree with the
// expected answer reports them failed and exits non-zero; the same run
// with the right expectation exits zero and prints the contract's line.
func TestWrongExpectedAnswerFailsTheRun(t *testing.T) {
	saved := workloads
	defer func() { workloads = saved }()
	workloads = append(append([]*workloadDef(nil), saved...), tinyWorkload("tiny_ok", false), tinyWorkload("tiny_broken", true))

	runOne := func(name string, trace string) (int, result) {
		var stdout, stderr bytes.Buffer
		// Seed 2: the tiny workloads have no golden entry at the golden seed.
		code := run([]string{"--workload", name, "--seed", "2", "--seconds", "1", "--trace", trace,
			"-spans", filepath.Join(t.TempDir(), "spans.json")}, &stdout, &stderr)
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("%s: last line of stdout is not the result: %v\n%s\n%s", name, err, stdout.String(), stderr.String())
		}
		return code, res
	}
	code, res := runOne("tiny_ok", "0")
	if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 10 || len(res.Metrics) != len(endToEnd) {
		t.Errorf("tiny_ok: exit %d, result %+v", code, res)
	}
	if code, res := runOne("tiny_ok", "1"); code != 0 || !res.Correct || len(res.Metrics) != len(perLayer) {
		t.Errorf("tiny_ok traced: exit %d, correct %v, %d metrics", code, res.Correct, len(res.Metrics))
	}
	// The warm-up ops are checked too: a wrong expectation already fails
	// the set-up, and the run must not print a result claiming success.
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "tiny_broken", "-seed", "2", "-seconds", "1"}, &stdout, &stderr); code == 0 {
		t.Errorf("tiny_broken: exit 0\n%s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "want") {
		t.Errorf("tiny_broken: the failure does not say what was expected:\n%s", stderr.String())
	}

	// Past the warm-up, a failing op is counted, not fatal: every op is
	// attempted, the result says so, and the exit code is non-zero.
	w := tinyWorkload("tiny_late", false)
	inst, err := setUp(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	inst.(*coldInst).wantAsk = false
	p := runPass(inst, w, 0, 32, inst.op)
	m := &measurement{w: w, passes: []pass{p}, setupS: []float64{0.1}}
	if res := m.result(hostInfo{}, false); res.Correct || res.Failed != 32 || res.Attempted != 32 {
		t.Errorf("late failure: %+v", res)
	}
}
