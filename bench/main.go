// Command bench is tddmeter, the repository's benchmark: five fixed-work
// workloads over the public API, six end-to-end metrics each, and a traced
// mode that re-runs every op as explicit calls into each layer. See
// README.md in this directory.
//
//	go run ./bench -workload reach_cold -seed 1 -seconds 16 -trace 0
//	go run ./bench                      # all workloads, three interleaved rounds
//	go run ./bench -trace 1 -workload ski_cold
//	go run ./bench -calibrate 5
//	go run ./bench -compare old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// metricDef declares one metric exactly as BENCHMARK.json lists it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees, reported for every
// workload, with the share by which each may worsen before a change
// counts as a regression. The four timings carry three times the spread
// the reference box shows between identical runs in a quiet quarter of an
// hour (up to 8 %; README.md has the tables); the two byte counts repeat
// to a fraction of a per cent.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"alloc_mb_per_op", "MB", "lower", 0.03},
	{"live_heap_mb", "MB", "lower", 0.06},
}

// perLayer are the metrics of single layers, from the traced run. A layer
// a workload does not enter reports zero.
var perLayer = []metricDef{
	{Name: "parser.program_ms", Unit: "ms", Better: "lower"},
	{Name: "parser.facts_per_op", Unit: "count", Better: "lower"},
	{Name: "parser.query_us", Unit: "us", Better: "lower"},
	{Name: "parser.batch_us", Unit: "us", Better: "lower"},
	{Name: "engine.new_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.fixpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.fixpoint_alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "engine.derived", Unit: "count", Better: "lower"},
	{Name: "engine.firings", Unit: "count", Better: "lower"},
	{Name: "engine.sweeps", Unit: "count", Better: "lower"},
	{Name: "engine.dup_ratio", Unit: "ratio", Better: "lower"},
	{Name: "engine.ns_per_firing", Unit: "ns", Better: "lower"},
	{Name: "engine.index_probes", Unit: "count", Better: "lower"},
	{Name: "engine.clone_us", Unit: "us", Better: "lower"},
	{Name: "period.certify_ms", Unit: "ms", Better: "lower"},
	{Name: "period.window", Unit: "count", Better: "lower"},
	{Name: "period.base", Unit: "count", Better: "lower"},
	{Name: "period.p", Unit: "count", Better: "lower"},
	{Name: "period.grown", Unit: "count", Better: "lower"},
	{Name: "spec.construct_us", Unit: "us", Better: "lower"},
	{Name: "spec.reps", Unit: "count", Better: "lower"},
	{Name: "spec.facts", Unit: "count", Better: "lower"},
	{Name: "spec.export_ms", Unit: "ms", Better: "lower"},
	{Name: "spec.export_bytes", Unit: "bytes", Better: "lower"},
	{Name: "query.ground_us", Unit: "us", Better: "lower"},
	{Name: "query.exists_us", Unit: "us", Better: "lower"},
	{Name: "query.forall_us", Unit: "us", Better: "lower"},
	{Name: "query.answers_us", Unit: "us", Better: "lower"},
	{Name: "query.answers_count", Unit: "count", Better: "lower"},
	{Name: "inc.apply_ms", Unit: "ms", Better: "lower"},
	{Name: "inc.derived_per_batch", Unit: "count", Better: "lower"},
	{Name: "inc.recertified_ratio", Unit: "ratio", Better: "lower"},
	{Name: "inc.period_changed_ratio", Unit: "ratio", Better: "lower"},
	{Name: "server.ask_us_p50", Unit: "us", Better: "lower"},
	{Name: "server.answers_us_p50", Unit: "us", Better: "lower"},
	{Name: "server.facts_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.register_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.period_us_p50", Unit: "us", Better: "lower"},
	{Name: "server.handler_us", Unit: "us", Better: "lower"},
	{Name: "server.http_overhead_us", Unit: "us", Better: "lower"},
	{Name: "server.facade_ask_us", Unit: "us", Better: "lower"},
	{Name: "server.coalesced_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.shed_ratio", Unit: "ratio", Better: "lower"},
	{Name: "server.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "runtime.gc_cycles_per_op", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "driver.op_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "driver.op_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "driver.tail_pct", Unit: "%", Better: "higher"},
	{Name: "driver.samples", Unit: "count", Better: "higher"},
	{Name: "driver.stage_sum_ratio", Unit: "ratio", Better: "higher"},
	{Name: "driver.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "host.nproc", Unit: "count", Better: "higher"},
	{Name: "host.gomaxprocs", Unit: "count", Better: "higher"},
	{Name: "host.ref_ms", Unit: "ms", Better: "lower"},
	{Name: "host.ref_drift_ratio", Unit: "ratio", Better: "lower"},
}

// spanMetrics maps a layer-timing metric to the span it is the median of.
var spanMetrics = []struct {
	metric, span string
	scale        float64 // from milliseconds
}{
	{"parser.program_ms", "parser.program", 1},
	{"parser.query_us", "parser.query", 1e3},
	{"parser.batch_us", "parser.batch", 1e3},
	{"engine.new_ms", "engine.new", 1},
	{"engine.fixpoint_ms", "engine.fixpoint", 1},
	{"engine.clone_us", "engine.clone", 1e3},
	{"period.certify_ms", "period.certify", 1},
	{"spec.construct_us", "spec.construct", 1e3},
	{"query.ground_us", "query.ground", 1e3},
	{"query.exists_us", "query.exists", 1e3},
	{"query.forall_us", "query.forall", 1e3},
	{"query.answers_us", "query.answers", 1e3},
	{"inc.apply_ms", "inc.apply", 1},
	{"server.ask_us_p50", "server.ask", 1e3},
	{"server.answers_us_p50", "server.answers", 1e3},
	{"server.facts_ms_p50", "server.facts", 1},
	{"server.register_ms_p50", "server.register", 1},
	{"server.period_us_p50", "server.period", 1e3},
}

// workloads is the benchmark. Names are fixed: later issues cite them.
// Op counts are sized for refSeconds on the reference box (see README.md)
// and never adapt at run time.
var workloads = []*workloadDef{
	{
		name:    "reach_cold",
		why:     "cold Open+Ask+Period on a random graph: few large states, over half the firings are duplicates, so per-tuple join, emit and state hashing do the work",
		clients: 1, ops: 384, setupReps: 12, quiesce: true,
		setup: func(seed int64) (instance, error) { return newCold(reachInputs(seed)) },
	},
	{
		name:    "ski_cold",
		why:     "the same cold op on the ski model: two thousand tiny states and a long period, so per-state fixed cost dominates and per-tuple cost is small",
		clients: 1, ops: 384, setupReps: 12, quiesce: true,
		setup: func(seed int64) (instance, error) {
			m := skiInputs(skiParams, seed)
			return newCold(m.rules, m.facts, fmt.Sprintf("exists T (plane(T, %s) & holiday(T))", m.resorts.name(0)))
		},
	},
	{
		name:    "warm_query",
		why:     "eight queries over the certified ski spec: parser, FO evaluation and store lookups only, the engine is idle, so an engine change predicts no change here",
		clients: 1, ops: 1920, setupReps: 15,
		setup: newWarm,
	},
	{
		name:    "ingest_stream",
		why:     "fact batches asserted on forks of a warm ski model with reads on each snapshot: clone, delta joins, index upkeep and re-certification, the write side of the store",
		clients: 1, ops: 2560, episode: ingestEpisode, setupReps: 15, quiesce: true,
		setup: newIngest,
	},
	{
		name:    "served_mixed",
		why:     "two keep-alive clients in closed loop against an in-process server, 80/8/8/4 ask/answers/facts/period plus a registration per episode: HTTP, JSON, admission and cache around the query",
		clients: servedClients, ops: 320 * servedEpisode, episode: servedEpisode, setupReps: 9,
		setup: newServed,
	},
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// metricValue is one reading in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Set by -calibrate only: the extremes of the repeated runs and their
	// interquartile share of the median (Value is then the median).
	Min    float64 `json:"min,omitempty"`
	Max    float64 `json:"max,omitempty"`
	Spread float64 `json:"spread,omitempty"`
}

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// document is what -out writes and -compare reads: every workload's
// result with the host stamp.
type document struct {
	Host      hostInfo          `json:"host"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     int               `json:"trace"`
	Workloads map[string]result `json:"workloads"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name      = fs.String("workload", "", "workload to run (default: all, in three interleaved rounds)")
		seed      = fs.Int64("seed", goldenSeed, "seed the inputs and op scripts are generated from")
		seconds   = fs.Float64("seconds", refSeconds, "run length the fixed op counts are scaled to")
		trace     = fs.Int("trace", 0, "1: re-run each op staged and report the per-layer metrics")
		out       = fs.String("out", "", "also write the results as a JSON document to this file")
		spansOut  = fs.String("spans", "", "with -trace 1, where to write the spans (default .bench_build/spans-<workload>.json)")
		calibrate = fs.Int("calibrate", 0, "run every workload N times, each in a fresh process with another seed, and check the spread against the bounds")
		compare   = fs.Bool("compare", false, "compare two result documents: -compare old.json new.json")
		bounds    = fs.String("benchmark-json", "BENCHMARK.json", "where -compare and -calibrate read bounds and directions")
		golden    = fs.String("update-golden", "", "regenerate the pinned results into this file and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fail(fmt.Errorf("-seconds must be positive and -trace 0 or 1"))
	}
	switch {
	case *golden != "":
		if err := writeGolden(*golden); err != nil {
			return fail(err)
		}
		return 0
	case *compare:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare needs two files: old.json new.json"))
		}
		regressed, err := compareFiles(stdout, *bounds, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if regressed {
			return 1
		}
		return 0
	case *calibrate > 0:
		ok, err := calibrateRuns(stdout, stderr, *bounds, *calibrate, *seed, *seconds, *out)
		if err != nil {
			return fail(err)
		}
		if !ok {
			return 1
		}
		return 0
	}

	host := pinHost()
	selected := workloads
	rounds := 3
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			return fail(fmt.Errorf("unknown workload %q", *name))
		}
		selected, rounds = []*workloadDef{w}, 1
	}
	ms, err := measure(selected, rounds, *seed, *seconds, *trace == 1)
	if err != nil {
		return fail(err)
	}

	doc := document{Host: host, Seed: *seed, Seconds: *seconds, Trace: *trace, Workloads: map[string]result{}}
	allCorrect := true
	for _, m := range ms {
		res := m.result(host, *trace == 1)
		if *seed == goldenSeed {
			if err := checkGolden(m.w.name, m.golden); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				res.Correct = false
			}
		}
		if _, _, first := m.failures(); first != nil {
			fmt.Fprintf(stderr, "bench: %s: first failed op: %v\n", m.w.name, first)
		}
		if *trace == 1 {
			path := *spansOut
			if path == "" {
				path = ".bench_build/spans-" + m.w.name + ".json"
			}
			if err := writeSpans(path, host, m.w.name, *seed, m.recs); err != nil {
				return fail(err)
			}
		}
		printResult(stderr, host, m.w.name, res)
		doc.Workloads[m.w.name] = res
		allCorrect = allCorrect && res.Correct
	}
	if *out != "" {
		data, err := json.MarshalIndent(doc, "", " ")
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return fail(err)
		}
	}
	// The last line of standard output is the machine-readable result: the
	// one workload's, or the whole document when all ran.
	var last any = doc
	if len(ms) == 1 && *name != "" {
		last = doc.Workloads[*name]
	}
	line, err := json.Marshal(last)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, string(line))
	if !allCorrect {
		return 1
	}
	return 0
}

// measure runs the selected workloads. With more than one round the
// workloads are interleaved (A B C D E, three times) and each workload's
// samples pooled, so a disturbance of half a minute lands on a third of
// every workload instead of all of one.
func measure(selected []*workloadDef, rounds int, seed int64, seconds float64, traced bool) ([]*measurement, error) {
	ms := make([]*measurement, len(selected))
	for i, w := range selected {
		ms[i] = &measurement{w: w}
		ms[i].refMs[0] = refKernelMs()
	}
	if traced {
		// Half the ops untraced, half staged: the run is as long as an
		// untraced one.
		for _, m := range ms {
			if err := m.tracedRound(seed, m.w.opsFor(seconds/2)); err != nil {
				return nil, err
			}
			m.refMs[1] = refKernelMs()
		}
		return ms, nil
	}
	for r := 0; r < rounds; r++ {
		for _, m := range ms {
			reps := (m.w.setupReps + rounds - 1) / rounds
			if err := m.endToEndRound(seed, m.w.opsFor(seconds/float64(rounds)), reps); err != nil {
				return nil, err
			}
			m.refMs[1] = refKernelMs()
		}
	}
	return ms, nil
}

// result assembles a measurement's output record.
func (m *measurement) result(host hostInfo, traced bool) result {
	attempted, failed, _ := m.failures()
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	defs, values := perLayer, map[string]float64(nil)
	if traced {
		values = m.perLayerValues(host)
	} else {
		defs, values = endToEnd, m.endToEnd()
	}
	for _, d := range defs {
		v := values[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v, res.Correct = 0, false
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return res
}

// printResult lists every metric by name with its unit.
func printResult(w io.Writer, host hostInfo, name string, res result) {
	fmt.Fprintf(w, "%s  (%s, nproc %d, GOMAXPROCS %d, rev %s)  attempted %d failed %d correct %v\n",
		name, host.GoVersion, host.NProc, host.GOMAXPROCS, host.Revision, res.Attempted, res.Failed, res.Correct)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-30s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}
