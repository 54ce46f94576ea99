package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// refSeconds is the run length the op counts in the workload table are
// sized for on the reference box (BENCHMARK.json "run_seconds"). A run of
// another length executes the same script scaled linearly; the count is a
// function of -seconds only and never of how fast the build is.
const refSeconds = 16

const (
	warmupOps = 3 // untimed ops at the end of every set-up
	// segments is the number of equal-op-count slices a timed region is
	// cut into, per client, as long as a slice keeps minSegmentOps ops. The
	// timing metrics report the quietest slice.
	segments      = 64
	minSegmentOps = 5
)

// instance is one completed set-up of a workload: inputs generated from
// the seed, state built, expected answers computed. Ops are addressed by
// client and op index; what op k does is a function of (k, seed) only.
type instance interface {
	// op executes op k of client c through the public API and checks the
	// answer. A non-nil error is a failed op.
	op(c, k int) error
	// prepareStaged builds what staged needs beyond the set-up (a second
	// copy of the model behind the layer APIs, the window sequence). A
	// traced run calls it before the untraced half, so both halves run on
	// the same heap and the collector paces them alike.
	prepareStaged() error
	// staged executes the same op as explicit calls into each layer's
	// public functions, with a span around every call, and checks the
	// answer the same way.
	staged(rec *recorder, c, k int) error
	// layers reports the counts the staged pass collected (and runs the
	// workload's one-off layer probes) as per-layer metric values.
	layers() (map[string]float64, error)
	// golden reports what set-up computed, for the pinned cross-check.
	golden() goldenEntry
	// close releases whatever the set-up started.
	close()
}

// workloadDef is one row of the benchmark: a name later issues refer to, why
// it exists, and its fixed size.
type workloadDef struct {
	name    string
	why     string
	clients int
	// ops is the number of timed ops per client in a run of refSeconds.
	ops int
	// episode is the number of ops after which the workload drops the
	// state it built and starts over (0: ops are independent). The timed
	// region starts on an episode boundary past the warm-up ops.
	episode int
	// quiesce takes the collector out of the ops: it is switched off for
	// the timed region and run before every op instead, outside the op's
	// timer but inside the CPU account. Set for the workloads whose one op
	// allocates about as much as the live heap. Left alone, the collector
	// runs one or two cycles inside such an op, which of the two depends on
	// a few per cent of heap size (a tick of ingest_stream takes 5.2 ms
	// with one cycle and 9.2 ms with two), and its phase drifts against
	// the op loop for tens of seconds at a time.
	quiesce bool
	// setupReps is how often a run repeats the set-up; the minimum is
	// reported. Sized so the repetitions take about four seconds.
	setupReps int
	setup     func(seed int64) (instance, error)
}

// opsFor scales the workload's op count to a run of the given length.
func (w *workloadDef) opsFor(seconds float64) int {
	n := int(math.Round(float64(w.ops) * seconds / refSeconds))
	if n < 2*minSegmentOps {
		n = 2 * minSegmentOps
	}
	return n
}

// segmentOps returns how many of a client's n ops make one segment: a
// sixty-fourth of them but at least minSegmentOps, in whole episodes.
func (w *workloadDef) segmentOps(n int) int {
	per := n / segments
	if per < minSegmentOps {
		per = minSegmentOps
	}
	if w.episode > 0 {
		per = per / w.episode * w.episode
		if per == 0 {
			per = w.episode
		}
	}
	if per > n {
		per = n
	}
	if per < 1 {
		per = 1
	}
	return per
}

// nextEpisode returns the first op index >= k on an episode boundary.
func (w *workloadDef) nextEpisode(k int) int {
	if w.episode <= 0 {
		return k
	}
	return (k + w.episode - 1) / w.episode * w.episode
}

// pass is what one timed region measured.
type pass struct {
	opMs     [][]float64 // per client: every op's wall time, in order
	segCPUMs []float64   // per segment: process CPU per op
	per      int         // ops per client in one segment
	allocMB  float64
	gcCycles uint32
	gcPause  time.Duration
	liveMB   float64
	failed   int
	firstErr error
}

func (p *pass) ops() int {
	n := 0
	for _, ms := range p.opMs {
		n += len(ms)
	}
	return n
}

// pooled returns every op time of the pass, all clients together.
func (p *pass) pooled() []float64 {
	var all []float64
	for _, ms := range p.opMs {
		all = append(all, ms...)
	}
	return all
}

// runPass executes ops first .. first+n-1 on every client, one goroutine
// per client, closed loop, and measures the region. exec is inst.op or a
// closure over inst.staged.
func runPass(inst instance, w *workloadDef, first, n int, exec func(c, k int) error) pass {
	type clientLog struct {
		ms     []float64
		failed int
		err    error
	}
	logs := make([]clientLog, w.clients)
	for c := range logs {
		logs[c].ms = make([]float64, 0, n)
	}
	per := w.segmentOps(n)
	// Client 0 reads the process CPU clock, and how many ops all clients
	// have completed, at its segment boundaries.
	var marks, doneAt []int64
	var done atomic.Int64
	var m0, m1, m2 runtime.MemStats
	if w.quiesce {
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
	}
	runtime.GC()
	runtime.ReadMemStats(&m0)
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			l := &logs[c]
			for i := 0; i < n; i++ {
				if c == 0 && i%per == 0 {
					marks, doneAt = append(marks, processCPU()), append(doneAt, done.Load())
				}
				if w.quiesce {
					runtime.GC()
				}
				t0 := time.Now()
				err := exec(c, first+i)
				l.ms = append(l.ms, float64(time.Since(t0))/1e6)
				done.Add(1)
				if err != nil {
					l.failed++
					if l.err == nil {
						l.err = fmt.Errorf("client %d op %d: %w", c, first+i, err)
					}
				}
			}
			if c == 0 {
				marks, doneAt = append(marks, processCPU()), append(doneAt, done.Load())
			}
		}(c)
	}
	wg.Wait()
	runtime.ReadMemStats(&m1)
	// The retained heap: collect with the workload's state still reachable.
	// Twice, because a sync.Pool keeps its objects through one collection.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m2)
	runtime.KeepAlive(inst)

	p := pass{
		per:      per,
		allocMB:  float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6,
		gcCycles: m1.NumGC - m0.NumGC,
		gcPause:  time.Duration(m1.PauseTotalNs - m0.PauseTotalNs),
		liveMB:   float64(m2.HeapAlloc) / 1e6,
	}
	for s := 0; s < n/per; s++ { // full segments only, like segmentStats
		p.segCPUMs = append(p.segCPUMs, float64(marks[s+1]-marks[s])/1e6/float64(doneAt[s+1]-doneAt[s]))
	}
	for c := range logs {
		p.opMs = append(p.opMs, logs[c].ms)
		p.failed += logs[c].failed
		if p.firstErr == nil {
			p.firstErr = logs[c].err
		}
	}
	return p
}

// setUp runs the workload's set-up including the warm-up ops, which are
// checked like any other op.
func setUp(w *workloadDef, seed int64) (instance, error) {
	inst, err := w.setup(seed)
	if err != nil {
		return nil, err
	}
	for k := 0; k < warmupOps; k++ {
		if err := inst.op(0, k); err != nil {
			inst.close()
			return nil, fmt.Errorf("warm-up op %d: %w", k, err)
		}
	}
	return inst, nil
}

// measurement pools the rounds of one workload. A single-workload run has
// one round; a run of all workloads interleaves three.
type measurement struct {
	w      *workloadDef
	setupS []float64
	passes []pass
	golden goldenEntry
	layer  map[string]float64 // traced runs only
	staged *pass
	recs   []*recorder
	refMs  [2]float64
}

// endToEndRound sets the workload up reps times (keeping the last), runs
// n timed ops per client and adds the readings to m.
func (m *measurement) endToEndRound(seed int64, n, reps int) error {
	var inst instance
	for i := 0; i < reps; i++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		inst, err = setUp(m.w, seed)
		if err != nil {
			return fmt.Errorf("%s: set-up: %w", m.w.name, err)
		}
		m.setupS = append(m.setupS, time.Since(t0).Seconds())
	}
	defer inst.close()
	m.golden = inst.golden()
	m.passes = append(m.passes, runPass(inst, m.w, m.w.nextEpisode(warmupOps), n, inst.op))
	return nil
}

// tracedRound sets up once, runs n ops untraced (the overhead baseline),
// then the same number staged with spans, and collects the layer counts.
func (m *measurement) tracedRound(seed int64, n int) error {
	inst, err := setUp(m.w, seed)
	if err != nil {
		return fmt.Errorf("%s: set-up: %w", m.w.name, err)
	}
	defer inst.close()
	m.golden = inst.golden()
	if err := inst.prepareStaged(); err != nil {
		return fmt.Errorf("%s: preparing the staged pass: %w", m.w.name, err)
	}
	first := m.w.nextEpisode(warmupOps)
	m.passes = append(m.passes, runPass(inst, m.w, first, n, inst.op))

	epoch := time.Now()
	m.recs = make([]*recorder, m.w.clients)
	for c := range m.recs {
		m.recs[c] = newRecorder(epoch, c)
	}
	st := runPass(inst, m.w, m.w.nextEpisode(first+n), n, func(c, k int) error {
		return inst.staged(m.recs[c], c, k)
	})
	m.staged = &st
	m.layer, err = inst.layers()
	if err != nil {
		return fmt.Errorf("%s: layer probes: %w", m.w.name, err)
	}
	return nil
}

// failures reports attempted and failed ops over every pass, and the
// first failure.
func (m *measurement) failures() (attempted, failed int, first error) {
	all := m.passes
	if m.staged != nil {
		all = append(append([]pass(nil), all...), *m.staged)
	}
	for _, p := range all {
		attempted += p.ops()
		failed += p.failed
		if first == nil {
			first = p.firstErr
		}
	}
	return attempted, failed, first
}

// endToEnd computes the six end-to-end metrics from the pooled passes.
//
// The three timings are taken per segment and reported for the quietest
// one: the median op time of the segment where it is lowest, the
// throughput of the segment where it is highest, the CPU per op of the
// segment where it is lowest. The box this runs on slows everything
// memory-bound by 15 % to 100 % for seconds to minutes at a time, and a
// median over the whole run moves with the share of the run such a burst
// covers (measured: 18 % spread between identical runs, against 2 % for
// the quietest of 64 segments; see README.md). Noise only ever adds time,
// so the quiet floor is the quantity that repeats — the repository's
// min-of-runs convention applied inside one run.
func (m *measurement) endToEnd() map[string]float64 {
	var segMedians, segCPU, live []float64
	var ops int
	var alloc float64
	rates := make([][]float64, m.w.clients)
	for _, p := range m.passes {
		ops += p.ops()
		alloc += p.allocMB
		live = append(live, p.liveMB)
		segCPU = append(segCPU, p.segCPUMs...)
		for c, ms := range p.opMs {
			med, rate := segmentStats(ms, p.per)
			segMedians = append(segMedians, med...)
			rates[c] = append(rates[c], rate...)
		}
	}
	rate := 0.0
	for _, r := range rates {
		rate += maxOf(r)
	}
	out := map[string]float64{
		"op_ms_p50":       minOf(segMedians),
		"ops_per_s":       rate,
		"cpu_ms_per_op":   minOf(segCPU),
		"alloc_mb_per_op": alloc / float64(ops),
		"live_heap_mb":    median(live),
	}
	if len(m.setupS) > 0 {
		out["setup_s"] = minOf(m.setupS)
	}
	return out
}

// perLayerValues assembles the per-layer metrics of a traced run: span
// medians, the instance's counts, and the driver's own diagnostics.
func (m *measurement) perLayerValues(host hostInfo) map[string]float64 {
	out := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		out[d.Name] = 0
	}
	st := foldSpans(m.recs)
	for _, sm := range spanMetrics {
		if v, ok := st.spanMs[sm.span]; ok {
			out[sm.metric] = v * sm.scale
		}
	}
	for k, v := range m.layer {
		out[k] = v
	}
	if ms := st.spanMs["engine.fixpoint"]; ms > 0 && out["engine.firings"] > 0 {
		out["engine.ns_per_firing"] = ms * 1e6 / out["engine.firings"]
	}
	if f := out["engine.firings"]; f > 0 {
		out["engine.dup_ratio"] = 1 - out["engine.derived"]/f
	}

	untraced := m.passes[0]
	sorted := sortedCopy(untraced.pooled())
	p50 := quantile(sorted, 0.5)
	out["driver.samples"] = float64(len(sorted))
	out["driver.op_ms_p95"] = quantile(sorted, tailPercentile(len(sorted), 95)/100)
	out["driver.op_ms_p99"] = quantile(sorted, tailPercentile(len(sorted), 99)/100)
	out["driver.tail_pct"] = tailPercentile(len(sorted), 99.9)
	if p50 > 0 {
		out["driver.stage_sum_ratio"] = st.stageMs / p50
		out["driver.trace_overhead_ratio"] = median(m.staged.pooled()) / p50
	}
	ops := float64(untraced.ops())
	out["runtime.gc_cycles_per_op"] = float64(untraced.gcCycles) / ops
	out["runtime.gc_pause_ms"] = float64(untraced.gcPause) / 1e6
	out["runtime.peak_rss_mb"] = peakRSSMB()
	out["host.nproc"] = float64(host.NProc)
	out["host.gomaxprocs"] = float64(host.GOMAXPROCS)
	out["host.ref_ms"] = m.refMs[0]
	if m.refMs[0] > 0 {
		out["host.ref_drift_ratio"] = m.refMs[1] / m.refMs[0]
	}
	return out
}

// hostInfo stamps a result with where it was measured.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"revision"`
}

// pinHost applies the benchmark's scheduling policy — GOMAXPROCS is
// min(NumCPU, 2), GOGC is left alone — and returns the stamp.
func pinHost() hostInfo {
	procs := runtime.NumCPU()
	if procs > 2 {
		procs = 2
	}
	runtime.GOMAXPROCS(procs)
	h := hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: procs, GoVersion: runtime.Version(), Revision: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Revision = s.Value
			}
		}
	}
	return h
}

// refKernelMs times a fixed piece of work that touches no code of the
// repository — SHA-256 over a 4 MiB buffer, best of five — in
// milliseconds. Taken before and after a run it tells a disturbed run (a
// busy neighbour, a throttled clock) from a slow build.
func refKernelMs() float64 {
	buf := make([]byte, 4<<20)
	for i := range buf {
		buf[i] = byte(i * 31)
	}
	best := math.Inf(1)
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		sum := sha256.Sum256(buf)
		d := float64(time.Since(t0)) / 1e6
		buf[0] = sum[0]
		if d < best {
			best = d
		}
	}
	return best
}
