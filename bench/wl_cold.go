package main

import (
	"fmt"
	"runtime"

	"tdd"
	"tdd/internal/ast"
	"tdd/internal/core"
	"tdd/internal/engine"
	"tdd/internal/parser"
	"tdd/internal/period"
	"tdd/internal/query"
	"tdd/internal/spec"
	"tdd/internal/workload"
)

// Instance sizes. They are part of the benchmark's definition: changing
// one starts a new baseline.
var (
	reachParams = workload.ReachParams{Nodes: 80, Edges: 120, Seed: structSeed}
	skiParams   = workload.SkiParams{YearLen: 365, Resorts: 64, Planes: 128, Holidays: 10, Seed: structSeed}
	// ingest_stream writes to a quarter-size ski model. A tick on the full
	// one spends its 48 ms copying and collecting 28 MB, which is bound by
	// memory bandwidth and reacts to a busy neighbour two and a half times
	// as strongly as a 7 ms tick on this one (paired runs, README.md).
	ingestParams = workload.SkiParams{YearLen: 91, Resorts: 32, Planes: 64, Holidays: 5, Seed: structSeed}
)

// reachInputs generates the reach_cold program: the generator's graph,
// nodes renamed and facts reordered by the seed, and a path query between
// two renamed nodes.
func reachInputs(seed int64) (rules, facts, q string) {
	rules, facts = workload.Reachability(reachParams)
	nodes := newLabels("n", seed)
	facts = shuffleLines(nodes.apply(facts), seedRNG(seed, "reach"))
	return rules, facts, fmt.Sprintf("exists K path(K, %s, %s)", nodes.name(0), nodes.name(5))
}

// skiModel is a generated ski instance: the scaled travel-agent program
// with resorts renamed and facts reordered by the seed.
type skiModel struct {
	params       workload.SkiParams
	rules, facts string
	resorts      labels
}

func skiInputs(p workload.SkiParams, seed int64) skiModel {
	rules, facts := workload.Ski(p)
	resorts := newLabels("r", seed)
	return skiModel{params: p, rules: rules, facts: shuffleLines(resorts.apply(facts), seedRNG(seed, "ski")), resorts: resorts}
}

// coldInst is a set-up of reach_cold or ski_cold: every op opens the same
// program from source, asks one closed query and reads the period.
type coldInst struct {
	rules, facts, query string
	wantAsk             bool
	wantPeriod          tdd.Period
	wantDerived         int
	wantFirings         int
	g                   goldenEntry

	// last keeps the most recent op's database reachable, so the retained
	// heap at the end of the region is one evaluated model.
	last *tdd.DB

	// Staged pass: the window sequence certification used, and what the
	// stages counted.
	windows    []int
	fixAllocMB []float64
	stats      engine.Stats
	detect     period.Stats
	factsPerOp int
	spec       *spec.Spec
	preds      map[string]ast.PredInfo
}

func newCold(rules, facts, q string) (instance, error) {
	w := &coldInst{rules: rules, facts: facts, query: q}
	db, err := tdd.Open(rules, facts)
	if err != nil {
		return nil, err
	}
	if w.wantAsk, err = db.Ask(q); err != nil {
		return nil, err
	}
	if w.wantPeriod, err = db.Period(); err != nil {
		return nil, err
	}
	w.wantDerived, w.wantFirings, _ = db.EngineStats()
	probes := []probe{{Query: q}}
	if w.g, err = goldenOf(db, probes); err != nil {
		return nil, err
	}
	if err := crossCheckSpec(db, probes); err != nil {
		return nil, err
	}
	w.last = db
	return w, nil
}

func (w *coldInst) op(_, _ int) error {
	db, err := tdd.Open(w.rules, w.facts)
	if err != nil {
		return err
	}
	ok, err := db.Ask(w.query)
	if err != nil {
		return err
	}
	per, err := db.Period()
	if err != nil {
		return err
	}
	w.last = db
	if ok != w.wantAsk {
		return mismatch(w.query, ok, w.wantAsk)
	}
	if per != w.wantPeriod {
		return mismatch("period", per, w.wantPeriod)
	}
	if derived, firings, _ := db.EngineStats(); derived != w.wantDerived || firings != w.wantFirings {
		return mismatch("derived/firings", [2]int{derived, firings}, [2]int{w.wantDerived, w.wantFirings})
	}
	return nil
}

// prepareStaged learns the window sequence period.Detect walks on this
// program (it starts at Window >> Grown and doubles), so the fixpoint
// stage can replay it on a fresh evaluator without certifying.
func (w *coldInst) prepareStaged() error {
	prog, err := parser.ParseProgram(w.rules)
	if err != nil {
		return err
	}
	db, err := parser.ParseDatabase(w.facts)
	if err != nil {
		return err
	}
	e, err := engine.New(prog, db)
	if err != nil {
		return err
	}
	_, st, err := period.Detect(e, core.DefaultMaxWindow)
	if err != nil {
		return err
	}
	w.windows = w.windows[:0]
	for g := st.Grown; g >= 0; g-- {
		w.windows = append(w.windows, st.Window>>g)
	}
	return nil
}

func (w *coldInst) staged(rec *recorder, _, k int) error {
	root := rec.begin("op.cold", -1, k)
	defer rec.end(root)

	sp := rec.begin("parser.program", root, k)
	prog, err := parser.ParseProgram(w.rules)
	if err != nil {
		return err
	}
	db, err := parser.ParseDatabase(w.facts)
	rec.end(sp)
	if err != nil {
		return err
	}

	sp = rec.begin("engine.new", root, k)
	e, err := engine.New(prog, db)
	rec.end(sp)
	if err != nil {
		return err
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sp = rec.begin("engine.fixpoint", root, k)
	for _, m := range w.windows {
		e.EnsureWindow(m)
	}
	rec.end(sp)
	runtime.ReadMemStats(&m1)

	// The evaluator already covers the final window, so Detect only hashes
	// the states and scans for the period — at every window of the
	// sequence, exactly as the unstaged run does.
	sp = rec.begin("period.certify", root, k)
	per, det, err := period.Detect(e, core.DefaultMaxWindow)
	rec.end(sp)
	if err != nil {
		return err
	}

	// Compute on a certified evaluator re-reads the cached state keys and
	// builds (T, B, W): the construction cost on top of certification.
	sp = rec.begin("spec.construct", root, k)
	s, err := spec.Compute(e, core.DefaultMaxWindow)
	rec.end(sp)
	if err != nil {
		return err
	}

	preds := mergedPreds(e)
	sp = rec.begin("parser.query", root, k)
	q, err := parser.ParseQuery(w.query, preds)
	rec.end(sp)
	if err != nil {
		return err
	}
	sp = rec.begin("query.exists", root, k)
	ok, err := query.Eval(s, q)
	rec.end(sp)
	if err != nil {
		return err
	}

	w.fixAllocMB = append(w.fixAllocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
	w.stats, w.detect, w.factsPerOp, w.spec, w.preds = e.Stats(), det, len(db.Facts), s, preds
	if ok != w.wantAsk {
		return mismatch(w.query, ok, w.wantAsk)
	}
	if per != w.wantPeriod {
		return mismatch("period", per, w.wantPeriod)
	}
	if w.stats.Derived != w.wantDerived || w.stats.Firings != w.wantFirings {
		return mismatch("derived/firings", [2]int{w.stats.Derived, w.stats.Firings}, [2]int{w.wantDerived, w.wantFirings})
	}
	return nil
}

func (w *coldInst) layers() (map[string]float64, error) {
	out := map[string]float64{
		"parser.facts_per_op":      float64(w.factsPerOp),
		"engine.fixpoint_alloc_mb": median(w.fixAllocMB),
		"period.window":            float64(w.detect.Window),
		"period.grown":             float64(w.detect.Grown),
	}
	engineCounts(w.stats, out)
	if err := specProbe(w.spec, w.preds, out); err != nil {
		return nil, err
	}
	return out, nil
}

func (w *coldInst) golden() goldenEntry { return w.g }

func (w *coldInst) close() {}

// engineCounts reports an evaluator's work counters.
func engineCounts(s engine.Stats, out map[string]float64) {
	out["engine.derived"] = float64(s.Derived)
	out["engine.firings"] = float64(s.Firings)
	out["engine.sweeps"] = float64(s.Sweeps)
	probes := int64(0)
	for _, ix := range s.Index {
		probes += ix.Probes
	}
	out["engine.index_probes"] = float64(probes)
}
