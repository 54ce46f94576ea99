package main

import (
	"fmt"
	"strings"

	"tdd"
	"tdd/internal/ast"
	"tdd/internal/core"
	"tdd/internal/engine"
	"tdd/internal/inc"
	"tdd/internal/parser"
	"tdd/internal/query"
	"tdd/internal/spec"
)

// ingestEpisode is the number of ticks after which ingest_stream drops
// its fork of the warm model and forks again, so the model never grows
// with the number of ops a build gets through.
const ingestEpisode = 20

// tick is one op of ingest_stream: a fact batch and the two ground
// queries asked on the snapshot it produces, with what set-up saw.
type tick struct {
	batch string
	asks  [2]string

	wantNew, wantDerived int
	wantAsks             [2]bool
}

// ingestScript generates the episode: per tick four flights to resorts
// the model knows and one resort it does not, with a flight of its own.
// Days and resorts come from the fixed structure; the seed renames the
// resorts and reorders the facts of each batch.
func ingestScript(m skiModel, seed int64) []tick {
	structure := seedRNG(structSeed, "ingest-structure")
	order := seedRNG(seed, "ingest-order")
	ticks := make([]tick, ingestEpisode)
	for t := range ticks {
		var lines []string
		var known string
		for i := 0; i < 4; i++ {
			known = m.resorts.name(structure.Intn(m.params.Resorts))
			lines = append(lines, fmt.Sprintf("plane(%d, %s).", structure.Intn(m.params.YearLen), known))
		}
		fresh := m.resorts.name(m.params.Resorts + t)
		day := structure.Intn(m.params.YearLen)
		lines = append(lines, fmt.Sprintf("resort(%s).", fresh), fmt.Sprintf("plane(%d, %s).", day, fresh))
		order.Shuffle(len(lines), func(i, j int) { lines[i], lines[j] = lines[j], lines[i] })
		ticks[t].batch = strings.Join(lines, "\n") + "\n"
		ticks[t].asks = [2]string{
			fmt.Sprintf("plane(%d, %s)", day+1000*m.params.YearLen, fresh),
			fmt.Sprintf("plane(%d, %s)", 1000003+t, known),
		}
	}
	return ticks
}

// ingestInst is a set-up of ingest_stream: the ski model certified once;
// an op is one tick on a fork of it.
type ingestInst struct {
	model skiModel
	base  *tdd.DB
	ticks []tick
	g     goldenEntry
	cur   *tdd.DB // the running episode's fork

	// Staged pass: the same chain behind the layer APIs.
	baseEval   *engine.Evaluator
	baseSpec   *spec.Spec
	eval       *engine.Evaluator
	spec       *spec.Spec
	derived    []float64
	recert     int
	perChanged int
}

func newIngest(seed int64) (instance, error) {
	w := &ingestInst{model: skiInputs(ingestParams, seed)}
	var err error
	if w.base, err = tdd.Open(w.model.rules, w.model.facts); err != nil {
		return nil, err
	}
	if _, err = w.base.Period(); err != nil {
		return nil, err
	}
	w.ticks = ingestScript(w.model, seed)

	// The expected results come from running the episode once; the model
	// it ends in must equal the one a cold start on all the facts builds.
	ref := w.base.Fork()
	all := w.model.facts
	var probes []probe
	for t := range w.ticks {
		tk := &w.ticks[t]
		res, err := ref.Assert(tk.batch)
		if err != nil {
			return nil, fmt.Errorf("tick %d: %w", t, err)
		}
		tk.wantNew, tk.wantDerived = res.NewFacts, res.Derived
		for i, q := range tk.asks {
			if tk.wantAsks[i], err = ref.Ask(q); err != nil {
				return nil, fmt.Errorf("tick %d: %s: %w", t, q, err)
			}
			probes = append(probes, probe{Query: q})
		}
		all += tk.batch
	}
	if w.g, err = goldenOf(ref, probes); err != nil {
		return nil, err
	}
	scratch, err := tdd.Open(w.model.rules, all)
	if err != nil {
		return nil, err
	}
	fp, err := scratch.ModelFingerprint()
	if err != nil {
		return nil, err
	}
	if fp != w.g.Fingerprint {
		return nil, mismatch("incremental vs from-scratch fingerprint", w.g.Fingerprint, fp)
	}
	if err := crossCheckSpec(ref, probes[len(probes)-2:]); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *ingestInst) op(_, k int) error {
	t := k % ingestEpisode
	if t == 0 || w.cur == nil {
		w.cur = w.base.Fork()
	}
	tk := &w.ticks[t]
	res, err := w.cur.Assert(tk.batch)
	if err != nil {
		return err
	}
	if res.NewFacts != tk.wantNew || res.Derived != tk.wantDerived {
		return mismatch("assert new/derived", [2]int{res.NewFacts, res.Derived}, [2]int{tk.wantNew, tk.wantDerived})
	}
	for i, q := range tk.asks {
		ok, err := w.cur.Ask(q)
		if err != nil {
			return err
		}
		if ok != tk.wantAsks[i] {
			return mismatch(q, ok, tk.wantAsks[i])
		}
	}
	return nil
}

func (w *ingestInst) prepareStaged() error {
	bt, s, err := certify(w.model.rules, w.model.facts)
	if err != nil {
		return err
	}
	w.baseEval, w.baseSpec = bt.Evaluator(), s
	return nil
}

func (w *ingestInst) staged(rec *recorder, _, k int) error {
	t := k % ingestEpisode
	if t == 0 || w.eval == nil {
		w.eval, w.spec = w.baseEval, w.baseSpec
	}
	tk := &w.ticks[t]
	root := rec.begin("op.tick", -1, k)
	defer rec.end(root)

	sp := rec.begin("parser.batch", root, k)
	batch, err := parser.ParseDatabase(tk.batch)
	rec.end(sp)
	if err != nil {
		return err
	}

	// Copy-on-write: the batch is applied to a clone, the predecessor
	// stays as it was (it may be the shared base).
	sp = rec.begin("engine.clone", root, k)
	e := w.eval.Clone()
	rec.end(sp)

	sp = rec.begin("inc.apply", root, k)
	s, res, err := inc.Apply(e, w.spec, core.DefaultMaxWindow, batch.Facts)
	rec.end(sp)
	if err != nil {
		return err
	}
	w.eval, w.spec = e, s
	w.derived = append(w.derived, float64(res.Derived))
	if res.Recertified {
		w.recert++
	}
	if res.Recertified && res.SpecChanged {
		w.perChanged++
	}
	if res.NewBase != tk.wantNew || res.Derived != tk.wantDerived {
		return mismatch("apply new/derived", [2]int{res.NewBase, res.Derived}, [2]int{tk.wantNew, tk.wantDerived})
	}

	preds := mergedPreds(e)
	for i, q := range tk.asks {
		sp = rec.begin("parser.query", root, k)
		parsed, err := parser.ParseQuery(q, preds)
		rec.end(sp)
		if err != nil {
			return err
		}
		sp = rec.begin("query.ground", root, k)
		ok, err := query.Eval(s, parsed)
		rec.end(sp)
		if err != nil {
			return err
		}
		if ok != tk.wantAsks[i] {
			return mismatch(q, ok, tk.wantAsks[i])
		}
	}
	return nil
}

// mergedPreds returns the predicate signatures of an evaluator's program
// and database, the map queries are typed against.
func mergedPreds(e *engine.Evaluator) map[string]ast.PredInfo {
	preds := make(map[string]ast.PredInfo)
	for name, info := range e.Program().Preds {
		preds[name] = info
	}
	for name, info := range e.Database().Preds {
		preds[name] = info
	}
	return preds
}

func (w *ingestInst) layers() (map[string]float64, error) {
	out := map[string]float64{}
	if n := float64(len(w.derived)); n > 0 {
		sum := 0.0
		for _, d := range w.derived {
			sum += d
		}
		out["inc.derived_per_batch"] = sum / n
		out["inc.recertified_ratio"] = float64(w.recert) / n
		out["inc.period_changed_ratio"] = float64(w.perChanged) / n
	}
	if w.eval != nil {
		engineCounts(w.eval.Stats(), out)
		if err := specProbe(w.spec, mergedPreds(w.eval), out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (w *ingestInst) golden() goldenEntry { return w.g }

func (w *ingestInst) close() {}
