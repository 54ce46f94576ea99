package randgen

// Property-based differential tests: many random TDDs, three independent
// pipelines that must agree.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"tdd/internal/ast"
	"tdd/internal/baseline"
	"tdd/internal/engine"
	"tdd/internal/inc"
	"tdd/internal/obs"
	"tdd/internal/parser"
	"tdd/internal/period"
	"tdd/internal/spec"
)

const trials = 60

// statsFingerprint renders an engine.Stats snapshot canonically: every
// counter, map keys sorted, Index cells dereferenced (a plain %+v would
// print the cell pointers). Two runs with bit-identical counters produce
// equal strings.
func statsFingerprint(s engine.Stats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "derived=%d firings=%d sweeps=%d rules=%+v", s.Derived, s.Firings, s.Sweeps, s.Rules)
	keys := make([]string, 0, len(s.Index))
	for k := range s.Index {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, " idx[%s]=%+v", k, *s.Index[k])
	}
	return b.String()
}

// sweepStructure renders the span sequence of a trace with the counters
// that do not depend on join order: how many states each extension
// covered, what each full-window sweep added, and the store size every
// fixpoint ended at. Firing counts are left out — which binding fires
// first within a state is the join mode's business.
func sweepStructure(tr *obs.Trace) string {
	var b strings.Builder
	var walk func([]obs.SpanJSON, int)
	walk = func(ps []obs.SpanJSON, depth int) {
		for _, p := range ps {
			fmt.Fprintf(&b, "%*s%s", 2*depth, "", p.Name)
			for _, k := range []string{"states", "added", "derived", "sweeps", "window", "store_len"} {
				if v, ok := p.Counters[k]; ok {
					fmt.Fprintf(&b, " %s=%d", k, v)
				}
			}
			b.WriteByte('\n')
			walk(p.Children, depth+1)
		}
	}
	walk(tr.Snapshot().Phases, 0)
	return b.String()
}

// shapes are the generator's two program shapes: temporal heads only,
// and heads drawn from every predicate.
var shapes = []Options{Default(), func() Options { o := Default(); o.NonTemporalHeads = true; return o }()}

func generate(t *testing.T, seed int64, opts Options) (*ast.Program, *ast.Database) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := New(rng, opts)
	prog, err := g.Program(rng)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	db, err := g.Database(rng)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return prog, db
}

// Property: the time-stratified engine and the naive T_P iteration compute
// the same least model on every window.
func TestEngineMatchesNaiveTPOnRandomPrograms(t *testing.T) {
	const m = 12
	for seed := int64(0); seed < trials; seed++ {
		prog, db := generate(t, seed, Default())
		e, err := engine.New(prog, db)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		e.EnsureWindow(m)
		naive, _, err := baseline.NaiveTP(prog, db, m)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for tm := 0; tm <= m; tm++ {
			if e.Store().StateKey(tm) != naive.StateKey(tm) {
				t.Fatalf("seed %d: states differ at t=%d\nprogram:\n%sdb:\n%sengine: %v\nnaive:  %v",
					seed, tm, prog, db, e.Store().State(tm), naive.State(tm))
			}
		}
	}
}

// Property: a certified period really is a period — states keep repeating
// when the window is extended well beyond the certificate.
func TestPeriodCertificateSurvivesExtension(t *testing.T) {
	for seed := int64(0); seed < trials; seed++ {
		prog, db := generate(t, seed, Default())
		e, err := engine.New(prog, db)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		p, st, err := period.Detect(e, 1<<14)
		if err != nil {
			t.Logf("seed %d: no period within budget (%v) — skipping", seed, err)
			continue
		}
		m2 := 2*st.Window + 3*p.P
		e.EnsureWindow(m2)
		for tm := p.Base; tm+p.P <= m2; tm++ {
			if e.Store().StateKey(tm) != e.Store().StateKey(tm+p.P) {
				t.Fatalf("seed %d: certified %v but M[%d] != M[%d]\nprogram:\n%sdb:\n%s",
					seed, p, tm, tm+p.P, prog, db)
			}
		}
	}
}

// Property: specification-based ground-atom answers agree with the
// directly evaluated model at every time point and for every predicate.
func TestSpecAnswersMatchDirectOnRandomPrograms(t *testing.T) {
	for seed := int64(0); seed < trials; seed++ {
		prog, db := generate(t, seed, Default())
		e, err := engine.New(prog, db)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		s, err := spec.Compute(e, 1<<14)
		if err != nil {
			continue // exponential-ish period; covered by other tests
		}
		// Fresh evaluator as the oracle.
		direct, err := engine.New(prog.Clone(), db)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		m := s.Period.Base + 3*s.Period.P + 5
		direct.EnsureWindow(m)
		for tm := 0; tm <= m; tm++ {
			for _, f := range direct.Store().Snapshot(tm) {
				if !s.HoldsFact(f) {
					t.Fatalf("seed %d: spec misses %v\nprogram:\n%sdb:\n%s", seed, f, prog, db)
				}
			}
			// Negative spot checks: facts the direct model lacks.
			for _, f := range direct.Store().Snapshot(tm) {
				g := f
				g.Args = append([]string(nil), f.Args...)
				if len(g.Args) > 0 {
					g.Args[0] = "nonexistent$"
					if s.HoldsFact(g) {
						t.Fatalf("seed %d: spec invents %v", seed, g)
					}
				}
			}
		}
	}
}

// Property (three-way differential battery): on every random program,
// three independently built evaluation pipelines agree — the naive T_P
// oracle, the nested-loop engine (the historical join strategy), and the
// indexed engine (planned join orders + hash-index probes). All compare
// equal on answers (every state of the window), on the certified period,
// and on the whole model (every state of base+period); the
// mode-invariant Stats (Derived, Sweeps, per-rule Derived) and the span
// sequence (per-sweep added counts, per-fixpoint store sizes) are
// bit-identical between the two engines. The incremental lane ingests
// half the facts batch by batch under each join mode (inc.Apply) and must
// end on the from-scratch specification. This is the one test that runs
// the nested-loop engine against the others; the index structures it
// shares with the indexed mode are walked by the engine's lineage tests.
func TestThreeWayDifferentialBattery(t *testing.T) {
	const m = 12
	for seed := int64(0); seed < trials; seed++ {
		prog, db := generate(t, seed, Default())
		naive, _, err := baseline.NaiveTP(prog, db, m)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		mk := func(mode engine.JoinMode) *engine.Evaluator {
			e, err := engine.New(prog.Clone(), db)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			e.SetJoinMode(mode)
			e.SetTrace(obs.New())
			e.EnsureWindow(m)
			return e
		}
		nestedE, indexedE := mk(engine.JoinNestedLoop), mk(engine.JoinIndexed)
		// Answers: both engines' every state equals the oracle's.
		for _, r := range []struct {
			name string
			e    *engine.Evaluator
		}{{"nested-loop", nestedE}, {"indexed", indexedE}} {
			for tm := 0; tm <= m; tm++ {
				if r.e.Store().StateKey(tm) != naive.StateKey(tm) {
					t.Fatalf("seed %d: %s differs from naive T_P at t=%d\nprogram:\n%sdb:\n%s%s: %v\nnaive: %v",
						seed, r.name, tm, prog, db, r.name, r.e.Store().State(tm), naive.State(tm))
				}
			}
		}
		if got, want := indexedE.Store().NonTemporalCount(), nestedE.Store().NonTemporalCount(); got != want {
			t.Fatalf("seed %d: indexed has %d non-temporal facts, nested-loop has %d", seed, got, want)
		}
		// Mode-invariant Stats: total derived facts and the sweep
		// structure — join order changes which binding fires first within
		// a state, never what a closed state contains.
		nested, indexed := nestedE.Stats(), indexedE.Stats()
		if indexed.Derived != nested.Derived {
			t.Fatalf("seed %d: indexed derived %d facts, nested-loop %d", seed, indexed.Derived, nested.Derived)
		}
		for i := range nested.Rules {
			if nested.Rules[i].Derived != indexed.Rules[i].Derived {
				t.Fatalf("seed %d: rule %d derived differs between join modes\nnested:  %s\nindexed: %s",
					seed, i, statsFingerprint(nested), statsFingerprint(indexed))
			}
		}
		if ns, is := sweepStructure(nestedE.Trace()), sweepStructure(indexedE.Trace()); nested.Sweeps != indexed.Sweeps || ns != is {
			t.Fatalf("seed %d: sweep structure differs between join modes\nnested:\n%sindexed:\n%s", seed, ns, is)
		}
		// Period and whole model: the certified period plus every state of
		// base+period determine the infinite model (Theorem 3.4), so
		// equality here is equality at every time point. Skipped when the
		// period is not certifiable in budget.
		si, err := spec.Compute(indexedE, 1<<14)
		if err != nil {
			continue
		}
		sn, err := spec.Compute(nestedE, 1<<14)
		if err != nil {
			t.Fatalf("seed %d: nested-loop certification failed where indexed succeeded: %v", seed, err)
		}
		if sn.Period != si.Period {
			t.Fatalf("seed %d: nested-loop period %v != indexed %v\nprogram:\n%sdb:\n%s", seed, sn.Period, si.Period, prog, db)
		}
		for tm := 0; tm < si.Period.Base+si.Period.P; tm++ {
			if nestedE.Store().StateKey(tm) != indexedE.Store().StateKey(tm) {
				t.Fatalf("seed %d: certified models differ at t=%d\nprogram:\n%sdb:\n%s", seed, tm, prog, db)
			}
		}
		want := fmt.Sprint(si.PrimaryDatabase())
		var lens []int
		for _, mode := range []engine.JoinMode{engine.JoinNestedLoop, engine.JoinIndexed} {
			k := len(db.Facts) / 2
			half, err := ast.NewDatabase(append([]ast.Fact(nil), db.Facts[:k]...))
			if err != nil {
				t.Fatal(err)
			}
			e, err := engine.New(prog.Clone(), half)
			if err != nil {
				t.Fatal(err)
			}
			e.SetJoinMode(mode)
			s, _ := spec.Compute(e, 1<<14) // nil when the half is over budget: Apply certifies afresh
			for rest := db.Facts[k:]; len(rest) > 0; {
				n := 1 + len(rest)/3
				if s, _, err = inc.Apply(e, s, 1<<14, rest[:n]); err != nil {
					t.Fatalf("seed %d mode %d: %v", seed, mode, err)
				}
				rest = rest[n:]
			}
			if got := fmt.Sprint(s.PrimaryDatabase()); s.Period != si.Period || got != want {
				t.Fatalf("seed %d mode %d: incremental %v %s, from scratch %v %s", seed, mode, s.Period, got, si.Period, want)
			}
			lens = append(lens, e.Store().Len())
		}
		if lens[0] != lens[1] {
			t.Fatalf("seed %d: incremental stores hold %d (nested-loop) and %d (indexed) facts", seed, lens[0], lens[1])
		}
	}
}

// Property: the generator only produces valid programs (meta-test).
func TestGeneratorAlwaysValid(t *testing.T) {
	nonTemporalHeads := 0
	for _, opts := range shapes {
		for seed := int64(100); seed < 100+trials; seed++ {
			prog, db := generate(t, seed, opts)
			if err := ast.ValidateProgram(prog); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if err := db.CheckAgainst(prog); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			for _, r := range prog.Rules {
				if r.Head.Time == nil {
					nonTemporalHeads++
				}
			}
		}
	}
	if nonTemporalHeads < trials {
		t.Errorf("only %d rules with a non-temporal head", nonTemporalHeads)
	}
}

// Property: Normalize preserves the least model on the original
// predicates.
func TestNormalizePreservesModelOnRandomPrograms(t *testing.T) {
	const m = 10
	normalized := 0
	opts := Default()
	opts.Anchored = true
	for seed := int64(0); seed < trials; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := New(rng, opts)
		prog, err := g.Program(rng)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		db, err := g.Database(rng)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		normal, err := ast.Normalize(prog)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		normalized++
		e1, err := engine.New(prog, db)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		e2, err := engine.New(normal, db)
		if err != nil {
			t.Fatalf("seed %d: normalized program rejected: %v\n%s", seed, err, normal)
		}
		e1.EnsureWindow(m)
		e2.EnsureWindow(m)
		for tm := 0; tm <= m; tm++ {
			for _, f := range e1.Store().Snapshot(tm) {
				if !e2.Holds(f) {
					t.Fatalf("seed %d: normalization lost %v\noriginal:\n%snormal:\n%s", seed, f, prog, normal)
				}
			}
			// The reverse direction, restricted to original predicates.
			for _, f := range e2.Store().Snapshot(tm) {
				if _, ok := prog.Preds[f.Pred]; !ok {
					continue // delay predicate
				}
				if !e1.Holds(f) {
					t.Fatalf("seed %d: normalization invented %v\noriginal:\n%snormal:\n%s", seed, f, prog, normal)
				}
			}
		}
	}
	if normalized != trials {
		t.Errorf("only %d/%d anchored programs were normalizable", normalized, trials)
	}
}

// Property: rendering a generated program and database and re-parsing
// them is the identity on clauses and predicate signatures — split (as
// DB.Rules and DB.Facts render them) or as one unit — in both shapes.
func TestPrintParseRoundTripOnRandomPrograms(t *testing.T) {
	for _, opts := range shapes {
		for seed := int64(0); seed < trials; seed++ {
			prog, db := generate(t, seed, opts)
			rules, err := parser.ParseProgram(parser.Render(prog, nil))
			if err != nil {
				t.Fatalf("seed %d: reparse rules: %v\n%s", seed, err, parser.Render(prog, nil))
			}
			facts, err := parser.ParseDatabase(parser.Render(nil, db))
			if err != nil {
				t.Fatalf("seed %d: reparse facts: %v\n%s", seed, err, parser.Render(nil, db))
			}
			uprog, udb, err := parser.ParseUnit(parser.Render(prog, db))
			if err != nil {
				t.Fatalf("seed %d: reparse unit: %v\n%s", seed, err, parser.Render(prog, db))
			}
			for _, p := range []*ast.Program{rules, uprog} {
				if p.String() != prog.String() || fmt.Sprint(p.Preds) != fmt.Sprint(prog.Preds) {
					t.Fatalf("seed %d: rules drifted:\n%s%v\nvs\n%s%v", seed, prog, prog.Preds, p, p.Preds)
				}
			}
			for _, d := range []*ast.Database{facts, udb} {
				if d.String() != db.String() || fmt.Sprint(d.Preds) != fmt.Sprint(db.Preds) {
					t.Fatalf("seed %d: facts drifted:\n%s%v\nvs\n%s%v", seed, db, db.Preds, d, d.Preds)
				}
			}
		}
	}
}
