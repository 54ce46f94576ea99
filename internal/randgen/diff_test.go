package randgen

// Property-based differential tests: many random TDDs, independent
// pipelines that must agree.

import (
	"fmt"
	"math/rand"
	"testing"

	"tdd/internal/ast"
	"tdd/internal/baseline"
	"tdd/internal/engine"
	"tdd/internal/parser"
	"tdd/internal/period"
	"tdd/internal/spec"
)

const trials = 60

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
