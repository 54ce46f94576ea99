package randgen

// Properties of the generator itself: its programs are valid and
// survive rendering. Whether the evaluation paths agree on them is
// FuzzModel's question (internal/server).

import (
	"fmt"
	"math/rand"
	"testing"

	"tdd/internal/ast"
	"tdd/internal/parser"
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
