package engine_test

import (
	"fmt"
	"math/rand"
	"testing"

	"tdd/internal/ast"
	"tdd/internal/engine"
	"tdd/internal/parser"
	"tdd/internal/randgen"
	"tdd/internal/spec"
	"tdd/internal/workload"
)

// TestShareRepeatsIsExact: once spec.Compute certifies (b, p), every state
// 0..m of the evaluated window renders as the same state of an evaluator
// run to the same window and never certified, and every state in [b+p, m]
// is its representative's shards — slot t is pointer-equal to slot
// Canonical(t) for every temporal predicate, so the guard of ShareRepeats
// never refused a slot. The programs are E1's ski model, E8's
// reachability, a 3-bit counter and 240 random programs of both of
// randgen's shapes.
func TestShareRepeatsIsExact(t *testing.T) {
	type program struct {
		name     string
		prog     *ast.Program
		db       *ast.Database
		optional bool // a random program may not certify within the budget
	}
	var progs []program
	unit := func(name, rules, facts string) {
		prog, db, err := parser.ParseUnit(rules + facts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		progs = append(progs, program{name: name, prog: prog, db: db})
	}
	rules, facts := workload.Ski(workload.SkiParams{YearLen: 50, Resorts: 4, Planes: 8, Holidays: 5, Seed: 42})
	unit("E1 ski", rules, facts)
	rules, facts = workload.Reachability(workload.ReachParams{Nodes: 12, Edges: 24, Seed: 13})
	unit("E8 reach", rules, facts)
	rules, facts = workload.Counter(3)
	unit("counter(3)", rules, facts)
	shapes := []randgen.Options{randgen.Default(), randgen.Default()}
	shapes[1].NonTemporalHeads = true
	for seed := int64(0); seed < 240; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randgen.New(rng, shapes[seed%2])
		prog, err := g.Program(rng)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		db, err := g.Database(rng)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		progs = append(progs, program{name: fmt.Sprintf("randgen seed %d", seed), prog: prog, db: db, optional: true})
	}
	certified, shared := 0, 0
	for _, pg := range progs {
		e, err := engine.New(pg.prog.Clone(), pg.db.Clone())
		if err != nil {
			t.Fatalf("%s: %v", pg.name, err)
		}
		s, err := spec.Compute(e, 1<<12)
		if err != nil {
			if pg.optional {
				continue
			}
			t.Fatalf("%s: %v", pg.name, err)
		}
		certified++
		per, m := s.Period, e.Window()
		direct, err := engine.New(pg.prog.Clone(), pg.db.Clone())
		if err != nil {
			t.Fatalf("%s: %v", pg.name, err)
		}
		direct.EnsureWindow(m)
		for tm := 0; tm <= m; tm++ {
			if got, want := e.Store().StateKey(tm), direct.Store().StateKey(tm); got != want {
				t.Fatalf("%s: certified %v, window %d: state %d is %v, uncertified %v\nprogram:\n%sdb:\n%s",
					pg.name, per, m, tm, e.Store().State(tm), direct.Store().State(tm), pg.prog, pg.db)
			}
		}
		for tm := per.Base + per.P; tm <= m; tm++ {
			if !e.Store().SameShards(tm, per.Canonical(tm)) {
				t.Fatalf("%s: certified %v, window %d: state %d is not stored as state %d", pg.name, per, m, tm, per.Canonical(tm))
			}
			shared++
		}
	}
	t.Logf("%d of %d programs certified; %d states stored as their representative's", certified, len(progs), shared)
	if certified < 200 {
		t.Errorf("only %d programs certified, want at least 200", certified)
	}
}
