package inc

import (
	"fmt"
	"math/rand"
	"testing"

	"tdd/internal/ast"
	"tdd/internal/engine"
	"tdd/internal/randgen"
	"tdd/internal/spec"
)

const testMaxWindow = 1 << 20

func renderFacts(fs []ast.Fact) string {
	out := ""
	for _, f := range fs {
		out += f.String() + ".\n"
	}
	return out
}

// TestOracleRandomIngestionOrders is the incremental/from-scratch oracle:
// for random valid TDDs, random initial prefixes, and random batch splits
// of the remaining facts, the incrementally maintained specification must
// be identical — same minimal period, same primary database — to the one
// computed from scratch over the final fact set, and must answer deep
// ground queries identically.
func TestOracleRandomIngestionOrders(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			g := randgen.New(rng, randgen.Default())
			prog, err := g.Program(rng)
			if err != nil {
				t.Fatal(err)
			}
			full, err := g.Database(rng)
			if err != nil {
				t.Fatal(err)
			}
			facts := append([]ast.Fact(nil), full.Facts...)
			rng.Shuffle(len(facts), func(i, j int) { facts[i], facts[j] = facts[j], facts[i] })

			// Open on a random (possibly empty) prefix and certify once. An
			// empty prefix of a non-empty database is left uncertified, so
			// the first batch is applied with no previous specification.
			k := rng.Intn(len(facts) + 1)
			initial, err := ast.NewDatabase(append([]ast.Fact(nil), facts[:k]...))
			if err != nil {
				t.Fatal(err)
			}
			e, err := engine.New(prog, initial)
			if err != nil {
				t.Fatal(err)
			}
			var cur *spec.Spec
			if k > 0 || len(facts) == 0 {
				if cur, err = spec.Compute(e, testMaxWindow); err != nil {
					t.Fatal(err)
				}
			}

			// Ingest the rest in random batches.
			rest := facts[k:]
			for len(rest) > 0 {
				n := 1 + rng.Intn(len(rest))
				old := cur
				var res Result
				cur, res, err = Apply(e, cur, testMaxWindow, rest[:n])
				if err != nil {
					t.Fatal(err)
				}
				if res.NewBase != n {
					t.Fatalf("batch of %d distinct facts recorded %d new", n, res.NewBase)
				}
				if old == nil && !(res.Recertified && res.SpecChanged) {
					t.Fatalf("first batch without a specification: %+v", res)
				}
				rest = rest[n:]
			}

			// From-scratch evaluation of the final fact set.
			e2, err := engine.New(prog, &ast.Database{Facts: e.Facts(), Preds: e.Database().Preds})
			if err != nil {
				t.Fatal(err)
			}
			want, err := spec.Compute(e2, testMaxWindow)
			if err != nil {
				t.Fatal(err)
			}

			if cur.Period != want.Period {
				t.Fatalf("period diverged: incremental %v, from-scratch %v", cur.Period, want.Period)
			}
			got, exp := renderFacts(cur.PrimaryDatabase()), renderFacts(want.PrimaryDatabase())
			if got != exp {
				t.Fatalf("primary database diverged\nincremental:\n%s\nfrom-scratch:\n%s", got, exp)
			}
			// Deep ground queries (beyond any evaluated window) must agree.
			for i := 0; i < 50; i++ {
				f := ast.Fact{Pred: fmt.Sprintf("p%d", rng.Intn(3)), Temporal: true, Time: 1000 + rng.Intn(100000)}
				info, ok := prog.Preds[f.Pred]
				if !ok {
					continue
				}
				f.Args = make([]string, info.Arity)
				for j := range f.Args {
					f.Args[j] = fmt.Sprintf("c%d", rng.Intn(3))
				}
				if a, b := cur.HoldsFact(f), want.HoldsFact(f); a != b {
					t.Fatalf("deep query %s: incremental %v, from-scratch %v", f, a, b)
				}
			}
		})
	}
}

// TestApplyDuplicatesAndNoop: re-asserting known facts is a no-op that
// keeps the existing specification (no re-certification).
func TestApplyDuplicatesAndNoop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randgen.New(rng, randgen.Default())
	prog, err := g.Program(rng)
	if err != nil {
		t.Fatal(err)
	}
	db, err := g.Database(rng)
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(prog, db)
	if err != nil {
		t.Fatal(err)
	}
	s, err := spec.Compute(e, testMaxWindow)
	if err != nil {
		t.Fatal(err)
	}
	s2, res, err := Apply(e, s, testMaxWindow, db.Facts[:3])
	if err != nil {
		t.Fatal(err)
	}
	if s2 != s || res.Recertified || res.SpecChanged || res.Duplicates != 3 || res.NewBase != 0 {
		t.Fatalf("duplicate batch: got %+v (spec reused: %v)", res, s2 == s)
	}
	if res.Period != s.Period {
		t.Fatalf("result period %v, spec period %v", res.Period, s.Period)
	}
}

// TestApplyRejectsBadSignature: a signature-conflicting fact is refused.
func TestApplyRejectsBadSignature(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randgen.New(rng, randgen.Default())
	prog, err := g.Program(rng)
	if err != nil {
		t.Fatal(err)
	}
	db, err := g.Database(rng)
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(prog, db)
	if err != nil {
		t.Fatal(err)
	}
	bad := ast.Fact{Pred: "p0", Temporal: false, Args: nil}
	if _, _, err := Apply(e, nil, testMaxWindow, []ast.Fact{bad}); err == nil {
		t.Fatal("non-temporal use of temporal predicate accepted")
	}
}
