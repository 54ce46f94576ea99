package tdd_test

// The slicing differential battery: on random programs, a cold DB — whose
// closed asks the facade answers from the query's relevance slice — must
// be indistinguishable from one certified first, which answers everything
// from the full model: closed asks for every derivable query head, open
// answers, the certified period, and the model fingerprint all agree.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"tdd"
	"tdd/internal/ast"
	"tdd/internal/randgen"
)

const sliceTrials = 60

// genUnit renders one random program + database as a unit source the
// public API accepts.
func genUnit(t *testing.T, seed int64) (string, *ast.Program) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := randgen.New(rng, randgen.Default())
	prog, err := g.Program(rng)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	db, err := g.Database(rng)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return prog.String() + db.String(), prog
}

// headQueries builds the battery's closed queries for one program: per
// derivable head predicate (sorted), ground atoms across the horizon,
// negated atoms, and temporal/constant quantifications.
func headQueries(prog *ast.Program, horizon int) (heads []string, queries map[string][]string) {
	queries = make(map[string][]string)
	for _, r := range prog.Rules {
		queries[r.Head.Pred] = nil
	}
	for h := range queries {
		heads = append(heads, h)
	}
	sort.Strings(heads)
	for _, name := range heads {
		var qs []string
		info := prog.Preds[name]
		tuples := [][]string{{}}
		if info.Arity == 1 {
			tuples = [][]string{{"c0"}, {"c1"}, {"c2"}}
		} else if info.Arity >= 2 {
			tuples = [][]string{{"c0", "c0"}, {"c0", "c1"}, {"c2", "c1"}}
		}
		for _, args := range tuples {
			suffix := ""
			if len(args) > 0 {
				suffix = ", " + strings.Join(args, ", ")
			}
			for _, t := range []int{0, 1, horizon / 2, horizon} {
				qs = append(qs, fmt.Sprintf("%s(%d%s)", name, t, suffix))
			}
			qs = append(qs, fmt.Sprintf("!%s(%d%s)", name, horizon/3, suffix))
			qs = append(qs, fmt.Sprintf("exists T %s(T%s)", name, suffix))
		}
		// Constant quantification exercises the active-domain guard.
		switch info.Arity {
		case 1:
			qs = append(qs, fmt.Sprintf("exists T exists X %s(T, X)", name))
			qs = append(qs, fmt.Sprintf("forall X exists T %s(T, X)", name))
		case 2:
			qs = append(qs, fmt.Sprintf("exists T exists X exists Y %s(T, X, Y)", name))
		}
		queries[name] = qs
	}
	return heads, queries
}

// TestSlicedAskMatchesFull is the battery proper. Per (program, head) a
// fresh DB is opened and asked cold, so every head whose slice is proper
// goes down the sliced path; the reference is the same program certified
// first via Period, the full path by construction.
func TestSlicedAskMatchesFull(t *testing.T) {
	proper := 0
	for seed := int64(0); seed < sliceTrials; seed++ {
		unit, prog := genUnit(t, seed)
		full, err := tdd.OpenUnit(unit, tdd.WithMaxWindow(1<<14))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		per, err := full.Period()
		if err != nil {
			t.Logf("seed %d: period not certified within budget (%v) — skipping", seed, err)
			continue
		}
		horizon := per.Base + 2*per.P
		if horizon > 64 {
			horizon = 64
		}
		fullFP, err := full.ModelFingerprint()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		heads, queries := headQueries(prog, horizon)
		for _, head := range heads {
			cold, err := tdd.OpenUnit(unit, tdd.WithMaxWindow(1<<14))
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if info, err := cold.SliceFor(queries[head][0]); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			} else if info.Proper {
				proper++
			}
			for _, q := range queries[head] {
				want, err := full.Ask(q)
				if err != nil {
					t.Fatalf("seed %d full %q: %v", seed, q, err)
				}
				got, err := cold.Ask(q)
				if err != nil {
					t.Fatalf("seed %d cold %q: %v", seed, q, err)
				}
				if got != want {
					info, _ := cold.SliceFor(q)
					t.Fatalf("seed %d: %q cold=%v full=%v (slice %+v)\nunit:\n%s",
						seed, q, got, want, info, unit)
				}
			}
			// One open query per program, on its first head's DB: Answers
			// takes the full path, so this checks slicing never leaked
			// into it.
			if head == heads[0] {
				q := head + "(T)"
				if a := prog.Preds[head].Arity; a == 1 {
					q = head + "(T, X)"
				} else if a >= 2 {
					q = head + "(T, X, Y)"
				}
				wa, err := full.Answers(q)
				if err != nil {
					t.Fatalf("seed %d answers %q: %v", seed, q, err)
				}
				ga, err := cold.Answers(q)
				if err != nil {
					t.Fatalf("seed %d answers %q: %v", seed, q, err)
				}
				if tdd.FormatAnswers(ga) != tdd.FormatAnswers(wa) {
					t.Fatalf("seed %d: answers to %q differ\ncold:\n%s\nfull:\n%s",
						seed, q, tdd.FormatAnswers(ga), tdd.FormatAnswers(wa))
				}
			}
			// Period and fingerprint come off the full processor, which
			// the sliced asks must have left untouched.
			cp, err := cold.Period()
			if err != nil || cp != per {
				t.Fatalf("seed %d head %s: period %v/%v, full %v", seed, head, cp, err, per)
			}
			fp, err := cold.ModelFingerprint()
			if err != nil || fp != fullFP {
				t.Fatalf("seed %d head %s: fingerprint %s/%v, full %s", seed, head, fp, err, fullFP)
			}
		}
	}
	if proper == 0 {
		t.Fatal("no (program, head) pair had a proper slice: the battery never left the full path")
	}
	t.Logf("%d (program, head) pairs asked through a proper slice", proper)
}

// TestSliceForReportsProperSlices spot-checks the public slice report on
// a program built to have separable components.
func TestSliceForReportsProperSlices(t *testing.T) {
	db, err := tdd.OpenUnit(`
a(T+1) :- a(T).
b(T+2) :- b(T), a(T).
c(T+3) :- c(T).
a(0). b(0). c(0).
`)
	if err != nil {
		t.Fatal(err)
	}
	info, err := db.SliceFor("exists T a(T)")
	if err != nil {
		t.Fatal(err)
	}
	if !info.Proper || info.Rules != 1 || len(info.Preds) != 1 {
		t.Fatalf("a slice: %+v", info)
	}
	info, err = db.SliceFor("exists T b(T)")
	if err != nil {
		t.Fatal(err)
	}
	if !info.Proper || info.Rules != 2 {
		t.Fatalf("b slice: %+v", info)
	}
	info, err = db.SliceFor("exists T (a(T) & b(T) & c(T))")
	if err != nil {
		t.Fatal(err)
	}
	if info.Proper {
		t.Fatalf("a∧b∧c slice should be the whole program: %+v", info)
	}
	// The graph renders and mentions every predicate.
	g := db.Graph()
	for _, p := range []string{"a", "b", "c"} {
		if !strings.Contains(g, p) {
			t.Fatalf("Graph() missing %s:\n%s", p, g)
		}
	}
}
