package tdd_test

// The slicing differential battery: on random programs, a DB opened
// WithSlicing must be indistinguishable from a plain one — closed asks
// (the sliced production path) for every derivable query head, open
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

// headQueries builds the battery's closed queries for one program: for
// every derivable head predicate, ground atoms across the horizon,
// negated atoms, and temporal/constant quantifications.
func headQueries(prog *ast.Program, horizon int) []string {
	heads := make(map[string]bool)
	for _, r := range prog.Rules {
		heads[r.Head.Pred] = true
	}
	names := make([]string, 0, len(heads))
	for h := range heads {
		names = append(names, h)
	}
	sort.Strings(names)
	var qs []string
	for _, name := range names {
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
	}
	return qs
}

// TestSlicedAskMatchesFull is the battery proper: sliced ≡ full on every
// query, plus period / fingerprint / open answers.
func TestSlicedAskMatchesFull(t *testing.T) {
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
		queries := headQueries(prog, horizon)
		fullFP, err := full.ModelFingerprint()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		sliced, err := tdd.OpenUnit(unit, tdd.WithMaxWindow(1<<14), tdd.WithSlicing())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, q := range queries {
			want, err := full.Ask(q)
			if err != nil {
				t.Fatalf("seed %d full %q: %v", seed, q, err)
			}
			got, err := sliced.Ask(q)
			if err != nil {
				t.Fatalf("seed %d sliced %q: %v", seed, q, err)
			}
			if got != want {
				info, _ := sliced.SliceFor(q)
				t.Fatalf("seed %d: %q sliced=%v full=%v (slice %+v)\nunit:\n%s",
					seed, q, got, want, info, unit)
			}
		}
		// Period and fingerprint come off the full processor the slicing
		// DB still owns — they must be untouched by the sliced asks.
		sp, err := sliced.Period()
		if err != nil || sp != per {
			t.Fatalf("seed %d: period %v/%v, full %v", seed, sp, err, per)
		}
		fp, err := sliced.ModelFingerprint()
		if err != nil || fp != fullFP {
			t.Fatalf("seed %d: fingerprint %s/%v, full %s", seed, fp, err, fullFP)
		}
		// One open query per head predicate: Answers always takes the
		// full path, so this checks slicing never leaked into it.
		for _, r := range prog.Rules[:1] {
			name := r.Head.Pred
			q := name + "(T)"
			if a := prog.Preds[name].Arity; a == 1 {
				q = name + "(T, X)"
			} else if a >= 2 {
				q = name + "(T, X, Y)"
			}
			wa, err := full.Answers(q)
			if err != nil {
				t.Fatalf("seed %d answers %q: %v", seed, q, err)
			}
			ga, err := sliced.Answers(q)
			if err != nil {
				t.Fatalf("seed %d answers %q: %v", seed, q, err)
			}
			if tdd.FormatAnswers(ga) != tdd.FormatAnswers(wa) {
				t.Fatalf("seed %d: answers to %q differ\nsliced:\n%s\nfull:\n%s",
					seed, q, tdd.FormatAnswers(ga), tdd.FormatAnswers(wa))
			}
		}
	}
}

// TestSliceForReportsProperSlices spot-checks the public slice report on
// a program built to have separable components.
func TestSliceForReportsProperSlices(t *testing.T) {
	db, err := tdd.OpenUnit(`
a(T+1) :- a(T).
b(T+2) :- b(T), a(T).
c(T+3) :- c(T).
a(0). b(0). c(0).
`, tdd.WithSlicing())
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
