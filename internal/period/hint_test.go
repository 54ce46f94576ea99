package period

import (
	"fmt"
	"math/rand"
	"testing"

	"tdd/internal/ast"
	"tdd/internal/engine"
	"tdd/internal/parser"
	"tdd/internal/randgen"
	"tdd/internal/workload"
)

// certified is everything a certification leaves behind that a hint must
// not change: the period, Detect's Stats, and the evaluator's window and
// work counters.
type certified struct {
	P       Period
	St      Stats
	Window  int
	Derived int
	Firings int
	Err     bool
}

func certifyOn(e *engine.Evaluator, maxWindow, hint int) certified {
	p, st, err := DetectFrom(e, maxWindow, hint)
	es := e.Stats()
	return certified{P: p, St: st, Window: e.Window(), Derived: es.Derived, Firings: es.Firings, Err: err != nil}
}

// insertBatch adds facts to e the way inc.Insert does: into the database,
// then propagated through the evaluated window.
func insertBatch(t *testing.T, e *engine.Evaluator, facts []ast.Fact) {
	t.Helper()
	var seed []ast.Fact
	for _, f := range facts {
		ok, err := e.InsertBase(f)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			seed = append(seed, f)
		}
	}
	e.PropagateDelta(seed)
}

// checkHint certifies the fact union of base and batch three ways and
// requires one answer: Detect on a fresh evaluator; DetectFrom with the
// hint on another fresh one (period, Stats, window and counters all
// equal); and DetectFrom with the hint on an evaluator that certified
// base and then took batch incrementally, against Detect on a clone of
// that same evaluator (everything equal) and the fresh period. It returns
// the fresh and the incremental outcome.
func checkHint(t *testing.T, name string, prog *ast.Program, base, batch []ast.Fact, hint, maxWindow int) (fr, incr certified) {
	t.Helper()
	fresh := func(facts []ast.Fact) *engine.Evaluator {
		db, err := ast.NewDatabase(append([]ast.Fact(nil), facts...))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		e, err := engine.New(prog, db)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return e
	}
	union := append(append([]ast.Fact(nil), base...), batch...)
	want := certifyOn(fresh(union), maxWindow, 0)
	if got := certifyOn(fresh(union), maxWindow, hint); got != want {
		t.Errorf("%s: fresh evaluator, hint %d: %+v, Detect %+v", name, hint, got, want)
	}
	old := fresh(base)
	if _, _, err := Detect(old, maxWindow); err != nil {
		return want, want // only a certified evaluator takes a batch with a hint
	}
	hinted, plain := old.Clone(), old.Clone()
	insertBatch(t, hinted, batch)
	insertBatch(t, plain, batch)
	got, ref := certifyOn(hinted, maxWindow, hint), certifyOn(plain, maxWindow, 0)
	if got != ref {
		t.Errorf("%s: after the batch, hint %d: %+v, Detect %+v", name, hint, got, ref)
	}
	if got.P != want.P || got.Err != want.Err {
		t.Errorf("%s: after the batch, hint %d: period %v, fresh Detect %v", name, hint, got.P, want.P)
	}
	return want, got
}

func parseFacts(t *testing.T, src string) []ast.Fact {
	t.Helper()
	db, err := parser.ParseDatabase(src)
	if err != nil {
		t.Fatal(err)
	}
	return db.Facts
}

// TestDetectFromHint: the ingest cases a hint must survive, each compared
// with Detect (checkHint) and pinned to its known period. On these chains
// the incremental evaluator's window and counters also equal the fresh
// one's (in general a fact derived before the batch asserted it counts
// as derived, so only the period is compared with a fresh evaluator).
func TestDetectFromHint(t *testing.T) {
	cases := []struct {
		name, rules, base, batch string
		hints                    []int
		want                     Period
		// grown: the base needed a larger window than the union does, and
		// evaluation never shrinks, so the incremental evaluator keeps the
		// larger window and its work (Detect leaves it so too).
		grown bool
	}{{
		// p(1) lies below the old base 6 and fills the odd states, so the
		// minimal period halves: the old p = 2 holds, its divisor 1 wins.
		name:  "batch below the base shrinks p=2 to p=1",
		rules: "p(T+2) :- p(T).",
		base:  "p(0). q(5).",
		batch: "p(1).",
		hints: []int{2},
		want:  Period{Base: 6, P: 1},
	}, {
		// The new period 35 fails the hint 5 and every divisor of it; the
		// window the old certificate evaluated (32) is too short for it, so
		// the fallback grows the window once, as Detect does.
		name:  "new period fails the hint and grows the window",
		rules: "a(T+5) :- a(T).\nb(T+7) :- b(T).",
		base:  "a(0).",
		batch: "b(0).",
		hints: []int{5},
		want:  Period{Base: 1, P: 35},
	}, {
		name:  "wrong hints on a true period of 2",
		rules: "even(T+2) :- even(T).",
		base:  "even(0).",
		batch: "tag(a).",
		hints: []int{5, 4},
		want:  Period{Base: 1, P: 2},
	}, {
		// q(40) moves c from 0 past the old base 1: Detect's schedule now
		// starts beyond the window the old certificate evaluated.
		name:  "batch moves c past the old base",
		rules: "p(T+2) :- p(T).",
		base:  "p(0).",
		batch: "q(40).",
		hints: []int{2},
		want:  Period{Base: 41, P: 2},
	}, {
		// The base certifies p = 35 at window 88; the batch fills every
		// state, and p = 1 certifies at Detect's first window, 44. Starting
		// at 88, the hint's divisor 1 certifies, and DetectFrom must still
		// report Detect's window.
		name:  "batch shrinks p=35 to p=1 below the evaluated window",
		rules: "a(T+5) :- a(T).\nb(T+7) :- b(T).",
		base:  "a(0). b(0). z(6).",
		batch: "a(1). a(2). a(3). a(4). b(1). b(2). b(3). b(4). b(5). b(6).",
		hints: []int{35, 7},
		want:  Period{Base: 7, P: 1},
		grown: true,
	}}
	for _, tc := range cases {
		prog, err := parser.ParseProgram(tc.rules)
		if err != nil {
			t.Fatal(err)
		}
		base, batch := parseFacts(t, tc.base), parseFacts(t, tc.batch)
		for _, h := range tc.hints {
			name := fmt.Sprintf("%s (hint %d)", tc.name, h)
			fr, incr := checkHint(t, name, prog, base, batch, h, 1<<20)
			if fr.P != tc.want || fr.Err {
				t.Errorf("%s: period %v (err %v), want %v", name, fr.P, fr.Err, tc.want)
			}
			if tc.grown {
				if incr.St != fr.St || incr.Window <= fr.Window {
					t.Errorf("%s: incremental %+v, fresh %+v: want equal Stats from a larger window", name, incr, fr)
				}
			} else if incr != fr {
				t.Errorf("%s: incremental %+v, fresh %+v", name, incr, fr)
			}
		}
	}
	// The growth case really grows, and a hint on it still reports it.
	prog, _ := parser.ParseProgram(cases[1].rules)
	if fr, _ := checkHint(t, "growth", prog, parseFacts(t, cases[1].base), parseFacts(t, cases[1].batch), 5, 1<<20); fr.St.Grown == 0 {
		t.Errorf("growth case certified without growing: %+v", fr)
	}
}

// TestDetectFromHintProperty: on random programs and the
// exponential-period counter family, with the facts split into a
// certified base and a batch, the hints p, 2p, p+1, 1 and a random one —
// p the period before the batch — give Detect's result, window and
// counters, under generous and under starved window budgets.
func TestDetectFromHintProperty(t *testing.T) {
	outcomes := map[bool]int{}
	check := func(name string, rng *rand.Rand, prog *ast.Program, facts []ast.Fact, budgets ...int) {
		facts = append([]ast.Fact(nil), facts...)
		rng.Shuffle(len(facts), func(i, j int) { facts[i], facts[j] = facts[j], facts[i] })
		k := rng.Intn(len(facts) + 1)
		base, batch := facts[:k], facts[k:]
		bdb, err := ast.NewDatabase(append([]ast.Fact(nil), base...))
		if err != nil {
			t.Fatal(err)
		}
		e, err := engine.New(prog, bdb)
		if err != nil {
			t.Fatal(err)
		}
		old, _, err := Detect(e, budgets[0])
		if err != nil {
			return
		}
		p := old.P
		for _, h := range []int{p, 2 * p, p + 1, 1, 1 + rng.Intn(64)} {
			for _, budget := range budgets {
				fr, _ := checkHint(t, fmt.Sprintf("%s hint %d budget %d", name, h, budget), prog, base, batch, h, budget)
				outcomes[fr.Err]++
			}
		}
	}
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randgen.New(rng, randgen.Default())
		prog, err := g.Program(rng)
		if err != nil {
			t.Fatal(err)
		}
		db, err := g.Database(rng)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("seed %d", seed), rng, prog, db.Facts, 1<<12, 12)
	}
	for bits := 1; bits <= 5; bits++ {
		rules, facts := workload.Counter(bits)
		prog, db, err := parser.ParseUnit(rules + facts)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(0); seed < 4; seed++ {
			check(fmt.Sprintf("counter bits %d seed %d", bits, seed), rand.New(rand.NewSource(seed)), prog, db.Facts, 1<<16, 24)
		}
	}
	// Both outcomes must be exercised, or the comparison proves little.
	t.Logf("%d certified, %d exceeded the budget", outcomes[false], outcomes[true])
	if outcomes[false] < 500 || outcomes[true] < 30 {
		t.Errorf("corpus too one-sided: %d certified, %d exceeded the budget", outcomes[false], outcomes[true])
	}
}
