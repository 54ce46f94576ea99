package period

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"tdd/internal/ast"
	"tdd/internal/baseline"
	"tdd/internal/engine"
	"tdd/internal/parser"
	"tdd/internal/randgen"
	"tdd/internal/workload"
)

func mustEval(t *testing.T, src string) *engine.Evaluator {
	t.Helper()
	prog, db, err := parser.ParseUnit(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	e, err := engine.New(prog, db)
	if err != nil {
		t.Fatalf("engine.New: %v", err)
	}
	return e
}

func TestDetectEven(t *testing.T) {
	e := mustEval(t, "even(T+2) :- even(T).\neven(0).")
	p, _, err := Detect(e, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if p.P != 2 {
		t.Errorf("period = %v, want p=2", p)
	}
	if p.Base != 1 {
		t.Errorf("base = %d, want 1 (minimal base beyond the database depth)", p.Base)
	}
}

func TestDetectInflationaryHasPeriodOne(t *testing.T) {
	src := `
path(K, X, X) :- node(X), null(K).
path(K+1, X, Z) :- edge(X, Y), path(K, Y, Z).
path(K+1, X, Y) :- path(K, X, Y).
null(0).
node(a). node(b). node(c).
edge(a, b). edge(b, c).
`
	e := mustEval(t, src)
	p, _, err := Detect(e, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if p.P != 1 {
		t.Errorf("inflationary program period = %v, want p=1", p)
	}
	// Reachability closes by path length <= 2, so states stabilize fast.
	if p.Base > 4 {
		t.Errorf("base = %d unexpectedly large", p.Base)
	}
}

func TestDetectSki(t *testing.T) {
	src := `
plane(T+7, X) :- plane(T, X), resort(X), offseason(T).
plane(T+2, X) :- plane(T, X), resort(X), winter(T).
plane(T+1, X) :- plane(T, X), resort(X), holiday(T).
offseason(T+10) :- offseason(T).
winter(T+10) :- winter(T).
holiday(T+10) :- holiday(T).
winter(0). winter(1). winter(2). winter(3).
offseason(4). offseason(5). offseason(6). offseason(7). offseason(8). offseason(9).
holiday(1).
resort(hunter).
plane(0, hunter).
`
	e := mustEval(t, src)
	p, _, err := Detect(e, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if p.P != 10 {
		t.Errorf("period = %v, want p=10 (the year length)", p)
	}
}

func TestDetectEmptyModelTail(t *testing.T) {
	// No recursion: states beyond the database are empty, period (c+1, 1).
	e := mustEval(t, "q(T+1) :- p(T).\np(3).")
	p, _, err := Detect(e, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	// q(4) is derived from p(3), so states are empty from t=5 on.
	if p.P != 1 || p.Base != 5 {
		t.Errorf("period = %v, want (b=5, p=1)", p)
	}
}

func TestDetectWindowExceeded(t *testing.T) {
	// Period 30 (lcm of 2,3,5) cannot be certified in a window of 20.
	src := `
a(T+2) :- a(T).
b(T+3) :- b(T).
c(T+5) :- c(T).
a(0). b(0). c(0).
`
	e := mustEval(t, src)
	if _, _, err := Detect(e, 20); !errors.Is(err, ErrWindowExceeded) {
		t.Errorf("err = %v, want ErrWindowExceeded", err)
	}
	// With a large budget the lcm period is found.
	e2 := mustEval(t, src)
	p, _, err := Detect(e2, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if p.P != 30 {
		t.Errorf("period = %v, want p=30", p)
	}
}

func TestCanonical(t *testing.T) {
	p := Period{Base: 3, P: 4}
	cases := map[int]int{0: 0, 2: 2, 3: 3, 6: 6, 7: 3, 8: 4, 10: 6, 11: 3, 100: 3 + (100-3)%4}
	for in, want := range cases {
		if got := p.Canonical(in); got != want {
			t.Errorf("Canonical(%d) = %d, want %d", in, got, want)
		}
	}
	// Canonical is idempotent and within [0, Base+P).
	for i := 0; i < 50; i++ {
		c := p.Canonical(i)
		if c >= p.Base+p.P {
			t.Errorf("Canonical(%d) = %d out of range", i, c)
		}
		if p.Canonical(c) != c {
			t.Errorf("Canonical not idempotent at %d", i)
		}
	}
}

func TestLookback(t *testing.T) {
	prog, _, err := parser.ParseUnit(`
p(T+7, X) :- p(T, X), r(X).
seen(X) :- p(T+3, X), q(T).
q(T+1) :- q(T).
`)
	if err != nil {
		t.Fatal(err)
	}
	// Temporal lookback 7; the non-temporal rule spreads over 3 states.
	if g := Lookback(prog); g != 7 {
		t.Errorf("Lookback = %d, want 7", g)
	}
	prog2, _, err := parser.ParseUnit(`
seen(X) :- p(T+9, X), q(T).
q(T+1) :- q(T).
`)
	if err != nil {
		t.Fatal(err)
	}
	if g := Lookback(prog2); g != 9 {
		t.Errorf("Lookback = %d, want 9 (non-temporal body spread)", g)
	}
}

// scanKeys runs scan over explicit state keys.
func scanKeys(keys []string, c, G, hmax int) (Period, bool) {
	return scan(len(keys)-1, c, G, hmax, 0, func(t1, t2 int) bool { return keys[t1] == keys[t2] })
}

func TestScanNoFalsePositiveOnShortEvidence(t *testing.T) {
	// keys: a b c c c — the c-run is too short to certify with G=3.
	keys := []string{"a", "b", "c", "c", "c"}
	if _, ok := scanKeys(keys, 0, 3, 0); ok {
		t.Error("scan certified a period without enough evidence")
	}
	keys = []string{"a", "b", "c", "c", "c", "c", "c"}
	p, ok := scanKeys(keys, 0, 3, 0)
	if !ok || p.P != 1 || p.Base != 2 {
		t.Errorf("scan = %v, %v; want (b=2, p=1)", p, ok)
	}
}

func TestScanMinimalPeriodFirst(t *testing.T) {
	// Period 2 from index 1: x a b a b a b a b
	keys := []string{"x", "a", "b", "a", "b", "a", "b", "a", "b"}
	p, ok := scanKeys(keys, 0, 1, 0)
	if !ok || p.P != 2 || p.Base != 1 {
		t.Errorf("scan = %v, %v; want (b=1, p=2)", p, ok)
	}
	// A constant sequence has period 1 even though 2 also fits.
	keys = []string{"x", "a", "a", "a", "a", "a"}
	p, ok = scanKeys(keys, 0, 1, 0)
	if !ok || p.P != 1 {
		t.Errorf("scan = %v, want p=1", p)
	}
}

func TestDetectRespectsDatabaseDepth(t *testing.T) {
	// Database facts up to time 6 must push the base beyond 6 even though
	// the rule-driven states look periodic earlier.
	e := mustEval(t, "p(T+1) :- p(T).\np(0).\nq(6).")
	p, _, err := Detect(e, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	if p.Base <= 6 {
		t.Errorf("base = %d, want > 6 (database depth)", p.Base)
	}
	if p.P != 1 {
		t.Errorf("p = %d, want 1", p.P)
	}
}

// Property (testing/quick): Canonical respects the period's equivalence —
// equal representatives exactly for times congruent mod P beyond the base.
func TestCanonicalEquivalenceProperty(t *testing.T) {
	f := func(base, p, t1 uint8, k uint8) bool {
		per := Period{Base: int(base), P: int(p%19) + 1}
		t := int(t1) + per.Base // beyond the base
		shifted := t + int(k%7)*per.P
		if per.Canonical(t) != per.Canonical(shifted) {
			return false
		}
		// Within one period of the base, times are their own canonical form.
		if t < per.Base+per.P && per.Canonical(t) != t {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// oracleDetect is baseline.Detect — the string-key scan on Detect's window
// schedule — over Store.StateKey.
func oracleDetect(e *engine.Evaluator, maxWindow int) (Period, Stats, error) {
	d := baseline.Detect(func(m int) []string {
		e.EnsureWindow(m)
		keys := make([]string, m+1)
		for t := range keys {
			keys[t] = e.Store().StateKey(t)
		}
		return keys
	}, e.DatabaseDepth(), Lookback(e.Program()), MaxHeadDepth(e.Program()), maxWindow)
	st := Stats{Window: d.Window, Grown: d.Grown}
	if !d.OK {
		return Period{}, st, ErrWindowExceeded
	}
	return Period{Base: d.Base, P: d.P}, st, nil
}

// checkDetectMatchesOracle runs both detectors on fresh evaluators of the
// same program and requires identical results, errors included.
func checkDetectMatchesOracle(t *testing.T, name string, prog *ast.Program, db *ast.Database, maxWindow int) (certified bool) {
	t.Helper()
	fresh := func() *engine.Evaluator {
		e, err := engine.New(prog, db)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return e
	}
	wantP, wantSt, wantErr := oracleDetect(fresh(), maxWindow)
	gotP, gotSt, gotErr := Detect(fresh(), maxWindow)
	if errors.Is(gotErr, ErrWindowExceeded) != errors.Is(wantErr, ErrWindowExceeded) || (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: Detect error %v, oracle error %v", name, gotErr, wantErr)
	}
	if gotP != wantP || gotSt != wantSt {
		t.Fatalf("%s: Detect = %v %+v, oracle = %v %+v", name, gotP, gotSt, wantP, wantSt)
	}
	return gotErr == nil
}

// TestDetectMatchesStringOracle: fingerprint-based detection returns the
// identical (Period, Stats) — and fails identically — as the string scan
// over the 60-program random corpus and the exponential-period counter
// family, under generous and under starved window budgets.
func TestDetectMatchesStringOracle(t *testing.T) {
	certified, exceeded := 0, 0
	check := func(name string, prog *ast.Program, db *ast.Database, budget int) {
		if checkDetectMatchesOracle(t, name, prog, db, budget) {
			certified++
		} else {
			exceeded++
		}
	}
	for seed := int64(0); seed < 60; seed++ {
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
		for _, budget := range []int{1 << 12, 10} {
			check(fmt.Sprintf("seed %d budget %d", seed, budget), prog, db, budget)
		}
	}
	for bits := 1; bits <= 6; bits++ {
		rules, facts := workload.Counter(bits)
		prog, db, err := parser.ParseUnit(rules + facts)
		if err != nil {
			t.Fatal(err)
		}
		for _, budget := range []int{1 << 16, 24} {
			check(fmt.Sprintf("counter bits %d budget %d", bits, budget), prog, db, budget)
		}
	}
	t.Logf("%d certified, %d exceeded the budget", certified, exceeded)
	// Both outcomes must be exercised, or the comparison proves little.
	if certified < 60 || exceeded < 5 {
		t.Errorf("corpus too one-sided: %d certified, %d exceeded the budget", certified, exceeded)
	}
}

// TestCertifyFallsBackOnCollision forces fingerprint collisions — an
// approximate equality that also holds for unequal states — and requires
// the exact fallback to return the true minimal (b, p) every time.
func TestCertifyFallsBackOnCollision(t *testing.T) {
	// Transient x y, then period 3 from t=2.
	keys := []string{"x", "y", "a", "b", "c", "a", "b", "c", "a", "b", "c", "a", "b", "c", "a", "b", "c"}
	m := len(keys) - 1
	exact := func(t1, t2 int) bool { return keys[t1] == keys[t2] }
	base, p, ok := baseline.Scan(keys, 0, 2, 0)
	want := Period{Base: base, P: p}
	if !ok || want != (Period{Base: 2, P: 3}) {
		t.Fatalf("oracle = %v, %v; want (b=2, p=3)", want, ok)
	}
	for name, approx := range map[string]func(t1, t2 int) bool{
		// Everything collides: the approximate winner is (b=1, p=1).
		"all-equal": func(t1, t2 int) bool { return true },
		// The cycle's states collide with one another: (b=2, p=1) wins.
		"cycle-collapsed": func(t1, t2 int) bool { return keys[t1] == keys[t2] || (t1 >= 2 && t2 >= 2) },
		// Collisions only in the transient extend the run below the true base.
		"transient": func(t1, t2 int) bool { return keys[t1] == keys[t2] || t1 < 2 },
	} {
		got, ok, fellBack := certify(m, 0, 2, 0, 0, approx, exact)
		if !ok || got != want {
			t.Errorf("%s: certify = %v, %v; want %v", name, got, ok, want)
		}
		if !fellBack {
			t.Errorf("%s: lying equality was not caught by exact confirmation", name)
		}
	}
	// An honest approximation confirms without a second scan.
	got, ok, fellBack := certify(m, 0, 2, 0, 0, exact, exact)
	if !ok || got != want || fellBack {
		t.Errorf("honest: certify = %v, %v, fellBack=%v; want %v, true, false", got, ok, fellBack, want)
	}
	// No certificate under the approximation means none at all.
	short := []string{"a", "b", "c", "d", "e", "f"}
	if _, ok, _ := certify(len(short)-1, 0, 2, 0, 0, func(t1, t2 int) bool { return short[t1] == short[t2] }, exact); ok {
		t.Error("certify found a period in an aperiodic window")
	}
}

// TestDeepNonTemporalBodyCertified pins the certificate width for a
// non-temporal-head rule whose body reads the model only from depth 9:
// q cycles through c0..c13 (b=1, p=14), and flag(c8) first follows from
// q(22, c8). Its shift-normalized spread is one state; were the width
// that, a window of 16 would certify before flag(c8) is derived. The
// certified model's non-temporal facts must be naive T_P's.
func TestDeepNonTemporalBodyCertified(t *testing.T) {
	src := "q(T+1, Y) :- q(T, X), next(X, Y).\nflag(X) :- q(T+9, X), special(X).\nq(0, c0).\nspecial(c1).\nspecial(c8).\n"
	for i := 0; i < 14; i++ {
		src += fmt.Sprintf("next(c%d, c%d).\n", i, (i+1)%14)
	}
	prog, db, err := parser.ParseUnit(src)
	if err != nil {
		t.Fatal(err)
	}
	if g := Lookback(prog); g != 9 {
		t.Errorf("Lookback = %d, want 9 (flag's deepest body literal)", g)
	}
	e := mustEval(t, src)
	p, _, err := Detect(e, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	if p != (Period{Base: 1, P: 14}) {
		t.Errorf("period = %v, want (b=1, p=14)", p)
	}
	ref, _, err := baseline.NaiveTP(prog, db, 64)
	if err != nil {
		t.Fatal(err)
	}
	got, want := fmt.Sprint(e.Store().NonTemporalFacts()), fmt.Sprint(ref.NonTemporalFacts())
	if got != want {
		t.Errorf("certified non-temporal facts\n%s\nnaive T_P\n%s", got, want)
	}
	if !e.Holds(ast.Fact{Pred: "flag", Args: []string{"c8"}}) {
		t.Error("flag(c8) does not hold in the certified model")
	}
}
