package engine

import (
	"slices"
	"testing"

	"tdd/internal/ast"
	"tdd/internal/parser"
)

// mustTDD parses a mixed source text into a program and database.
func mustTDD(t *testing.T, src string) (*ast.Program, *ast.Database) {
	t.Helper()
	prog, db, err := parser.ParseUnit(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return prog, db
}

func mustEval(t *testing.T, src string) *Evaluator {
	t.Helper()
	prog, db := mustTDD(t, src)
	e, err := New(prog, db)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return e
}

// tfact builds a temporal fact.
func tfact(pred string, time int, args ...string) ast.Fact {
	return ast.Fact{Pred: pred, Temporal: true, Time: time, Args: args}
}

// ntfact builds a non-temporal fact.
func ntfact(pred string, args ...string) ast.Fact {
	return ast.Fact{Pred: pred, Args: args}
}

func TestEvenExample(t *testing.T) {
	// Section 3.3: even(T+2) :- even(T). even(0).
	e := mustEval(t, "even(T+2) :- even(T).\neven(0).")
	e.EnsureWindow(10)
	for i := 0; i <= 10; i++ {
		want := i%2 == 0
		if got := e.Holds(tfact("even", i)); got != want {
			t.Errorf("even(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestSkiExample(t *testing.T) {
	src := `
plane(T+7, X) :- plane(T, X), resort(X), offseason(T).
plane(T+2, X) :- plane(T, X), resort(X), winter(T).
plane(T+1, X) :- plane(T, X), resort(X), holiday(T).
offseason(T+10) :- offseason(T).
winter(T+10) :- winter(T).
holiday(T+10) :- holiday(T).
% year length 10: days 0-3 winter, 4-9 offseason, day 1 holiday
winter(0). winter(1). winter(2). winter(3).
offseason(4). offseason(5). offseason(6). offseason(7). offseason(8). offseason(9).
holiday(1).
resort(hunter).
plane(0, hunter).
`
	e := mustEval(t, src)
	e.EnsureWindow(40)
	// Day 0 winter: planes on day 2 (winter), day 4; offseason jumps to
	// day 11, which is both winter (11 mod 10 = 1 <= 3) and a holiday, so
	// planes follow on days 12 (holiday rule) and 13 (winter rule).
	wantDays := map[int]bool{0: true, 2: true, 4: true, 11: true, 12: true, 13: true}
	for d := 0; d <= 13; d++ {
		if got := e.Holds(tfact("plane", d, "hunter")); got != wantDays[d] {
			t.Errorf("plane(%d, hunter) = %v, want %v", d, got, wantDays[d])
		}
	}
	// Periodic seasons: winter repeats with period 10.
	for d := 0; d <= 3; d++ {
		if !e.Holds(tfact("winter", d+30)) {
			t.Errorf("winter(%d) missing", d+30)
		}
	}
	if e.Holds(tfact("winter", 35)) {
		t.Error("winter(35) should not hold")
	}
}

func TestPathExample(t *testing.T) {
	// Section 2's inflationary graph program on a 4-cycle.
	src := `
path(K, X, X) :- node(X), null(K).
path(K+1, X, Z) :- edge(X, Y), path(K, Y, Z).
path(K+1, X, Y) :- path(K, X, Y).
null(0).
node(a). node(b). node(c). node(d).
edge(a, b). edge(b, c). edge(c, d). edge(d, a).
`
	e := mustEval(t, src)
	e.EnsureWindow(8)
	// path(K, X, Y) iff there is a path of length at most K from X to Y.
	cases := []struct {
		k        int
		from, to string
		want     bool
	}{
		{0, "a", "a", true},
		{0, "a", "b", false},
		{1, "a", "b", true},
		{2, "a", "c", true},
		{2, "a", "d", false},
		{3, "a", "d", true},
		{4, "a", "a", true},
		{8, "b", "b", true},
		{2, "b", "a", false},
		{3, "b", "a", true},
	}
	for _, c := range cases {
		if got := e.Holds(tfact("path", c.k, c.from, c.to)); got != c.want {
			t.Errorf("path(%d, %s, %s) = %v, want %v", c.k, c.from, c.to, got, c.want)
		}
	}
	// Inflationary: once true, true forever.
	for k := 4; k <= 8; k++ {
		if !e.Holds(tfact("path", k, "a", "d")) {
			t.Errorf("path(%d, a, d) lost", k)
		}
	}
}

func TestNonTemporalFeedback(t *testing.T) {
	// seen(X) is derived from a temporal fact at time 3 and feeds back
	// into states 1 and 2: the outer fixpoint must re-sweep.
	src := `
p(T+1, X) :- p(T, X).
seen(X) :- p(T, X).
q(T+1, X) :- q(T, X), seen(X).
p(3, a).
q(0, a).
`
	e := mustEval(t, src)
	e.EnsureWindow(6)
	for i := 0; i <= 6; i++ {
		if !e.Holds(tfact("q", i, "a")) {
			t.Errorf("q(%d, a) missing", i)
		}
	}
	if !e.Store().Has(ntfact("seen", "a")) {
		t.Error("seen(a) missing")
	}
	if e.Stats().Sweeps == 0 {
		t.Error("expected at least one re-sweep")
	}
}

func TestPureDatalogRules(t *testing.T) {
	src := `
tc(X, Y) :- edge(X, Y).
tc(X, Z) :- edge(X, Y), tc(Y, Z).
edge(a, b). edge(b, c). edge(c, d).
`
	e := mustEval(t, src)
	e.EnsureWindow(0)
	want := [][2]string{{"a", "b"}, {"a", "c"}, {"a", "d"}, {"b", "c"}, {"b", "d"}, {"c", "d"}}
	for _, w := range want {
		if !e.Store().Has(ntfact("tc", w[0], w[1])) {
			t.Errorf("tc(%s, %s) missing", w[0], w[1])
		}
	}
	if e.Store().Has(ntfact("tc", "b", "a")) {
		t.Error("tc(b, a) wrongly derived")
	}
	tc := e.Store().syms.predIDs[predKey{name: "tc", arity: 2}]
	if got := e.Store().nt(tc).size(); got != len(want) {
		t.Errorf("|tc| = %d, want %d", got, len(want))
	}
}

func TestIncrementalWindow(t *testing.T) {
	e := mustEval(t, "even(T+2) :- even(T).\neven(0).")
	e.EnsureWindow(4)
	if e.Window() != 4 {
		t.Fatalf("Window = %d", e.Window())
	}
	derived4 := e.Stats().Derived
	e.EnsureWindow(10)
	if !e.Holds(tfact("even", 10)) {
		t.Error("even(10) missing after extension")
	}
	if e.Stats().Derived <= derived4 {
		t.Error("extension derived nothing")
	}
	// Idempotent.
	d := e.Stats().Derived
	e.EnsureWindow(10)
	if e.Stats().Derived != d {
		t.Error("EnsureWindow re-derived facts")
	}
}

func TestDeepRuleDirect(t *testing.T) {
	// The engine handles semi-normal (depth > 1) rules without
	// normalization.
	e := mustEval(t, "p(T+5) :- p(T).\np(2).")
	e.EnsureWindow(20)
	for i := 0; i <= 20; i++ {
		want := i >= 2 && (i-2)%5 == 0
		if got := e.Holds(tfact("p", i)); got != want {
			t.Errorf("p(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestUnanchoredRuleSemantics(t *testing.T) {
	// p(T+3) :- q(T+1) is NOT equivalent to p(T+2) :- q(T): the temporal
	// variable ranges over 0,1,2,..., so the rule uses q at times >= 1
	// only and derives p at times >= 3. With q true at the even numbers,
	// the usable q facts are at 2, 4, ... and p holds at 4, 6, ... —
	// in particular not at 2, which the (incorrect) shifted reading would
	// derive from q(0).
	e := mustEval(t, "p(T+3) :- q(T+1).\nq(T+2) :- q(T).\nq(0).")
	e.EnsureWindow(12)
	for i := 0; i <= 12; i++ {
		wantQ := i%2 == 0
		if got := e.Holds(tfact("q", i)); got != wantQ {
			t.Errorf("q(%d) = %v, want %v", i, got, wantQ)
		}
		wantP := i >= 4 && i%2 == 0
		if got := e.Holds(tfact("p", i)); got != wantP {
			t.Errorf("p(%d) = %v, want %v", i, got, wantP)
		}
	}
}

func TestEnablingTimeOfDeepHeads(t *testing.T) {
	// r fires only from its head depth on: r(T+5) :- s(T+5) uses s at
	// times >= 5 even though the body literal is at the same depth as the
	// head.
	e := mustEval(t, "r(T+5) :- s(T+5).\ns(T+1) :- s(T).\ns(2).")
	e.EnsureWindow(10)
	for i := 0; i <= 10; i++ {
		wantS := i >= 2
		if got := e.Holds(tfact("s", i)); got != wantS {
			t.Errorf("s(%d) = %v, want %v", i, got, wantS)
		}
		wantR := i >= 5
		if got := e.Holds(tfact("r", i)); got != wantR {
			t.Errorf("r(%d) = %v, want %v", i, got, wantR)
		}
	}
}

func TestSameStateDependency(t *testing.T) {
	// b at time t depends on a at time t (derived in the same state), and
	// c on b: the local fixpoint must iterate.
	src := `
a(T+1, X) :- a(T, X).
b(T+1, X) :- a(T+1, X), always(X).
c(T+1, X) :- b(T+1, X), always(X).
a(0, k).
always(k).
`
	e := mustEval(t, src)
	e.EnsureWindow(3)
	for i := 1; i <= 3; i++ {
		if !e.Holds(tfact("b", i, "k")) || !e.Holds(tfact("c", i, "k")) {
			t.Errorf("b/c missing at %d", i)
		}
	}
}

func TestNewRejectsInvalid(t *testing.T) {
	prog, db := mustTDD(t, "p(T, X) :- q(T+1, X).\nq(0, a).")
	if _, err := New(prog, db); err == nil {
		t.Error("non-forward program accepted")
	}
	prog2, db2 := mustTDD(t, "p(T+1, X, Y) :- q(T, X).\nq(0, a).")
	if _, err := New(prog2, db2); err == nil {
		t.Error("non-range-restricted program accepted")
	}
}

func TestStoreStateKey(t *testing.T) {
	e := mustEval(t, "even(T+2) :- even(T).\nodd(T+2) :- odd(T).\neven(0).\nodd(1).")
	e.EnsureWindow(9)
	s := e.Store()
	if s.StateKey(0) == s.StateKey(1) {
		t.Error("states 0 and 1 should differ")
	}
	if s.StateKey(2) != s.StateKey(4) {
		t.Error("states 2 and 4 should be equal")
	}
	if s.StateFingerprint(3) != s.StateFingerprint(5) {
		t.Error("fingerprints of equal states differ")
	}
	if s.StateFingerprint(2) == s.StateFingerprint(3) {
		t.Error("fingerprints of the even and odd states collide")
	}
	if !s.StateEqual(2, 4) || s.StateEqual(2, 3) || s.StateEqual(0, 1) {
		t.Error("StateEqual disagrees with StateKey")
	}
	if s.StateKey(2) == s.StateKey(3) {
		t.Error("even and odd states equal")
	}
}

// TestClassesConfirmCollisions: a class is never assigned by
// fingerprint alone. The states {a} {b} {b} {a} {c} have classes 0 1 1 0
// 2; with every shard made to carry state 0's fingerprint, so that all
// five states collide, classing them again must assign the same: each
// collision is confirmed or refuted by StateEqual, and a refuted one
// finds its equal class among all the others.
func TestClassesConfirmCollisions(t *testing.T) {
	e := mustEval(t, "p(0, a). p(1, b). p(2, b). p(3, a). p(4, c).")
	e.EnsureWindow(4)
	want := []uint32{0, 1, 1, 0, 2}
	if got := e.Classes(); !slices.Equal(got, want) {
		t.Fatalf("classes %v, want %v", got, want)
	}
	s := e.store
	pred, _ := s.PredID("p", 1, true)
	fp := s.at(pred, 0).fp
	for tm := 1; tm <= 4; tm++ {
		s.at(pred, tm).fp = fp
	}
	if s.StateFingerprint(4) != s.StateFingerprint(0) {
		t.Fatal("the fingerprints were not forced to collide")
	}
	s.classes = nil
	if got := e.Classes(); !slices.Equal(got, want) {
		t.Errorf("classes under colliding fingerprints %v, want %v", got, want)
	}
	if _, first := s.StateClasses(5); !slices.Equal(first, []uint32{0, 1, 4}) {
		t.Errorf("first members %v, want [0 1 4]", first)
	}
}

func TestStoreAccessors(t *testing.T) {
	e := mustEval(t, "even(T+2) :- even(T).\neven(0).\nlabel(x).")
	e.EnsureWindow(6)
	s := e.Store()
	if n := s.StateSize(4); n != 1 {
		t.Errorf("StateSize(4) = %d", n)
	}
	if n := s.StateSize(5); n != 0 {
		t.Errorf("StateSize(5) = %d", n)
	}
	st := s.State(4)
	if len(st) != 1 || st[0].Pred != "even" || st[0].Temporal {
		t.Errorf("State(4) = %v", st)
	}
	snap := s.Snapshot(4)
	if len(snap) != 1 || !snap[0].Temporal || snap[0].Time != 4 {
		t.Errorf("Snapshot(4) = %v", snap)
	}
	nt := s.NonTemporalFacts()
	if len(nt) != 1 || nt[0].Pred != "label" {
		t.Errorf("NonTemporalFacts = %v", nt)
	}
	if s.NonTemporalCount() != 1 {
		t.Errorf("NonTemporalCount = %d", s.NonTemporalCount())
	}
	consts := s.Constants()
	if len(consts) != 1 || consts[0] != "x" {
		t.Errorf("Constants = %v", consts)
	}
}

func TestStatsAccounting(t *testing.T) {
	e := mustEval(t, "even(T+2) :- even(T).\neven(0).")
	e.EnsureWindow(10)
	st := e.Stats()
	if st.Derived != 5 { // even(2,4,6,8,10)
		t.Errorf("Derived = %d, want 5", st.Derived)
	}
	if st.Firings < st.Derived {
		t.Errorf("Firings = %d < Derived = %d", st.Firings, st.Derived)
	}
}
