package core

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"tdd/internal/ast"
	"tdd/internal/lint"
	"tdd/internal/obs"
	"tdd/internal/parser"
	"tdd/internal/period"
	"tdd/internal/spec"
)

func mustBT(t *testing.T, src string, opts ...Option) *BT {
	t.Helper()
	prog, db, err := parser.ParseUnit(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	b, err := New(prog, db, opts...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return b
}

func (b *BT) mustQuery(t *testing.T, src string) ast.Query {
	t.Helper()
	q, err := parser.ParseQuery(src, b.Preds())
	if err != nil {
		t.Fatalf("ParseQuery(%q): %v", src, err)
	}
	return q
}

const skiSrc = `
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

func tfact(pred string, time int, args ...string) ast.Fact {
	return ast.Fact{Pred: pred, Temporal: true, Time: time, Args: args}
}

func TestAskFactShallowAndDeep(t *testing.T) {
	b := mustBT(t, skiSrc)
	// Deep query forces the specification path.
	got, err := b.AskFact(tfact("plane", 1000002, "hunter"))
	if err != nil {
		t.Fatal(err)
	}
	// 1000002 mod 10 = 2, a winter day reachable from the cycle.
	want, err := b.AskFact(tfact("plane", 22, "hunter"))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("deep/shallow disagreement: plane(1000002)=%v plane(22)=%v", got, want)
	}
	// Non-temporal query.
	got, err = b.AskFact(ast.Fact{Pred: "resort", Args: []string{"hunter"}})
	if err != nil || !got {
		t.Errorf("resort(hunter) = %v, %v", got, err)
	}
}

func TestAskClosedQueries(t *testing.T) {
	b := mustBT(t, skiSrc)
	cases := map[string]bool{
		"plane(0, hunter)":                             true,
		"plane(3, hunter)":                             false,
		"exists T (plane(T, hunter) & holiday(T))":     true,
		"forall X (!resort(X) | exists T plane(T, X))": true,
	}
	for src, want := range cases {
		got, err := b.Ask(b.mustQuery(t, src))
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if got != want {
			t.Errorf("%q = %v, want %v", src, got, want)
		}
	}
}

func TestAnswers(t *testing.T) {
	b := mustBT(t, skiSrc)
	ans, err := b.Answers(b.mustQuery(t, "plane(T, hunter) & winter(T)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) == 0 {
		t.Fatal("no answers")
	}
	for _, a := range ans {
		if a.Temporal["T"]%10 > 3 {
			t.Errorf("answer %v is not a winter day", a)
		}
	}
}

func TestPeriodAndWork(t *testing.T) {
	b := mustBT(t, skiSrc)
	p, err := b.Period()
	if err != nil {
		t.Fatal(err)
	}
	if p.P != 10 {
		t.Errorf("period = %v, want p=10", p)
	}
	w, err := b.Work()
	if err != nil {
		t.Fatal(err)
	}
	if w.Window < p.Base+p.P || w.Derived == 0 || w.Facts == 0 {
		t.Errorf("work = %+v", w)
	}
	if w.String() == "" {
		t.Error("empty work summary")
	}
}

func TestMaxWindowBudget(t *testing.T) {
	// lcm(2,3,5,7) = 210 > 64: the budgeted processor reports failure
	// instead of running away.
	src := `
a(T+2) :- a(T).
b(T+3) :- b(T).
c(T+5) :- c(T).
d(T+7) :- d(T).
a(0). b(0). c(0). d(0).
`
	b := mustBT(t, src, WithMaxWindow(64))
	if _, err := b.Period(); err == nil {
		t.Error("expected window-budget error")
	}
	b2 := mustBT(t, src)
	p, err := b2.Period()
	if err != nil {
		t.Fatal(err)
	}
	if p.P != 210 {
		t.Errorf("period = %v, want p=210", p)
	}
	// A failed certification leaves its window evaluated; an Assert on the
	// still-cold processor must propagate through it. Here p(1) turns
	// period 2, one state over the budget, into period 1, within it.
	c := mustBT(t, "p(T+2) :- p(T).\np(0).\nz(11).", WithMaxWindow(15))
	if _, err := c.Period(); err == nil {
		t.Fatal("expected window-budget error")
	}
	c2, _, err := c.Assert([]ast.Fact{tfact("p", 1)})
	if err != nil {
		t.Fatal(err)
	}
	if p, err := c2.Period(); err != nil || p != (period.Period{Base: 12, P: 1}) {
		t.Errorf("after Assert: %v, %v; a fresh open certifies (b=12, p=1)", p, err)
	}
}

func TestSpecificationCached(t *testing.T) {
	b := mustBT(t, "even(T+2) :- even(T).\neven(0).")
	s1, err := b.Specification()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := b.Specification()
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Error("specification not cached")
	}
	if s1.Period != (period.Period{Base: 1, P: 2}) {
		t.Errorf("period = %v", s1.Period)
	}
}

func TestEvenPaperQueries(t *testing.T) {
	// The worked example of Section 3.3.
	b := mustBT(t, "even(T+2) :- even(T).\neven(0).")
	for _, c := range []struct {
		time int
		want bool
	}{{4, true}, {3, false}, {0, true}, {1, false}, {1 << 19, true}} {
		got, err := b.AskFact(tfact("even", c.time))
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("even(%d) = %v, want %v", c.time, got, c.want)
		}
	}
}

func TestExplainThroughBT(t *testing.T) {
	b := mustBT(t, skiSrc, WithProvenance())
	out, err := b.Explain(tfact("plane", 2, "hunter"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "[database fact]") || !strings.Contains(out, "[by plane(T+2, X)") {
		t.Errorf("tree:\n%s", out)
	}
	// Deep fact goes through the rewrite note.
	deep, err := b.Explain(tfact("plane", 1000002, "hunter"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(deep, "rewrites to time") {
		t.Errorf("deep tree:\n%s", deep)
	}
	if b.Evaluator() == nil {
		t.Error("Evaluator accessor nil")
	}
}

// TestWarmReadsTakeNoLock pins the lock-free warm path: once the
// specification is published, Specification, Ask, AskFact, Period,
// EngineStats, Lint, Work, Explain and ProfileSnapshot complete while
// another goroutine holds mu.
func TestWarmReadsTakeNoLock(t *testing.T) {
	b := mustBT(t, skiSrc, WithProvenance(), WithProfile())
	want, err := b.Specification()
	if err != nil {
		t.Fatal(err)
	}
	q := b.mustQuery(t, "plane(1000002, hunter)")

	b.mu.Lock()
	defer b.mu.Unlock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if s, err := b.Specification(); err != nil || s != want {
			t.Errorf("warm Specification = (%p, %v), want (%p, nil)", s, err, want)
		}
		if ok, err := b.Ask(q); err != nil || !ok {
			t.Errorf("warm Ask = (%v, %v), want (true, nil)", ok, err)
		}
		f := ast.Fact{Pred: "plane", Temporal: true, Time: 1000002, Args: []string{"hunter"}}
		if ok, err := b.AskFact(f); err != nil || !ok {
			t.Errorf("warm AskFact = (%v, %v), want (true, nil)", ok, err)
		}
		if p, err := b.Period(); err != nil || p != want.Period {
			t.Errorf("warm Period = (%v, %v), want (%v, nil)", p, err, want.Period)
		}
		if st := b.EngineStats(); st.Derived == 0 || len(st.Rules) == 0 {
			t.Errorf("warm EngineStats = %+v, want the certification's counters and rule table", st)
		}
		if res := b.Lint(""); res.Diagnostics == nil {
			t.Error("warm Lint returned no result")
		}
		if c, err := b.Work(); err != nil || c.Period != want.Period {
			t.Errorf("warm Work = (%v, %v), want period %v", c, err, want.Period)
		}
		if out, err := b.Explain(f, 2); err != nil || !strings.Contains(out, "plane") {
			t.Errorf("warm Explain = (%q, %v), want a derivation tree", out, err)
		}
		if p := b.ProfileSnapshot(); p == nil || len(p.Rules) == 0 {
			t.Errorf("warm ProfileSnapshot = %+v, want the certification's join profile", p)
		}
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("warm reads blocked on mu")
	}
}

// TestEngineStatsDuringAssert is the race detector's view of the claim
// EngineStats and ProfileSnapshot rest on: an ingest on a certified BT
// writes only to the clone it returns, so unlocked reads of the parent's
// counters are safe, and neither its counts nor its join profile move
// while eight Asserts run.
func TestEngineStatsDuringAssert(t *testing.T) {
	b := mustBT(t, skiSrc, WithProfile())
	if _, err := b.Specification(); err != nil {
		t.Fatal(err)
	}
	want, prof := b.EngineStats().Derived, b.ProfileSnapshot()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 8; i++ {
			f := ast.Fact{Pred: "plane", Temporal: true, Time: i, Args: []string{"hunter"}}
			if _, _, err := b.Assert([]ast.Fact{f}); err != nil {
				t.Error(err)
			}
		}
	}()
	for i := 0; i < 64; i++ {
		if got := b.EngineStats().Derived; got != want {
			t.Fatalf("parent's derived count moved under an ingest: %d, then %d", want, got)
		}
		if got := b.ProfileSnapshot(); !reflect.DeepEqual(got, prof) {
			t.Fatalf("parent's join profile moved under an ingest:\n%s\nthen\n%s", prof.Tree(), got.Tree())
		}
	}
	<-done
	if got := b.ProfileSnapshot(); !reflect.DeepEqual(got, prof) {
		t.Fatalf("parent's join profile moved after eight ingests:\n%s\nthen\n%s", prof.Tree(), got.Tree())
	}
}

// TestColdCertifiesOnce: cold callers still serialise on mu — none gets
// past it while it is held — and of 16 concurrent ones exactly one
// certifies; all share the published specification.
func TestColdCertifiesOnce(t *testing.T) {
	tr := obs.New()
	b := mustBT(t, skiSrc, WithTrace(tr))
	const callers = 16
	specs := make(chan *spec.Spec, callers)
	b.mu.Lock()
	for i := 0; i < callers; i++ {
		go func() {
			s, err := b.Specification()
			if err != nil {
				t.Error(err)
			}
			specs <- s
		}()
	}
	select {
	case <-specs:
		b.mu.Unlock()
		t.Fatal("cold Specification returned while mu was held")
	case <-time.After(20 * time.Millisecond):
	}
	b.mu.Unlock()
	first := <-specs
	for i := 1; i < callers; i++ {
		if s := <-specs; s != first {
			t.Fatalf("caller %d got specification %p, want the shared %p", i, s, first)
		}
	}
	if n := countSpans(tr.Snapshot().Phases, "certify-period"); n != 1 {
		t.Fatalf("certified %d times under %d concurrent cold callers, want 1", n, callers)
	}
}

func countSpans(spans []obs.SpanJSON, name string) int {
	n := 0
	for _, sp := range spans {
		if sp.Name == name {
			n++
		}
		n += countSpans(sp.Children, name)
	}
	return n
}

// TestForkReusesRuleAnalysis pins the per-program rule analysis: every BT
// that Assert derives shares its parent's by pointer; a traced
// registration plus N linted ingests classifies the rules once; and a
// fork, whose evaluator inherits its parent's firing counts, sees every
// rule fired already, so linting it does not move its evaluated window.
func TestForkReusesRuleAnalysis(t *testing.T) {
	calls := 0
	defer func(f func(*ast.Program) *lint.Rules) { analyzeRules = f }(analyzeRules)
	analyzeRules = func(p *ast.Program) *lint.Rules {
		calls++
		return lint.AnalyzeRules(p)
	}
	b := mustBT(t, skiSrc, WithTrace(obs.New()))
	if _, err := b.Specification(); err != nil {
		t.Fatal(err)
	}
	if res := b.Lint(skiSrc); res.Warnings() != 0 {
		t.Fatalf("the ski model lints with warnings:\n%s", res.Format(""))
	}
	allFired := func(b *BT) bool {
		for i := range b.eval.Program().Rules {
			if b.eval.RuleFirings(i) == 0 {
				return false
			}
		}
		return true
	}
	if !allFired(b) {
		t.Fatalf("registration left rules unfired: %+v", b.eval.Stats().Rules)
	}
	for i := 0; i < 4; i++ {
		nb, _, err := b.Assert([]ast.Fact{tfact("holiday", 13+2*i), tfact("plane", 5+i, "hunter")})
		if err != nil {
			t.Fatal(err)
		}
		if nb.rules() != b.rules() {
			t.Fatalf("ingest %d: the fork has its own rule analysis", i)
		}
		if !allFired(nb) {
			t.Fatalf("ingest %d: the fork lost its parent's firing counts: %+v", i, nb.eval.Stats().Rules)
		}
		w := nb.Evaluator().Window()
		if res := nb.Lint(skiSrc); res.Warnings() != 0 {
			t.Fatalf("ingest %d: lint warnings:\n%s", i, res.Format(""))
		}
		if got := nb.Evaluator().Window(); got != w {
			t.Fatalf("ingest %d: linting a fork whose rules all fire grew the window %d -> %d", i, w, got)
		}
		b = nb
	}
	if calls != 1 {
		t.Fatalf("one registration and 4 ingests analyzed the rules %d times, want 1", calls)
	}
}

// TestForksLintConcurrently lints a BT and its forks from several
// goroutines at once. They share one rule analysis, built by whichever
// gets there first, and each reads the firing counts of its own
// evaluator, which Assert cloned under the parent's lock; run with
// -race.
func TestForksLintConcurrently(t *testing.T) {
	b := mustBT(t, skiSrc)
	forks := make([]*BT, 8)
	var wg sync.WaitGroup
	for i := range forks {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			nb, _, err := b.Assert([]ast.Fact{tfact("holiday", 13+2*i)})
			if err != nil {
				t.Error(err)
				return
			}
			if res := nb.Lint(""); res.Warnings() != 0 {
				t.Errorf("fork %d: lint warnings:\n%s", i, res.Format(""))
			}
			if res := b.Lint(""); res.Warnings() != 0 {
				t.Errorf("parent: lint warnings:\n%s", res.Format(""))
			}
			forks[i] = nb
		}(i)
	}
	wg.Wait()
	for i, nb := range forks {
		if nb != nil && nb.rules() != b.rules() {
			t.Errorf("fork %d has its own rule analysis", i)
		}
	}
}
