package engine

import (
	"testing"

	"tdd/internal/ast"
	"tdd/internal/obs"
	"tdd/internal/parser"
)

func buildEval(t *testing.T, src string) *Evaluator {
	t.Helper()
	prog, db, err := parser.ParseUnit(src)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(prog, db)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// spans collects every span named name, anywhere in the trace, in start
// order.
func spans(tr *obs.Trace, name string) []obs.SpanJSON {
	var out []obs.SpanJSON
	var walk func([]obs.SpanJSON)
	walk = func(ps []obs.SpanJSON) {
		for _, p := range ps {
			if p.Name == name {
				out = append(out, p)
			}
			walk(p.Children)
		}
	}
	walk(tr.Snapshot().Phases)
	return out
}

// TestStatsExtension checks that the per-rule counters reconcile with the
// aggregate counters, and that the per-sweep and store-size detail the
// spans carry reconciles with both: one sweep span (with its added count)
// per counted sweep, and a fixpoint store_len equal to the store's size.
func TestStatsExtension(t *testing.T) {
	e := buildEval(t, `
even(T+2) :- even(T).
mark(X) :- even(T), tag(X).
even(0).
tag(a).
`)
	tr := obs.New()
	e.SetTrace(tr)
	e.EnsureWindow(10)
	st := e.Stats()
	if len(st.Rules) != 2 {
		t.Fatalf("Rules = %d entries, want 2", len(st.Rules))
	}
	var firings, derived int
	for _, r := range st.Rules {
		if r.Rule == "" {
			t.Error("rule source missing in RuleStat")
		}
		firings += r.Firings
		derived += r.Derived
	}
	if firings != st.Firings {
		t.Errorf("per-rule firings sum %d != aggregate %d", firings, st.Firings)
	}
	if derived != st.Derived {
		t.Errorf("per-rule derived sum %d != aggregate %d", derived, st.Derived)
	}
	sweeps := spans(tr, "sweep")
	if st.Sweeps == 0 || len(sweeps) != st.Sweeps {
		t.Errorf("%d sweep spans, Sweeps = %d (want equal and positive)", len(sweeps), st.Sweeps)
	}
	for i, sw := range sweeps {
		if _, ok := sw.Counters["added"]; !ok {
			t.Errorf("sweep span %d has no added counter: %v", i, sw.Counters)
		}
	}
	fx := spans(tr, "fixpoint")
	if len(fx) != 1 || fx[0].Counters["store_len"] != int64(e.Store().Len()) {
		t.Errorf("fixpoint spans %+v should be one span ending at store size %d", fx, e.Store().Len())
	}
}

// TestStatsSnapshotIsolated checks the Stats getter deep-copies: the
// evaluator keeps counting without mutating earlier snapshots, and a
// clone's work is not booked against the original.
func TestStatsSnapshotIsolated(t *testing.T) {
	e := buildEval(t, "even(T+2) :- even(T).\neven(0).\n")
	e.EnsureWindow(4)
	before := e.Stats()
	ruleFirings := before.Rules[0].Firings
	e.EnsureWindow(20)
	if before.Rules[0].Firings != ruleFirings {
		t.Error("snapshot mutated by later evaluation")
	}
	orig := e.Stats()
	clone := e.Clone()
	if _, err := clone.InsertBase(ast.Fact{Pred: "even", Temporal: true, Time: 1}); err != nil {
		t.Fatal(err)
	}
	if clone.PropagateDelta([]ast.Fact{{Pred: "even", Temporal: true, Time: 1}}) == 0 {
		t.Fatal("delta propagation derived nothing")
	}
	if got := e.Stats(); got.Derived != orig.Derived || got.Rules[0] != orig.Rules[0] {
		t.Errorf("clone's delta work leaked into the original: %+v, was %+v", got, orig)
	}
}

// TestDeltaSpanDerived checks the delta-propagate span reports what
// PropagateDelta returned, and that the aggregate counter moved by it.
func TestDeltaSpanDerived(t *testing.T) {
	e := buildEval(t, "even(T+2) :- even(T).\neven(0).\n")
	e.EnsureWindow(6)
	f := ast.Fact{Pred: "even", Temporal: true, Time: 1}
	if _, err := e.InsertBase(f); err != nil {
		t.Fatal(err)
	}
	tr := obs.New()
	e.SetTrace(tr)
	before := e.Stats().Derived
	n := e.PropagateDelta([]ast.Fact{f})
	if n == 0 {
		t.Fatal("delta propagation derived nothing")
	}
	dp := spans(tr, "delta-propagate")
	if len(dp) != 1 || dp[0].Counters["derived"] != int64(n) {
		t.Errorf("delta-propagate spans %+v, PropagateDelta returned %d", dp, n)
	}
	if got := e.Stats().Derived - before; got != n {
		t.Errorf("Derived moved by %d, PropagateDelta returned %d", got, n)
	}
}

// TestFixpointSpans checks the engine emits fixpoint spans (with window
// and firing counters) into an attached trace, and none when detached.
func TestFixpointSpans(t *testing.T) {
	e := buildEval(t, "even(T+2) :- even(T).\neven(0).\n")
	tr := obs.New()
	e.SetTrace(tr)
	e.EnsureWindow(8)
	snap := tr.Snapshot()
	if len(snap.Phases) != 1 || snap.Phases[0].Name != "fixpoint" {
		t.Fatalf("phases = %+v, want one fixpoint span", snap.Phases)
	}
	fx := snap.Phases[0]
	if fx.Counters["window"] != 8 {
		t.Errorf("window counter = %d, want 8", fx.Counters["window"])
	}
	if fx.Counters["firings"] == 0 {
		t.Error("firings counter missing")
	}

	e2 := buildEval(t, "even(T+2) :- even(T).\neven(0).\n")
	e2.EnsureWindow(8)
	if e2.Trace() != nil {
		t.Error("trace should default to nil")
	}
}
