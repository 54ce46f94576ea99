package engine

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"tdd/internal/ast"
	"tdd/internal/obs"
	"tdd/internal/workload"
)

// profileEval builds an evaluator with the join profiler enabled.
func profileEval(t *testing.T, src string) *Evaluator {
	t.Helper()
	e := buildEval(t, src)
	e.EnableProfile()
	return e
}

// pathGraph is a join-heavy reachability workload: path(K, Y, Z) joins
// against a growing relation, so the profiler has real scan volume to
// attribute.
func pathGraph(n int) string {
	src := `
path(K, X, X) :- node(X), null(K).
path(K+1, X, Z) :- edge(X, Y), path(K, Y, Z).
null(0).
`
	for i := 0; i < n; i++ {
		src += fmt.Sprintf("node(n%d).\n", i)
		if i+1 < n {
			src += fmt.Sprintf("edge(n%d, n%d).\n", i, i+1)
		}
		if i+5 < n {
			src += fmt.Sprintf("edge(n%d, n%d).\n", i, i+5)
		}
	}
	return src
}

// TestProfileCounts checks the snapshot's internal consistency: matched
// never exceeds scanned, selectivity is a ratio, stratum rows sum to the
// literal totals, per-literal times reconcile with the rule total, and
// the cardinality tables cover the store.
func TestProfileCounts(t *testing.T) {
	e := profileEval(t, pathGraph(20))
	e.EnsureWindow(20)
	p := e.ProfileSnapshot()
	if p == nil {
		t.Fatal("ProfileSnapshot returned nil with profiling enabled")
	}
	if p.Window != 20 {
		t.Errorf("Window = %d, want 20", p.Window)
	}
	if len(p.Rules) == 0 {
		t.Fatal("no rules profiled")
	}
	for _, r := range p.Rules {
		var litUs int64
		for _, l := range r.Literals {
			if l.Matched > l.Scanned {
				t.Errorf("%s[%d]: matched %d > scanned %d", r.Rule, l.Pos, l.Matched, l.Scanned)
			}
			if l.Selectivity < 0 || l.Selectivity > 1 {
				t.Errorf("%s[%d]: selectivity %v out of range", r.Rule, l.Pos, l.Selectivity)
			}
			var ss, sm int64
			for _, s := range l.Strata {
				ss += s.Scanned
				sm += s.Matched
			}
			if ss != l.Scanned || sm != l.Matched {
				t.Errorf("%s[%d]: strata sum (%d,%d) != totals (%d,%d)", r.Rule, l.Pos, ss, sm, l.Scanned, l.Matched)
			}
			litUs += l.Us
		}
		if litUs != r.Us {
			t.Errorf("%s: per-literal times sum to %d, rule total %d", r.Rule, litUs, r.Us)
		}
	}
	if p.Dominant == nil {
		t.Fatal("no dominant join identified")
	}
	if p.Dominant.Pos == 0 {
		t.Errorf("dominant should be a join literal (pos > 0), got pos 0: %+v", p.Dominant)
	}
	var preds []string
	for _, c := range p.Cardinalities {
		preds = append(preds, c.Pred)
		if c.Facts <= 0 {
			t.Errorf("cardinality for %s is %d", c.Pred, c.Facts)
		}
	}
	if !sort.StringsAreSorted(preds) {
		t.Errorf("cardinalities not sorted: %v", preds)
	}
	want := map[string]bool{"path": true, "node": true, "edge": true, "null": true}
	for _, p := range preds {
		delete(want, p)
	}
	if len(want) != 0 {
		t.Errorf("cardinality tables missing predicates: %v (got %v)", want, preds)
	}
}

// TestProfileDisabled checks the nil-receiver discipline: no profile, no
// snapshot, and evaluation untouched.
func TestProfileDisabled(t *testing.T) {
	e := buildEval(t, pathGraph(10))
	e.EnsureWindow(10)
	if e.Profile() != nil {
		t.Error("profile should default to nil")
	}
	if p := e.ProfileSnapshot(); p != nil {
		t.Errorf("ProfileSnapshot = %+v, want nil when disabled", p)
	}
}

// TestProfileCloneShared checks a clone keeps writing the same profile:
// the Assert copy-on-write path must accumulate into the database's
// lifetime profile, not fork it.
func TestProfileCloneShared(t *testing.T) {
	e := profileEval(t, "even(T+2) :- even(T).\neven(0).\n")
	e.EnsureWindow(10)
	before := e.ProfileSnapshot().Rules[0].Literals[0].Scanned
	c := e.Clone()
	f := ast.Fact{Pred: "even", Temporal: true, Time: 1}
	if _, err := c.InsertBase(f); err != nil {
		t.Fatal(err)
	}
	if c.PropagateDelta([]ast.Fact{f}) == 0 {
		t.Fatal("delta propagation derived nothing")
	}
	after := e.ProfileSnapshot().Rules[0].Literals[0].Scanned
	if after <= before {
		t.Errorf("clone's delta work not visible in shared profile: scanned %d -> %d", before, after)
	}
}

// TestProfileConcurrentClones runs sibling clones' delta propagations,
// each several laps long, beside snapshots of their parent. An entry
// yields the shared profile's lock between laps, so snapshots and the
// siblings' laps interleave; under -race nothing is shared
// unsynchronized, and the parent's report ends up holding every clone's
// scans.
func TestProfileConcurrentClones(t *testing.T) {
	e := profileEval(t, "even(T+2) :- even(T).\neven(0).\n")
	e.EnsureWindow(4 * lapEvery)
	scanned := func() int64 { return e.ProfileSnapshot().Rules[0].Literals[0].Scanned }
	f := ast.Fact{Pred: "even", Temporal: true, Time: 1}
	propagate := func(c *Evaluator) {
		if _, err := c.InsertBase(f); err != nil {
			t.Error(err)
		}
		c.PropagateDelta([]ast.Fact{f})
	}
	before := scanned()
	propagate(e.Clone())
	one := scanned() - before
	if one == 0 {
		t.Fatal("a clone's delta propagation scanned nothing")
	}
	const n = 4
	clones := make([]*Evaluator, n)
	for i := range clones {
		clones[i] = e.Clone()
	}
	var wg sync.WaitGroup
	for _, c := range clones {
		wg.Add(1)
		go func(c *Evaluator) {
			defer wg.Done()
			propagate(c)
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			scanned()
		}
	}()
	wg.Wait()
	if got, want := scanned(), before+(n+1)*one; got != want {
		t.Errorf("parent's profile scanned %d after %d clone propagations of %d each from %d, want %d", got, n+1, one, before, want)
	}
}

// TestProfileSumsToFixpoint checks the acceptance criterion: the
// EXPLAIN ANALYZE per-literal times sum to within 10% of the measured
// fixpoint phase. Per-literal times partition the per-rule measured
// join time exactly, so this is really a bound on the fixpoint work
// spent outside fireRule (planning, state loops, stats, span
// bookkeeping) — about 95 µs on this program whatever the store does, so
// the instance is sized for the joins to dwarf it (on interned rows the
// 24-resort instance this test started with closes in ~0.6 ms).
func TestProfileSumsToFixpoint(t *testing.T) {
	rules, facts := workload.Ski(workload.SkiParams{YearLen: 50, Resorts: 96, Planes: 384, Holidays: 5, Seed: 42})
	e := profileEval(t, rules+facts)
	tr := obs.New()
	e.SetTrace(tr)
	e.EnsureWindow(200)
	var fixpointUs int64
	for _, ph := range tr.Snapshot().Phases {
		if ph.Name == "fixpoint" {
			fixpointUs += ph.Us
		}
	}
	if fixpointUs == 0 {
		t.Fatal("no fixpoint phase recorded")
	}
	p := e.ProfileSnapshot()
	var litUs int64
	for _, r := range p.Rules {
		for _, l := range r.Literals {
			litUs += l.Us
		}
	}
	ratio := float64(litUs) / float64(fixpointUs)
	t.Logf("per-literal sum %dµs vs fixpoint %dµs (ratio %.3f)", litUs, fixpointUs, ratio)
	if ratio < 0.90 || ratio > 1.02 {
		t.Errorf("per-literal sum %dµs not within 10%% of fixpoint %dµs (ratio %.3f)", litUs, fixpointUs, ratio)
	}
}
