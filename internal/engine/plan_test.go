package engine

import (
	"fmt"
	"sync"
	"testing"

	"tdd/internal/ast"
)

const planSrc = `
h(T, X, Y) :- big(X, Y), small(X), p(T, Y).
p(T+1, Y) :- p(T, X), big(X, Y).
nt(X) :- small(X), big(X, Y).
p(0, a0).
small(a0).
big(a0, a1).
big(a0, a2).
big(a1, a0).
big(a2, a1).
big(a3, a3).
`

// Join-order determinism (satellite of the indexed-join tentpole): the
// planner's choices are a pure function of the compiled rules and the
// store's cardinality snapshot. Twenty independent builds of the same
// program over the same database must produce identical plans.
func TestPlanFingerprintStableAcrossRuns(t *testing.T) {
	want := ""
	for i := 0; i < 20; i++ {
		e := mustEval(t, planSrc)
		e.EnsureWindow(8)
		fp := e.PlanFingerprint()
		if i == 0 {
			want = fp
			continue
		}
		if fp != want {
			t.Fatalf("run %d: plan fingerprint %s != first run %s\nplans:\n%s", i, fp, want, e.PlanText())
		}
	}
}

// The fingerprint is also invariant across clone lineage: a clone sees
// the same store content, hence the same cardinality snapshot, hence the
// same plans.
func TestPlanFingerprintPureFunctionOfCardinalities(t *testing.T) {
	e := mustEval(t, planSrc)
	e.EnsureWindow(8)
	fp := e.PlanFingerprint()
	if got := e.Clone().PlanFingerprint(); got != fp {
		t.Fatalf("clone plans %s != parent %s", got, fp)
	}
	// Re-fingerprinting the parent after a clone diverged must not move.
	c := e.Clone()
	for i := 0; i < 200; i++ {
		f := ntfact("big", fmt.Sprintf("x%d", i), "a0")
		if _, err := c.InsertBase(f); err != nil {
			t.Fatal(err)
		}
	}
	c.PropagateDelta(nil)
	if got := e.PlanFingerprint(); got != fp {
		t.Fatalf("parent plans drifted to %s after clone ingested (was %s)", got, fp)
	}
}

// The greedy planner must start a body with the most selective literal:
// with small ⊂ big, the rule nt(X) :- small(X), big(X, Y) keeps source
// order, while a body written big-first is reordered to probe big
// through its bound first column instead of scanning it.
func TestPlannerOrdersBySelectivity(t *testing.T) {
	e := mustEval(t, `
nt(X) :- big(X, Y), small(X).
small(a0).
big(a0, a1).
big(a1, a2).
big(a2, a0).
big(a3, a1).
big(a4, a2).
big(a5, a0).
`)
	e.EnsureWindow(0)
	e.planJoins()
	steps := e.plans[0].steps
	if len(steps) != 2 {
		t.Fatalf("plan has %d steps, want 2", len(steps))
	}
	if e.rules[0].body[steps[0].lit].Pred != "small" {
		t.Fatalf("planner scans big before small:\n%s", e.PlanText())
	}
	if steps[1].mask == 0 {
		t.Fatalf("big should be probed through its bound column:\n%s", e.PlanText())
	}
	// The nested-loop mode preserves source order by construction.
	e.SetJoinMode(JoinNestedLoop)
	e.planJoins()
	if got := e.rules[0].body[e.plans[0].steps[0].lit].Pred; got != "big" {
		t.Fatalf("nested-loop mode reordered the body: first literal %s, want big", got)
	}
}

// Regression (satellite fix): Stats.Clone must deep-copy the
// per-predicate index-hit counters. The join hot path writes them
// through pointers cached in the plan steps, so an aliased cell would be
// shared between an evaluator and its clones — two clones ingesting
// concurrently would race on it (this test runs under -race in CI) and
// corrupt each other's counts.
func TestCloneDoesNotAliasIndexCounters(t *testing.T) {
	e := mustEval(t, planSrc)
	e.EnsureWindow(8)
	before := e.Stats()
	if len(before.Index) == 0 {
		t.Fatal("evaluation should have populated Stats.Index")
	}
	clones := []*Evaluator{e.Clone(), e.Clone()}
	var wg sync.WaitGroup
	for gi, c := range clones {
		wg.Add(1)
		go func(gi int, c *Evaluator) {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				f := ntfact("big", fmt.Sprintf("g%d-%d", gi, k), "a0")
				ok, err := c.InsertBase(f)
				if err != nil || !ok {
					t.Errorf("goroutine %d: InsertBase = %v, %v", gi, ok, err)
					return
				}
				c.PropagateDelta([]ast.Fact{f})
			}
		}(gi, c)
	}
	wg.Wait()
	// The parent's counters must not have moved while its clones worked.
	after := e.Stats()
	for pred, cell := range before.Index {
		if got := after.Index[pred]; got == nil || *got != *cell {
			t.Fatalf("parent counter for %s moved from %+v to %+v while clones ingested", pred, cell, after.Index[pred])
		}
	}
	// And a snapshot must not alias the live counters either.
	snap := e.Stats()
	f := ntfact("big", "postsnap", "a0")
	if ok, err := e.InsertBase(f); err != nil || !ok {
		t.Fatalf("InsertBase = %v, %v", ok, err)
	}
	e.PropagateDelta([]ast.Fact{f})
	for pred, cell := range snap.Index {
		live := e.stats.Index[pred]
		if cell == live {
			t.Fatalf("snapshot aliases the live counter cell for %s", pred)
		}
	}
	// The clones did do counted work (their own cells moved).
	for gi, c := range clones {
		moved := false
		for pred, cell := range c.Stats().Index {
			if b := before.Index[pred]; b == nil || *cell != *b {
				moved = true
			}
		}
		if !moved {
			t.Fatalf("clone %d ingested 50 facts but its index counters never moved", gi)
		}
	}
}

// The nested-loop mode must reproduce the historical engine exactly:
// identical Firings and per-rule attribution on a program whose indexed
// plan differs (cf. the three-way battery in internal/randgen, which
// checks the mode-invariant subset on random programs).
func TestNestedLoopModeMatchesIndexedModel(t *testing.T) {
	a := mustEval(t, planSrc)
	b := mustEval(t, planSrc)
	b.SetJoinMode(JoinNestedLoop)
	a.EnsureWindow(12)
	b.EnsureWindow(12)
	if a.Store().Len() != b.Store().Len() || a.Stats().Derived != b.Stats().Derived {
		t.Fatalf("modes disagree: indexed %d facts (%d derived), nested %d facts (%d derived)",
			a.Store().Len(), a.Stats().Derived, b.Store().Len(), b.Stats().Derived)
	}
	for tm := 0; tm <= 12; tm++ {
		if a.Store().StateKey(tm) != b.Store().StateKey(tm) {
			t.Fatalf("modes disagree at t=%d", tm)
		}
	}
}
