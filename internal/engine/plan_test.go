package engine

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"tdd/internal/ast"
	"tdd/internal/workload"
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

// TestPlansAfterIngestMatchColdOpen: plans after an ingest are the plans
// a cold open of the union makes, along a chain of two ingests into
// clones. q is derived only from depth 20 on, so it stays cold in the
// window and the planner costs it by its support seed, the database facts
// of its closure {q, m, a}: 4 at first, below b's 5 rows, so r's body
// starts at q; 8 after the first batch (three facts of the head predicate
// m, one of a), so it starts at b. That batch admits no predicate, so the
// bounds are not recomputed: a clone whose seeds did not follow its
// database would keep q first. g is provably empty until the second batch
// admits z, whose six facts lie past the window: s's body then starts at
// b rather than at the free g, as it would not if the bounds outlived the
// admission.
func TestPlansAfterIngestMatchColdOpen(t *testing.T) {
	const rules = `
r(T+1, X) :- b(X, Y), q(T, X).
q(T+20, X) :- m(T, X).
m(T, X) :- a(T, X).
s(T+1, X) :- b(X, Y), g(T, X).
g(T, X) :- z(T, X).
b(k1, c1). b(k2, c2). b(k3, c3). b(k4, c4). b(k5, c5).
a(0, k1). a(0, k2). a(0, k3). m(0, k8).
`
	const m = 10
	tip := mustEval(t, rules)
	tip.EnsureWindow(m)
	union := rules
	for _, batch := range []string{
		"m(1, k4). m(1, k5). m(2, k6). a(1, k7).\n",
		"z(15, k1). z(15, k2). z(15, k3). z(15, k4). z(15, k5). z(16, k1).\n",
	} {
		parent, before := tip, tip.PlanFingerprint()
		tip = parent.Clone()
		_, db := mustTDD(t, batch)
		applyDelta(t, tip, db.Facts...)
		union += batch
		cold := mustEval(t, union)
		cold.EnsureWindow(m)
		got, want := tip.PlanFingerprint(), cold.PlanFingerprint()
		if got != want {
			t.Fatalf("after %s the ingested clone plans %s, a cold open of the union %s\nclone:\n%s\ncold:\n%s", batch, got, want, tip.PlanText(), cold.PlanText())
		}
		if got == before {
			t.Fatalf("%s did not change the plans:\n%s", batch, tip.PlanText())
		}
		if got := parent.PlanFingerprint(); got != before {
			t.Fatalf("the parent's plans moved to %s after its clone ingested %s (were %s)", got, batch, before)
		}
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
}

// workCounts flattens every count an evaluator reports — Stats and the
// profile's calls, scans and matches, but not its times — into one map.
func workCounts(e *Evaluator) map[string]int64 {
	st := e.Stats()
	out := map[string]int64{"derived": int64(st.Derived), "firings": int64(st.Firings), "sweeps": int64(st.Sweeps)}
	for i, r := range st.Rules {
		out[fmt.Sprintf("rule %d firings", i)] = int64(r.Firings)
		out[fmt.Sprintf("rule %d derived", i)] = int64(r.Derived)
	}
	for pred, ix := range st.Index {
		out[pred+" probes"], out[pred+" scans"] = ix.Probes, ix.Scans
	}
	for _, r := range e.ProfileSnapshot().Rules {
		for _, s := range r.Strata {
			out[fmt.Sprintf("%s calls t>=%d", r.Rule, s.Lo)] = s.Calls
		}
		for _, l := range r.Literals {
			for _, s := range l.Strata {
				out[fmt.Sprintf("%s [%d] scanned t>=%d", r.Rule, l.Pos, s.Lo)] = s.Scanned
				out[fmt.Sprintf("%s [%d] matched t>=%d", r.Rule, l.Pos, s.Lo)] = s.Matched
			}
		}
	}
	return out
}

// Each evaluator counts into its own counter block: a clone starts from
// its parent's records copy-on-write, so neither side's Stats nor its
// profile moves with the other's work. Sibling clones ingest on their
// own goroutines while another reads the parent (this test runs under
// -race in CI, which checks that nothing is written that another side
// reads). The parent's reports do not move; each clone's counts equal
// the parent's plus its own work — what the same ingest counts on a
// clone run alone — and its times only grow; and when the parent ingests
// afterwards, no clone's report and no snapshot taken before moves.
func TestCloneDoesNotAliasIndexCounters(t *testing.T) {
	e := mustEval(t, planSrc)
	e.EnableProfile()
	e.EnsureWindow(8)
	if len(e.Stats().Index) == 0 {
		t.Fatal("evaluation should have populated Stats.Index")
	}
	ingest := func(c *Evaluator, tag string) {
		for k := 0; k < 50; k++ {
			f := ntfact("big", fmt.Sprintf("%s-%d", tag, k), "a0")
			ok, err := c.InsertBase(f)
			if err != nil || !ok {
				t.Errorf("%s: InsertBase = %v, %v", tag, ok, err)
				return
			}
			c.PropagateDelta([]ast.Fact{f})
		}
	}
	stats, prof, counts := e.Stats(), e.ProfileSnapshot(), workCounts(e)
	ref := e.Clone()
	ingest(ref, "ref")
	alone := workCounts(ref)
	if alone["small probes"] == counts["small probes"] {
		t.Fatal("a clone ingested 50 facts but its index counters never moved")
	}
	if reflect.DeepEqual(ref.ProfileSnapshot().Rules, prof.Rules) {
		t.Fatal("a clone ingested 50 facts but its profile never moved")
	}

	clones := []*Evaluator{e.Clone(), e.Clone(), e.Clone()}
	var wg sync.WaitGroup
	for gi, c := range clones {
		wg.Add(1)
		go func(gi int, c *Evaluator) {
			defer wg.Done()
			ingest(c, fmt.Sprintf("g%d", gi))
		}(gi, c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if got := e.Stats(); !reflect.DeepEqual(got, stats) {
				t.Errorf("parent's Stats moved from %+v to %+v while clones ingested", stats, got)
				return
			}
			if got := e.ProfileSnapshot(); !reflect.DeepEqual(got, prof) {
				t.Errorf("parent's profile moved while clones ingested:\n%s\nthen\n%s", prof.Tree(), got.Tree())
				return
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	reports := make([]*ProfileJSON, len(clones))
	for gi, c := range clones {
		if got := workCounts(c); !reflect.DeepEqual(got, alone) {
			t.Fatalf("clone %d counts %v, want the parent's plus its own ingest's %v", gi, got, alone)
		}
		reports[gi] = c.ProfileSnapshot()
		for _, r := range reports[gi].Rules {
			for _, pr := range prof.Rules {
				if pr.Rule == r.Rule && r.Us < pr.Us {
					t.Fatalf("clone %d's time for %s fell below its parent's: %dµs < %dµs", gi, r.Rule, r.Us, pr.Us)
				}
			}
		}
	}

	snap, again := e.Stats(), e.Stats()
	ingest(e, "post")
	if !reflect.DeepEqual(snap, again) {
		t.Fatalf("a Stats snapshot moved from %+v to %+v when its evaluator ingested", again, snap)
	}
	if workCounts(e)["small probes"] == counts["small probes"] {
		t.Fatal("the parent ingested 50 facts but its index counters never moved")
	}
	for gi, c := range clones {
		if got := workCounts(c); !reflect.DeepEqual(got, alone) {
			t.Fatalf("clone %d's counts moved to %v when its parent ingested, were %v", gi, got, alone)
		}
		if got := c.ProfileSnapshot(); !reflect.DeepEqual(got, reports[gi]) {
			t.Fatalf("clone %d's profile moved when its parent ingested", gi)
		}
	}
}

// E18's claim as counts: evaluation does not depend on how the author
// ordered body literals. Each family is evaluated twice, in its selective
// body order and in a generate-then-filter order; both must do exactly
// the pinned work — the same derivations, the same firings and the same
// index probes and full scans per body predicate. Source-order evaluation
// reads very differently on the scrambled bodies (E1 scans resort 353
// times and probes plane 81 920 times; E8 touches edge 146 018 times), so
// a planner that keeps source order fails here.
func TestPlannerIsOrderInsensitive(t *testing.T) {
	orders := func(gen func(scrambled bool) (rules, facts string)) (srcs [2]string) {
		for i, scrambled := range []bool{false, true} {
			rules, facts := gen(scrambled)
			srcs[i] = rules + facts
		}
		return srcs
	}
	chain := chainGraph(80)
	type counts struct {
		derived, firings int
		index            map[string]IndexStat
	}
	for _, fam := range []struct {
		name   string
		srcs   [2]string // selective order, scrambled order
		window int
		want   counts
	}{
		{
			name: "E1_ski", window: 120,
			srcs: orders(func(scrambled bool) (string, string) {
				return workload.Ski(workload.SkiParams{
					YearLen: 40, Resorts: 1024, Planes: 32, Holidays: 4, ResortFirst: scrambled, Seed: 42})
			}),
			want: counts{1174, 1208, map[string]IndexStat{
				"resort": {1119, 0}, "plane": {0, 80}, "offseason": {0, 114}, "winter": {0, 81}, "holiday": {0, 20}}},
		},
		{
			name: "E8_reach", window: 24,
			srcs: orders(func(scrambled bool) (string, string) {
				return workload.Reachability(workload.ReachParams{
					Nodes: 192, Edges: 288, PathFirst: scrambled, Seed: 13})
			}),
			want: counts{154377, 347988, map[string]IndexStat{
				"path": {6912, 24}, "edge": {0, 24}, "node": {0, 2}, "null": {0, 2}}},
		},
		{
			name: "chain", window: 80,
			srcs: [2]string{chain, strings.Replace(chain,
				"edge(X, Y), path(K, Y, Z).", "path(K, Y, Z), edge(X, Y).", 1)},
			want: counts{19040, 34320, map[string]IndexStat{
				"path": {12320, 0}, "edge": {0, 80}, "node": {0, 2}, "null": {0, 2}}},
		},
	} {
		if fam.srcs[0] == fam.srcs[1] {
			t.Fatalf("%s: both body orders give the same source", fam.name)
		}
		for i, src := range fam.srcs {
			e := mustEval(t, src)
			e.EnsureWindow(fam.window)
			st := e.Stats()
			got := counts{st.Derived, st.Firings, map[string]IndexStat{}}
			for pred, cell := range st.Index {
				got.index[pred] = *cell
			}
			if !reflect.DeepEqual(got, fam.want) {
				t.Errorf("%s, body order %d: derived %d, firings %d, index %v; want %d, %d, %v\nplans:\n%s",
					fam.name, i, got.derived, got.firings, got.index,
					fam.want.derived, fam.want.firings, fam.want.index, e.PlanText())
			}
		}
	}
}
