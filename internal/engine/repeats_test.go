package engine_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"tdd/internal/ast"
	"tdd/internal/baseline"
	"tdd/internal/engine"
	"tdd/internal/parser"
	"tdd/internal/randgen"
	"tdd/internal/spec"
	"tdd/internal/workload"
)

// repeatProgram is one program of the repeat batteries below.
type repeatProgram struct {
	name     string
	prog     *ast.Program
	db       *ast.Database
	optional bool // a random program may not certify within the budget
}

// repeatPrograms returns E1's ski model, E8's reachability, a 3-bit
// counter and 240 random programs, alternating randgen's default shape
// and its NonTemporalHeads shape, whose derived non-temporal facts make
// the evaluator re-sweep states it has closed.
func repeatPrograms(t *testing.T) []repeatProgram {
	t.Helper()
	var progs []repeatProgram
	unit := func(name, rules, facts string) {
		prog, db, err := parser.ParseUnit(rules + facts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		progs = append(progs, repeatProgram{name: name, prog: prog, db: db})
	}
	rules, facts := workload.Ski(workload.SkiParams{YearLen: 50, Resorts: 4, Planes: 8, Holidays: 5, Seed: 42})
	unit("E1 ski", rules, facts)
	rules, facts = workload.Reachability(workload.ReachParams{Nodes: 12, Edges: 24, Seed: 13})
	unit("E8 reach", rules, facts)
	rules, facts = workload.Counter(3)
	unit("counter(3)", rules, facts)
	shapes := []randgen.Options{randgen.Default(), randgen.Default()}
	shapes[1].NonTemporalHeads = true
	for seed := int64(0); seed < 240; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randgen.New(rng, shapes[seed%2])
		prog, err := g.Program(rng)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		db, err := g.Database(rng)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		progs = append(progs, repeatProgram{name: fmt.Sprintf("randgen seed %d", seed), prog: prog, db: db, optional: true})
	}
	return progs
}

// TestShareRepeatsIsExact: once spec.Compute certifies (b, p), every state
// 0..m of the evaluated window renders as the same state of an evaluator
// run to the same window and never certified, and every state in [b+p, m]
// is its representative's shards — slot t is pointer-equal to slot
// Canonical(t) for every temporal predicate, so the guard of ShareRepeats
// never refused a slot. The programs are repeatPrograms'.
func TestShareRepeatsIsExact(t *testing.T) {
	progs := repeatPrograms(t)
	certified, shared := 0, 0
	for _, pg := range progs {
		e, err := engine.New(pg.prog.Clone(), pg.db.Clone())
		if err != nil {
			t.Fatalf("%s: %v", pg.name, err)
		}
		s, err := spec.Compute(e, 1<<12)
		if err != nil {
			if pg.optional {
				continue
			}
			t.Fatalf("%s: %v", pg.name, err)
		}
		certified++
		per, m := s.Period, e.Window()
		direct, err := engine.New(pg.prog.Clone(), pg.db.Clone())
		if err != nil {
			t.Fatalf("%s: %v", pg.name, err)
		}
		direct.EnsureWindow(m)
		for tm := 0; tm <= m; tm++ {
			if got, want := e.Store().StateKey(tm), direct.Store().StateKey(tm); got != want {
				t.Fatalf("%s: certified %v, window %d: state %d is %v, uncertified %v\nprogram:\n%sdb:\n%s",
					pg.name, per, m, tm, e.Store().State(tm), direct.Store().State(tm), pg.prog, pg.db)
			}
		}
		for tm := per.Base + per.P; tm <= m; tm++ {
			if !e.Store().SameShards(tm, per.Canonical(tm)) {
				t.Fatalf("%s: certified %v, window %d: state %d is not stored as state %d", pg.name, per, m, tm, per.Canonical(tm))
			}
			shared++
		}
	}
	t.Logf("%d of %d programs certified; %d states stored as their representative's", certified, len(progs), shared)
	if certified < 200 {
		t.Errorf("only %d programs certified, want at least 200", certified)
	}
}

// TestCloseSharesEqualStates: an evaluator extended to its window in two
// steps stores every state equal to an earlier one as the first such
// state's shards from the moment it closes — the second extension finds
// its repeats among the states the first one closed — unless an outer
// re-sweep has written to the states since, forking the slots it wrote.
// Shared or forked, every state renders as naive T_P's state at that
// time point. The programs are repeatPrograms'; the NonTemporalHeads
// shape re-sweeps states that closed shared.
func TestCloseSharesEqualStates(t *testing.T) {
	shared, swept := 0, 0
	for _, pg := range repeatPrograms(t) {
		m := 24
		if pg.name == "E1 ski" {
			m = 160
		}
		e, err := engine.New(pg.prog.Clone(), pg.db.Clone())
		if err != nil {
			t.Fatalf("%s: %v", pg.name, err)
		}
		e.EnsureWindow(m / 2)
		e.EnsureWindow(m)
		naive, _, err := baseline.NaiveTP(pg.prog.Clone(), pg.db.Clone(), m)
		if err != nil {
			t.Fatalf("%s: %v", pg.name, err)
		}
		resweeps := e.Stats().Sweeps > 0
		if resweeps {
			swept++
		}
		first := make(map[string]int)
		for tm := 0; tm <= m; tm++ {
			key := e.Store().StateKey(tm)
			if want := naive.StateKey(tm); key != want {
				t.Fatalf("%s, window %d: state %d is %v, naive T_P %v\nprogram:\n%sdb:\n%s",
					pg.name, m, tm, e.Store().State(tm), naive.State(tm), pg.prog, pg.db)
			}
			f, ok := first[key]
			if !ok {
				first[key] = tm
				continue
			}
			if resweeps {
				continue
			}
			if !e.Store().SameShards(tm, f) {
				t.Fatalf("%s, window %d: state %d equals state %d but is not stored as it", pg.name, m, tm, f)
			}
			shared++
		}
	}
	t.Logf("%d repeating states stored as their first occurrence; %d programs re-swept", shared, swept)
	if shared == 0 || swept == 0 {
		t.Errorf("%d shared states and %d re-swept programs: the battery checks nothing", shared, swept)
	}
}

// TestAllocBudgetColdWindowRepeats: past its certified window W every
// state of the ski model repeats one the window holds, so extending the
// window from W to 2W closes each new state as an earlier one's shards,
// building it in the buffers of the repeat closed before it. What a new
// state allocates is its slots — 8 bytes per temporal predicate, in time
// axes that grow to 2W at once — and a share of the extension's fixed
// cost: under 256 bytes, while one state's shards of 64 rows or more take
// upwards of 800 (rows, membership table and the shard itself).
func TestAllocBudgetColdWindowRepeats(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rules, facts := workload.Ski(workload.SkiParams{YearLen: 50, Resorts: 256, Planes: 4096, Holidays: 5, Seed: 42})
	prog, db, err := parser.ParseUnit(rules + facts)
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(prog, db)
	if err != nil {
		t.Fatal(err)
	}
	s, err := spec.Compute(e, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	w := e.Window()
	rows := 0
	for tm := s.NumRepresentatives(); tm <= w; tm++ {
		rows += e.Store().StateSize(tm)
	}
	rows /= w + 1 - s.NumRepresentatives()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	e.EnsureWindow(2 * w)
	runtime.ReadMemStats(&m1)
	perState := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(w)
	t.Logf("period %v, window %d → %d: %.1f bytes per new state, %d rows per state", s.Period, w, 2*w, perState, rows)
	for tm := w + 1; tm <= 2*w; tm++ {
		if !e.Store().SameShards(tm, s.Rewrite(tm)) {
			t.Fatalf("state %d is not stored as state %d", tm, s.Rewrite(tm))
		}
	}
	if rows < 64 {
		t.Fatalf("a state holds %d rows: too few for the budget to tell a shard from its slots", rows)
	}
	if perState > 256 {
		t.Errorf("a repeating state allocates %.1f bytes, budget 256: it built shards of its own", perState)
	}
}

// TestCloseKeepsSharedShards: a state may close in a shard it shares
// with another store — here the database fact p(4, a), cloned before the
// window reached it, which state 4 derives again without a write. When
// such a state repeats an earlier one, its slot is re-pointed, but the
// shard is not recycled into the buffers of the next state: the store it
// is shared with still reads it. The clone is extended to windows of
// both parities, so the shard would be left holding either state.
func TestCloseKeepsSharedShards(t *testing.T) {
	const src = `
p(T+1, X) :- p(T, Y), next(Y, X).
next(a, b). next(b, a).
p(0, a). p(4, a).
`
	for m := 5; m <= 8; m++ {
		prog, db, err := parser.ParseUnit(src)
		if err != nil {
			t.Fatal(err)
		}
		e, err := engine.New(prog, db)
		if err != nil {
			t.Fatal(err)
		}
		e.EnsureWindow(2)
		before := e.Store().StateKey(4)
		c := e.Clone()
		c.EnsureWindow(m)
		if got := e.Store().StateKey(4); got != before {
			t.Fatalf("clone extended to %d: the original's state 4 is %q, was %q", m, got, before)
		}
		e.EnsureWindow(m)
		naive, _, err := baseline.NaiveTP(prog, db, m)
		if err != nil {
			t.Fatal(err)
		}
		for tm := 0; tm <= m; tm++ {
			want := naive.StateKey(tm)
			if got := e.Store().StateKey(tm); got != want {
				t.Fatalf("window %d: the original's state %d is %q, naive T_P %q", m, tm, got, want)
			}
			if got := c.Store().StateKey(tm); got != want {
				t.Fatalf("window %d: the clone's state %d is %q, naive T_P %q", m, tm, got, want)
			}
		}
	}
}

// TestFactsReadBack: Facts reads D back from the store, so it must equal,
// as a set, the deduplicated facts given to New plus every fact
// InsertBase added — for a rule-head temporal predicate with database
// facts (p, and the proposition tick) and one without (q), a non-head
// temporal predicate with a fact past the dense axis (r), an arity-0
// non-head proposition (on), non-temporal predicates with and without a
// rule (h, s) and predicates InsertBase admits — after New, after
// EnsureWindow has stored state 26 as state 20's shards (w and on
// included), after spec.Compute's ShareRepeats, and on two Clone
// lineages that each insert, whose parent stays as it was. SliceFacts
// reads back the facts of the predicates it keeps and the constants of
// D at each of those points.
func TestFactsReadBack(t *testing.T) {
	const src = `p(T+2, X) :- p(T, X).
q(T+1, X) :- p(T, X), w(T, X), on(T).
q(T+1, X) :- r(T, X), s(X).
tick(T+3) :- tick(T).
h(X) :- s(X).
p(0, a). p(1, b). p(0, a).
w(0, a). w(2, a). w(4, a). w(6, a). w(1, b). w(20, k). w(26, k).
on(0). on(2). on(4). on(20). on(26).
r(3, a). r(5000, b).
tick(0).
s(a). s(b). s(a).
h(z).
`
	prog, db, err := parser.ParseUnit(src)
	if err != nil {
		t.Fatal(err)
	}
	set := func(facts []ast.Fact) []string {
		out := make([]string, len(facts))
		for i, f := range facts {
			out[i] = f.String()
		}
		slices.Sort(out)
		return slices.Compact(out)
	}
	notP := func(pred string) bool { return pred != "p" }
	check := func(when string, e *engine.Evaluator, want []ast.Fact) {
		t.Helper()
		got := e.Facts()
		if w := set(want); !slices.Equal(set(got), w) || len(got) != len(w) {
			t.Fatalf("%s: Facts() = %v, want each of %v once", when, set(got), w)
		}
		var kept []ast.Fact
		for _, f := range want {
			if notP(f.Pred) {
				kept = append(kept, f)
			}
		}
		got, consts := e.SliceFacts(notP)
		if w := set(kept); !slices.Equal(set(got), w) || len(got) != len(w) {
			t.Fatalf("%s: SliceFacts(not p) = %v, want each of %v once", when, set(got), w)
		}
		if w := (&ast.Database{Facts: want}).Constants(); !slices.Equal(consts, w) {
			t.Fatalf("%s: SliceFacts' constants = %v, want %v", when, consts, w)
		}
	}
	e, err := engine.New(prog, db)
	if err != nil {
		t.Fatal(err)
	}
	check("after New", e, db.Facts)
	e.EnsureWindow(40)
	if !e.Store().SameShards(26, 20) {
		t.Fatal("state 26 was not stored as state 20's shards: the test lost its shared case")
	}
	check("after EnsureWindow", e, db.Facts)
	if _, err := spec.Compute(e, 1<<14); err != nil {
		t.Fatal(err)
	}
	check("after spec.Compute", e, db.Facts)

	tfact := func(pred string, time int, args ...string) ast.Fact {
		return ast.Fact{Pred: pred, Temporal: true, Time: time, Args: args}
	}
	ntfact := func(pred string, args ...string) ast.Fact { return ast.Fact{Pred: pred, Args: args} }
	batches := [][]ast.Fact{
		{tfact("p", 3, "c"), tfact("q", 2, "a"), tfact("r", 9000, "a"), tfact("on", 6), ntfact("newp", "c", "d")},
		{tfact("w", 8, "b"), tfact("tick", 1), ntfact("s", "c"), ntfact("h", "y"), tfact("newt", 7, "x"), tfact("p", 0, "a")},
	}
	for i, batch := range batches {
		c := e.Clone()
		for _, f := range batch {
			if _, err := c.InsertBase(f); err != nil {
				t.Fatal(err)
			}
		}
		c.PropagateDelta(batch)
		want := append(slices.Clone(db.Facts), batch...)
		check(fmt.Sprintf("lineage %d after InsertBase", i), c, want)
		if _, err := spec.Compute(c, 1<<14); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("lineage %d after spec.Compute", i), c, want)
	}
	check("parent after its lineages", e, db.Facts)
}
