package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"tdd/internal/ast"
)

// baseDatabase is e's database D, its facts read back from the store.
func baseDatabase(e *Evaluator) *ast.Database {
	return &ast.Database{Facts: e.Facts(), Preds: e.Database().Preds}
}

// applyDelta inserts the facts as base facts and propagates their
// consequences through the already-evaluated window.
func applyDelta(t *testing.T, e *Evaluator, facts ...ast.Fact) (inserted int, derived int) {
	t.Helper()
	var seed []ast.Fact
	for _, f := range facts {
		ok, err := e.InsertBase(f)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			seed = append(seed, f)
			inserted++
		}
	}
	return inserted, e.PropagateDelta(seed)
}

// assertSameWindow checks that two evaluators agree on every state of
// 0..m and on the non-temporal part.
func assertSameWindow(t *testing.T, got, want *Evaluator, m int, label string) {
	t.Helper()
	for tt := 0; tt <= m; tt++ {
		if g, w := got.Store().StateKey(tt), want.Store().StateKey(tt); g != w {
			t.Fatalf("%s: state %d differs\nincremental: %q\nfrom-scratch: %q", label, tt, g, w)
		}
	}
	g := ast.Database{Facts: got.Store().NonTemporalFacts()}
	w := ast.Database{Facts: want.Store().NonTemporalFacts()}
	if g.String() != w.String() {
		t.Fatalf("%s: non-temporal parts differ\nincremental:\n%s\nfrom-scratch:\n%s", label, g.String(), w.String())
	}
}

func TestCloneIndependence(t *testing.T) {
	e := mustEval(t, `
		p(T+2, X) :- p(T, X), q(X).
		p(0, a). q(a). q(b).
	`)
	e.EnsureWindow(10)
	c := e.Clone()

	if _, err := c.InsertBase(tfact("p", 1, "b")); err != nil {
		t.Fatal(err)
	}
	c.PropagateDelta([]ast.Fact{tfact("p", 1, "b")})

	if e.Holds(tfact("p", 1, "b")) || e.Holds(tfact("p", 3, "b")) {
		t.Fatal("insert into clone leaked into the original")
	}
	if !c.Holds(tfact("p", 3, "b")) || !c.Holds(tfact("p", 9, "b")) {
		t.Fatal("clone did not propagate the delta")
	}
	if len(e.Facts()) == len(c.Facts()) {
		t.Fatal("a database fact inserted into the clone reached the original")
	}
	// A predicate the clone admits stays out of the original's signatures.
	if _, err := c.InsertBase(ntfact("r", "a")); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.Database().Preds["r"]; ok {
		t.Fatal("predicate admitted by the clone leaked into the original")
	}

	// Growing the clone's window must not move the original's.
	c.EnsureWindow(20)
	if e.Window() != 10 {
		t.Fatalf("original window moved to %d", e.Window())
	}
}

func TestInsertBaseSignatureChecks(t *testing.T) {
	e := mustEval(t, `
		p(T+1, X) :- p(T, X), q(X).
		p(0, a). q(a).
	`)
	if _, err := e.InsertBase(ntfact("p", "a")); err == nil {
		t.Fatal("non-temporal insert into temporal predicate accepted")
	}
	if _, err := e.InsertBase(tfact("q", 0, "a")); err == nil {
		t.Fatal("temporal insert into non-temporal predicate accepted")
	}
	if _, err := e.InsertBase(ast.Fact{Pred: "p", Temporal: true, Time: -1, Args: []string{"a"}}); err == nil {
		t.Fatal("negative time accepted")
	}
	// A time point must fit the uint32 time column of a head predicate's
	// database rows, or it would alias the time point 2^32 below it.
	if _, err := e.InsertBase(tfact("p", 1<<32+1, "a")); err == nil {
		t.Fatal("time point beyond uint32 accepted")
	}
	prog, _ := mustTDD(t, "p(T+1, X) :- p(T, X).\n")
	for _, time := range []int{-1, 1<<32 + 1} {
		db, err := ast.NewDatabase([]ast.Fact{tfact("p", time, "a")})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := New(prog, db); err == nil {
			t.Fatalf("New accepted a database fact at time %d", time)
		}
	}
	// A brand-new predicate is admitted and recorded.
	ok, err := e.InsertBase(ntfact("r", "a", "b"))
	if err != nil || !ok {
		t.Fatalf("new predicate insert: ok=%v err=%v", ok, err)
	}
	if info := e.Database().Preds["r"]; info.Arity != 2 || info.Temporal {
		t.Fatalf("recorded signature %v", info)
	}
	// Re-inserting an existing database fact is a no-op.
	ok, err = e.InsertBase(tfact("p", 0, "a"))
	if err != nil || ok {
		t.Fatalf("duplicate base insert: ok=%v err=%v", ok, err)
	}
}

// TestInsertBaseRecordsDerivedFacts: a fact already derived by the rules
// must still become a database fact — the database's temporal depth (and
// with it the period certificate) has to match a from-scratch evaluation
// of the union — and a database fact, once recorded, is a duplicate. Per
// kind of predicate, the store alone tells the two apart: a head
// predicate's database rows (a proposition, temporal with arguments,
// non-temporal) sit beside its derived ones, an EDB-only predicate's
// shards hold nothing else. Two sibling clones of one parent each record
// the fact once, and the parent's database does not move. The head rows
// hold more than tinyShard database facts, so a clone's write into them
// overlays a shared shard.
func TestInsertBaseRecordsDerivedFacts(t *testing.T) {
	cases := []struct {
		name     string
		src      string
		dbFact   ast.Fact // already in the database
		fact     ast.Fact // derived (head rows) or new (EDB row) before the insert
		derived  bool
		maxDepth int // the database's depth once fact is recorded
	}{
		{
			name:     "proposition-head",
			src:      "p(T+1) :- p(T).\np(0). p(1). p(2). p(3). p(4). p(5).\n",
			dbFact:   tfact("p", 3),
			fact:     tfact("p", 9),
			derived:  true,
			maxDepth: 9,
		},
		{
			name:     "temporal-head",
			src:      "p(T+1, X) :- p(T, X).\np(0, a). p(0, b). p(0, c). p(0, d). p(0, e). p(0, f).\n",
			dbFact:   tfact("p", 0, "c"),
			fact:     tfact("p", 9, "a"),
			derived:  true,
			maxDepth: 9,
		},
		{
			name:    "nontemporal-head",
			src:     "r(X) :- e(X, Y).\ne(a, b). r(z1). r(z2). r(z3). r(z4). r(z5). r(z6).\n",
			dbFact:  ntfact("r", "z2"),
			fact:    ntfact("r", "a"),
			derived: true,
		},
		{
			name:   "edb-only",
			src:    "r(X) :- e(X, Y).\ne(a, b). e(b, c). e(c, d). e(d, e). e(e, f). e(f, g).\n",
			dbFact: ntfact("e", "c", "d"),
			fact:   ntfact("e", "a", "z"),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			parent := mustEval(t, tc.src)
			parent.EnsureWindow(12)
			if got := parent.Holds(tc.fact); got != tc.derived {
				t.Fatalf("%s holds before the insert: %v, want %v", tc.fact, got, tc.derived)
			}
			facts := len(parent.Facts())
			record := func(e *Evaluator) {
				t.Helper()
				if ok, err := e.InsertBase(tc.dbFact); ok || err != nil {
					t.Fatalf("re-asserting database fact %s: ok=%v err=%v, want false", tc.dbFact, ok, err)
				}
				for i, want := range []bool{true, false} {
					if ok, err := e.InsertBase(tc.fact); ok != want || err != nil {
						t.Fatalf("insert %d of %s: ok=%v err=%v, want %v", i+1, tc.fact, ok, err, want)
					}
				}
				if got := len(e.Facts()); got != facts+1 {
					t.Fatalf("database holds %d facts, want %d", got, facts+1)
				}
				if baseDatabase(e).MaxDepth() != tc.maxDepth || e.DatabaseDepth() != tc.maxDepth {
					t.Fatalf("database depth %d (kept on insert: %d), want %d", baseDatabase(e).MaxDepth(), e.DatabaseDepth(), tc.maxDepth)
				}
			}
			c1, c2 := parent.Clone(), parent.Clone()
			record(c1)
			record(c2)
			if got := len(parent.Facts()); got != facts {
				t.Fatalf("parent database moved: %d facts, want %d", got, facts)
			}
			record(parent.Clone())
			record(parent)
		})
	}
}

// TestPropagateDeltaMatchesFromScratch drives hand-written programs
// through batched insertions and compares every state of the window with
// a from-scratch evaluation of the union.
func TestPropagateDeltaMatchesFromScratch(t *testing.T) {
	cases := []struct {
		name  string
		src   string
		m     int
		batch []ast.Fact
	}{
		{
			name: "temporal-chain",
			src: `
				p(T+2, X) :- p(T, X), q(X).
				p(0, a). q(a). q(b).
			`,
			m:     14,
			batch: []ast.Fact{tfact("p", 1, "b"), tfact("p", 4, "c")},
		},
		{
			name: "nontemporal-feedback",
			src: `
				alert(T+1, S) :- alert(T, S).
				alert(T, S) :- check(T, S), fragile(S).
				flagged(S) :- alert(T, S).
				check(0, api). check(3, db). fragile(api).
			`,
			m:     12,
			batch: []ast.Fact{ntfact("fragile", "db"), tfact("check", 5, "cache"), ntfact("fragile", "cache")},
		},
		{
			name: "graph-edge",
			src: `
				path(K, X, X) :- node(X), null(K).
				path(K+1, X, Z) :- edge(X, Y), path(K, Y, Z).
				path(K+1, X, Y) :- path(K, X, Y).
				null(0). node(a). node(b). node(c). edge(a, b).
			`,
			m:     8,
			batch: []ast.Fact{ntfact("edge", "b", "c"), ntfact("node", "d"), ntfact("edge", "c", "d")},
		},
		{
			name: "beyond-window-seed",
			src: `
				p(T+1) :- p(T).
				p(0).
			`,
			m:     6,
			batch: []ast.Fact{tfact("q", 20)},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := mustEval(t, c.src)
			e.EnsureWindow(c.m)
			applyDelta(t, e, c.batch...)

			union, err := New(e.Program(), baseDatabase(e))
			if err != nil {
				t.Fatal(err)
			}
			union.EnsureWindow(c.m)
			assertSameWindow(t, e, union, c.m, c.name)
		})
	}
}

// TestPropagateDeltaRandomized: random incremental insertion orders on
// the bounded-path program, each compared with a from-scratch union run.
func TestPropagateDeltaRandomized(t *testing.T) {
	const nodes, window = 8, 10
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		src := `path(K, X, X) :- node(X), null(K).
path(K+1, X, Z) :- edge(X, Y), path(K, Y, Z).
path(K+1, X, Y) :- path(K, X, Y).
null(0).
`
		for i := 0; i < nodes; i++ {
			src += fmt.Sprintf("node(n%d).\n", i)
		}
		var edges []ast.Fact
		for k := 0; k < 2*nodes; k++ {
			u, v := rng.Intn(nodes), rng.Intn(nodes)
			if u != v {
				edges = append(edges, ntfact("edge", fmt.Sprintf("n%d", u), fmt.Sprintf("n%d", v)))
			}
		}
		e := mustEval(t, src)
		e.EnsureWindow(window)
		for len(edges) > 0 {
			n := 1 + rng.Intn(len(edges))
			applyDelta(t, e, edges[:n]...)
			edges = edges[n:]
		}

		union, err := New(e.Program(), baseDatabase(e))
		if err != nil {
			t.Fatal(err)
		}
		union.EnsureWindow(window)
		assertSameWindow(t, e, union, window, fmt.Sprintf("seed %d", seed))
	}
}
