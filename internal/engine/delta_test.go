package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"tdd/internal/ast"
)

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
	if len(e.Database().Facts) == len(c.Database().Facts) {
		t.Fatal("clone database shares the original's fact list")
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
// of the union.
func TestInsertBaseRecordsDerivedFacts(t *testing.T) {
	e := mustEval(t, `
		p(T+1) :- p(T).
		p(0).
	`)
	e.EnsureWindow(12)
	if !e.Holds(tfact("p", 9)) {
		t.Fatal("p(9) should be derived")
	}
	ok, err := e.InsertBase(tfact("p", 9))
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if e.Database().MaxDepth() != 9 || e.DatabaseDepth() != 9 {
		t.Fatalf("database depth %d (kept on insert: %d), want 9", e.Database().MaxDepth(), e.DatabaseDepth())
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

			union, err := New(e.Program(), e.Database())
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

		union, err := New(e.Program(), e.Database())
		if err != nil {
			t.Fatal(err)
		}
		union.EnsureWindow(window)
		assertSameWindow(t, e, union, window, fmt.Sprintf("seed %d", seed))
	}
}
