package engine

// Allocation budgets: the store's claims — no string is built and nothing
// is heap-allocated per probe or per duplicate, a new fact costs amortized
// slice growth only — pinned without a clock. scripts/ci.sh names these
// tests explicitly.

import (
	"fmt"
	"math/bits"
	"runtime"
	"testing"

	"tdd/internal/ast"
)

const allocBudgetSrc = `
path(K+1, X, Z) :- edge(X, Y), path(K, Y, Z).
path(K+1, X, Y) :- path(K, X, Y).
path(K, X, X) :- node(X), null(K).
hub(X) :- edge(X, Y), edge(X, Z), node(Y), node(Z).
null(0).
node(n0). node(n1). node(n2). node(n3). node(n4). node(n5).
edge(n0, n1). edge(n1, n2). edge(n2, n3). edge(n3, n4). edge(n4, n5). edge(n5, n0). edge(n0, n3).
`

// TestAllocBudgetDuplicateEmit: re-firing every rule over a closed window
// — joins, index probes, head instantiation, the membership probe of
// emit, all landing on known facts — allocates nothing.
func TestAllocBudgetDuplicateEmit(t *testing.T) {
	e := mustEval(t, allocBudgetSrc)
	e.EnsureWindow(12)
	e.planJoins()
	before := e.Stats()
	refire := func() {
		for i := range e.rules {
			r := &e.rules[i]
			for T := 0; T+max(r.headDepth, r.maxBodyDepth, 0) <= 12; T++ {
				if e.fireRule(r, T) != 0 {
					t.Fatal("closed window derived a new fact")
				}
			}
		}
	}
	if n := testing.AllocsPerRun(5, refire); n != 0 {
		t.Errorf("duplicate firings allocate %.0f times per pass, want 0", n)
	}
	if after := e.Stats(); after.Firings == before.Firings || after.Derived != before.Derived {
		t.Fatalf("refire did no duplicate work: firings %d -> %d, derived %d -> %d",
			before.Firings, after.Firings, before.Derived, after.Derived)
	}
}

// TestAllocBudgetHas: membership through the public API — hit, miss, and
// a constant or predicate the symbol table has never seen — allocates
// nothing and interns nothing.
func TestAllocBudgetHas(t *testing.T) {
	e := mustEval(t, allocBudgetSrc)
	e.EnsureWindow(12)
	s := e.Store()
	syms := len(s.syms.names)
	probes := []struct {
		f    ast.Fact
		want bool
	}{
		{tfact("path", 3, "n0", "n3"), true},
		{tfact("path", 0, "n0", "n3"), false},
		{ntfact("edge", "n0", "n3"), true},
		{ntfact("edge", "n0", "stranger"), false},
		{tfact("nosuch", 3, "n0"), false},
		{tfact("path", 1<<40, "n0", "n0"), false},
	}
	n := testing.AllocsPerRun(100, func() {
		for _, p := range probes {
			if s.Has(p.f) != p.want {
				t.Fatalf("Has(%s) = %v", p.f, !p.want)
			}
		}
	})
	if n != 0 {
		t.Errorf("Has allocates %.0f times per %d probes, want 0", n, len(probes))
	}
	if len(s.syms.names) != syms {
		t.Errorf("reads interned %d symbols", len(s.syms.names)-syms)
	}
}

// TestAllocBudgetIndexProbe: once a mask's index exists, a bucket lookup
// — present or absent key — allocates nothing.
func TestAllocBudgetIndexProbe(t *testing.T) {
	s := NewStore()
	for i := 0; i < 500; i++ {
		s.Insert(ntfact("e", fmt.Sprintf("a%d", i%20), fmt.Sprintf("b%d", i%50), fmt.Sprintf("c%d", i)))
	}
	rs := s.nt(s.syms.predIDs[predKey{name: "e", arity: 3}])
	hit := []uint32{s.syms.ids["a7"], s.syms.ids["b7"]}
	miss := []uint32{s.syms.ids["a7"], s.syms.ids["b8"]}
	rs.bucket(3, hit) // build
	n := testing.AllocsPerRun(100, func() {
		if sp, _ := rs.bucket(3, hit); spanLen(sp) != 5 {
			t.Fatalf("bucket hit = %d rows, want 5", spanLen(sp))
		}
		if sp, _ := rs.bucket(3, miss); sp.ok {
			t.Fatal("bucket miss returned rows")
		}
	})
	if n != 0 {
		t.Errorf("index probe allocates %.0f times, want 0", n)
	}
}

// spanLen counts a span's rows without allocating.
func spanLen(sp rowSpan) int {
	n := 0
	for more := sp.ok; more; more = sp.advance() {
		n++
	}
	return n
}

// TestAllocBudgetInserts: N new facts into one shard — rows, membership
// table and two maintained indexes — cost O(log N) allocations in total
// (amortized slice growth), not O(N).
func TestAllocBudgetInserts(t *testing.T) {
	const side = 128 // N = side*side new rows per run
	s := NewStore()
	ids := make([]uint32, side)
	for i := range ids {
		ids[i] = s.intern(fmt.Sprintf("c%d", i))
	}
	run := 0
	n := testing.AllocsPerRun(3, func() {
		// A fresh predicate per run: every row below is new.
		p := s.internPred(fmt.Sprintf("p%d", run), 2, true)
		run++
		s.insertRow(p, 0, []uint32{ids[0], ids[0]})
		rs := s.at(p, 0)
		rs.bucket(1, ids[:1])
		rs.bucket(2, ids[:1])
		row := make([]uint32, 2)
		for i := 0; i < side; i++ {
			for j := 0; j < side; j++ {
				row[0], row[1] = ids[i], ids[j]
				s.insertRow(p, 0, row)
			}
		}
		if rs.n != side*side {
			t.Fatalf("shard holds %d rows, want %d", rs.n, side*side)
		}
	})
	const N = side * side
	if budget := float64(16 * bits.Len(N)); n > budget {
		t.Errorf("%d inserts allocate %.0f times, budget %.0f (16·log2 N)", N, n, budget)
	}
}

// TestAllocBudgetForkWrite: a clone plus one new row into a shared shard
// that has built two indexes — the copy-on-write step of every ingest —
// allocates the same few objects and under 1 KB at N = 256 and at
// N = 16 384 rows: the write forks an overlay over the frozen shard
// instead of copying its rows, membership table and indexes.
func TestAllocBudgetForkWrite(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var objects []float64
	for _, side := range []int{16, 128} { // N = side*side
		s := NewStore()
		ids := make([]uint32, side)
		for i := range ids {
			ids[i] = s.intern(fmt.Sprintf("c%d", i))
		}
		p := s.internPred("p", 2, true)
		row := make([]uint32, 2)
		for _, a := range ids {
			for _, b := range ids {
				row[0], row[1] = a, b
				s.insertRow(p, 0, row)
			}
		}
		s.at(p, 0).bucket(1, ids[:1])
		s.at(p, 0).bucket(2, ids[:1])
		fresh := s.intern("fresh")
		write := func() {
			c := s.Clone()
			row[0], row[1] = ids[0], fresh
			if _, added := c.insertRow(p, 0, row); !added {
				t.Fatal("insert into the fork was a duplicate")
			}
		}
		objects = append(objects, testing.AllocsPerRun(100, write))
		const runs = 100
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			write()
		}
		runtime.ReadMemStats(&m1)
		bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / runs
		t.Logf("N = %d: %.0f objects, %.0f bytes", side*side, objects[len(objects)-1], bytes)
		if bytes >= 1024 {
			t.Errorf("N = %d: clone and fork write allocate %.0f bytes, budget 1 KB", side*side, bytes)
		}
	}
	if objects[0] != objects[1] || objects[1] > 8 {
		t.Errorf("clone and fork write allocate %.0f objects at N = 256 and %.0f at N = 16 384, want the same few", objects[0], objects[1])
	}
}
