package engine

// Allocation budgets: the store's claims — no string is built and nothing
// is heap-allocated per probe or per duplicate, a new fact costs amortized
// slice growth only — pinned without a clock. scripts/ci.sh names these
// tests explicitly.

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"testing"
	"unsafe"

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
	syms := s.syms.nsyms()
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
	if s.syms.nsyms() != syms {
		t.Errorf("reads interned %d symbols", s.syms.nsyms()-syms)
	}
}

// TestAllocBudgetIndexProbe: once a mask's index exists, a bucket lookup
// — present or absent key — allocates nothing; and a member step (a
// literal bound on every column) allocates nothing and builds no index,
// hit or miss, on a flat shard with a membership table, on one without,
// and on an overlay, whose hit may be in its tail.
func TestAllocBudgetIndexProbe(t *testing.T) {
	s := NewStore()
	for i := 0; i < 500; i++ {
		s.Insert(ntfact("e", fmt.Sprintf("a%d", i%20), fmt.Sprintf("b%d", i%50), fmt.Sprintf("c%d", i)))
	}
	rs := s.nt(s.syms.predIDs[predKey{name: "e", arity: 3}])
	hit := []uint32{s.syms.ids["a7"], s.syms.ids["b7"]}
	miss := []uint32{s.syms.ids["a7"], s.syms.ids["b8"]}
	rs.bucket(3, hit, nil) // build
	n := testing.AllocsPerRun(100, func() {
		if sp, _ := rs.bucket(3, hit, nil); spanLen(sp) != 5 {
			t.Fatalf("bucket hit = %d rows, want 5", spanLen(sp))
		}
		if sp, _ := rs.bucket(3, miss, nil); sp.ok {
			t.Fatal("bucket miss returned rows")
		}
	})
	if n != 0 {
		t.Errorf("index probe allocates %.0f times, want 0", n)
	}

	// Each rule's e literal is a member step: a hit in the base rows, a
	// hit only the overlay's tail holds, and a miss. Every emit below is
	// a duplicate, which allocates nothing.
	const memberSrc = "base(T+1) :- tick(T), e(a7, b7).\ntail(T+1) :- tick(T), e(t1, t2).\nmiss(T+1) :- tick(T), e(a7, b8).\ntick(0).\n"
	var big []byte
	for i := 0; i < 500; i++ {
		big = fmt.Appendf(big, "e(a%d, b%d).\n", i%20, i)
	}
	table := mustEval(t, memberSrc+string(big))
	table.EnsureWindow(2)
	overlay := table.Clone()
	if ok, err := overlay.InsertBase(ntfact("e", "t1", "t2")); !ok || err != nil {
		t.Fatalf("InsertBase(e(t1, t2)) = %v, %v", ok, err)
	}
	overlay.PropagateDelta([]ast.Fact{ntfact("e", "t1", "t2")})
	small := mustEval(t, memberSrc+"e(a7, b7).\ne(a1, b1).\ne(a2, b2).\n")
	small.EnsureWindow(2)
	for _, c := range []struct {
		name  string
		e     *Evaluator
		check func(rs *relset) bool
		tail  bool
	}{
		{"flat shard with a table", table, func(rs *relset) bool { return rs.base == nil && rs.tab != nil }, false},
		{"flat shard without a table", small, func(rs *relset) bool { return rs.base == nil && rs.tab == nil }, false},
		{"overlay with a tail", overlay, func(rs *relset) bool { return rs.base != nil && len(rs.rows) > 0 }, true},
	} {
		rs := c.e.store.nt(c.e.store.syms.predIDs[predKey{name: "e", arity: 2}])
		if !c.check(rs) {
			t.Fatalf("%s: the e shard has the wrong form", c.name)
		}
		for i := range c.e.rules {
			if st := c.e.plans[i].steps[0]; !st.member {
				t.Fatalf("%s: %s does not start with a member step:\n%s", c.name, c.e.rules[i].text, c.e.PlanText())
			}
		}
		n := testing.AllocsPerRun(100, func() {
			for i := range c.e.rules {
				if c.e.fireRule(&c.e.rules[i], 0) != 0 {
					t.Fatalf("%s: %s derived a new fact", c.name, c.e.rules[i].text)
				}
			}
		})
		if n != 0 {
			t.Errorf("%s: member steps allocate %.0f times, want 0", c.name, n)
		}
		for ; rs != nil; rs = rs.base {
			if rs.idx.Load() != nil {
				t.Errorf("%s: a member step installed an index table", c.name)
			}
		}
		for _, w := range []struct {
			f    ast.Fact
			want bool
		}{{tfact("base", 1), true}, {tfact("tail", 1), c.tail}, {tfact("miss", 1), false}} {
			if c.e.Holds(w.f) != w.want {
				t.Errorf("%s: %s holds = %v, want %v", c.name, w.f, !w.want, w.want)
			}
		}
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
		rs.bucket(1, ids[:1], nil)
		rs.bucket(2, ids[:1], nil)
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
		s.at(p, 0).bucket(1, ids[:1], nil)
		s.at(p, 0).bucket(2, ids[:1], nil)
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

// TestAllocBudgetForkInsertBase: an ingest tick's fixed cost. Along a
// chain of clones — each step clones the step before, as a chain of
// Asserts does — a clone of the evaluator plus InsertBase of a database
// fact that brings a fresh constant in allocates the same few objects
// (< 2 KB) whether the database holds 256 facts or 16 384: the clone
// shares both symbol tables and appends past their ends, and the write
// into the shared shard copies only its overlay's tail.
// What remains is fixed: the evaluator, its store, the store's predicate
// array and one overlay (the store also answers database membership).
// The chain is measured for fewer than tailCap steps; at tailCap an
// overlay is flattened and a symbol tail folded, O(shard) and O(symbols)
// once per tailCap writes. The bytes are the median step's: a symbol log
// that outgrows its array regrows on one step, amortized O(1) per append.
func TestAllocBudgetForkInsertBase(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 12 // two measured chains of runs+1 steps each stay below tailCap
	var objects []float64
	for _, side := range []int{16, 128} { // |D| = side*side
		var src []byte
		src = append(src, "p(T+1, X) :- p(T, X), e(X, Y).\n"...)
		for a := 0; a < side; a++ {
			for b := 0; b < side; b++ {
				src = fmt.Appendf(src, "e(c%d, c%d).\n", a, b)
			}
		}
		root := mustEval(t, string(src))
		fresh := make([]ast.Fact, 2*runs+3)
		for i := range fresh {
			fresh[i] = ntfact("e", "c0", fmt.Sprintf("fresh%d", i))
		}
		next := 0
		tip := root
		step := func() {
			tip = tip.Clone()
			if ok, err := tip.InsertBase(fresh[next]); !ok || err != nil {
				t.Fatalf("InsertBase(%s) = %v, %v", fresh[next], ok, err)
			}
			next++
		}
		step() // the root's symbol logs have no spare capacity: one copy
		objects = append(objects, testing.AllocsPerRun(runs, step))
		perStep := make([]uint64, runs)
		for i := range perStep {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			step()
			runtime.ReadMemStats(&m1)
			perStep[i] = m1.TotalAlloc - m0.TotalAlloc
		}
		slices.Sort(perStep)
		bytes := float64(perStep[runs/2])
		t.Logf("|D| = %d: %.0f objects, median step %.0f bytes (all steps %v)", side*side, objects[len(objects)-1], bytes, perStep)
		if bytes >= 2048 {
			t.Errorf("|D| = %d: clone and InsertBase allocate %.0f bytes, budget 2 KB", side*side, bytes)
		}
	}
	if objects[0] != objects[1] {
		t.Errorf("clone and InsertBase allocate %.0f objects at |D| = 256 and %.0f at |D| = 16 384, want the same", objects[0], objects[1])
	}
}

// TestAllocBudgetForkFirstInsert: the first ingest into a fork of a root
// that has never ingested — Clone, InsertBase of a fact of a predicate a
// rule derives, PropagateDelta of it — allocates the same objects whether
// the database holds 257 facts or 16 385, and no more than 4 KB in all:
// the database is held only by the store, which tells a database fact
// from a derived one, and the planner's support seeds are read from its
// counts, without a pass over the database.
func TestAllocBudgetForkFirstInsert(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 20
	var objects []float64
	for _, side := range []int{16, 128} { // |D| = side*side + 1
		src := []byte("p(T+1, X) :- p(T, X), e(X, Y).\np(0, c0).\n")
		for a := 0; a < side; a++ {
			for b := 0; b < side; b++ {
				src = fmt.Appendf(src, "e(c%d, c%d).\n", a, b)
			}
		}
		root := mustEval(t, string(src))
		root.EnsureWindow(4)
		seed := []ast.Fact{tfact("p", 2, "c1")}
		var tip *Evaluator
		step := func() {
			tip = root.Clone()
			if ok, err := tip.InsertBase(seed[0]); !ok || err != nil {
				t.Fatalf("InsertBase(%s) = %v, %v", seed[0], ok, err)
			}
			if n := tip.PropagateDelta(seed); n != 2 {
				t.Fatalf("PropagateDelta derived %d facts, want 2", n)
			}
		}
		objects = append(objects, testing.AllocsPerRun(runs, step))
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			step()
		}
		runtime.ReadMemStats(&m1)
		bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / runs
		t.Logf("|D| = %d: %.0f objects, %.0f bytes", side*side+1, objects[len(objects)-1], bytes)
		if bytes >= 4096 {
			t.Errorf("|D| = %d: a fork's first insert allocates %.0f bytes, budget 4 KB", side*side+1, bytes)
		}
	}
	if objects[0] != objects[1] {
		t.Errorf("a fork's first insert allocates %.0f objects at |D| = 257 and %.0f at |D| = 16 385, want the same", objects[0], objects[1])
	}
}

// coldWindowState evaluates, one state at a time past the base, a p = 1
// reach-shaped model whose first rule is rule over k nodes — a complete
// graph, or with cycle the cycle n0 → n1 → … → n0 — so that every state
// past the base holds k² rows. It returns the objects one state
// allocates, the bytes of one more state, and the evaluator.
func coldWindowState(t *testing.T, rule string, k int, cycle bool) (float64, uint64, *Evaluator) {
	t.Helper()
	const runs = 8
	src := []byte(rule + "\npath(K+1, X, Y) :- path(K, X, Y).\npath(K, X, X) :- node(X), null(K).\nnull(0).\n")
	for i := 0; i < k; i++ {
		src = fmt.Appendf(src, "node(n%d).\n", i)
		for j := 0; j < k; j++ {
			if !cycle || j == (i+1)%k {
				src = fmt.Appendf(src, "edge(n%d, n%d).\n", i, j)
			}
		}
	}
	e := mustEval(t, string(src))
	w := 4 // past the base: 1 on a complete graph, k-1 on a cycle
	if cycle {
		w = k + 2
	}
	e.EnsureWindow(w)
	// One state at a time — a warm-up, runs, and one more — as
	// EnsureWindow(w+runs+2) closes them after planning at its entry.
	e.planJoins()
	e.store.horizon = w + runs + 2
	state := func() {
		e.evaluated++
		e.evalState(e.evaluated, e.evaluated)
	}
	objects := testing.AllocsPerRun(runs, state)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	state()
	runtime.ReadMemStats(&m1)
	if n := e.store.StateSize(e.evaluated); n != k*k {
		t.Fatalf("k = %d: state %d holds %d rows, want %d", k, e.evaluated, n, k*k)
	}
	return objects, m1.TotalAlloc - m0.TotalAlloc, e
}

// TestAllocBudgetColdWindow: past the base of a p = 1 model every state
// holds the rows of the state before it, so a state's shard is allocated
// once at its final size — the shard, its rows and its membership table —
// and never regrown. The joins scan the state and probe the non-temporal
// edge relation, whose index is built once, so what a state allocates is
// its shard. At k = 8 and k = 32 (64 and 1 024 rows) each state allocates
// the same few objects, and at most 1.5 times the bytes its rows and table
// retain.
func TestAllocBudgetColdWindow(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var objects []float64
	for _, k := range []int{8, 32} {
		n, bytes, e := coldWindowState(t, "path(K+1, X, Z) :- path(K, X, Y), edge(Y, Z).", k, false)
		objects = append(objects, n)
		rs := e.store.at(e.rules[0].headP, e.evaluated)
		kept := 4 * uint64(cap(rs.rows)+len(rs.tab))
		t.Logf("k = %d: %.0f objects, %d bytes per state for %d bytes of rows and table", k, n, bytes, kept)
		if 2*bytes > 3*kept {
			t.Errorf("k = %d: a state allocates %d bytes for %d bytes of rows and table, budget 1.5×", k, bytes, kept)
		}
	}
	if objects[0] != objects[1] || objects[1] > 4 {
		t.Errorf("a state past the base allocates %.0f objects at 64 rows and %.0f at 1 024, want the same few", objects[0], objects[1])
	}
}

// TestAllocBudgetColdWindowIndex: the same model over a cycle of k nodes,
// whose k edges are fewer than a state's k² rows, so the plan scans edge
// and probes path(K) on a bound column: every state builds an index over
// the state before it. The build is sized from that state's own
// predecessor's index — the same k groups past the base — so a state
// allocates the same number of objects at k = 8 and k = 32.
func TestAllocBudgetColdWindowIndex(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var objects []float64
	for _, k := range []int{8, 32} {
		n, bytes, e := coldWindowState(t, "path(K+1, X, Z) :- edge(X, Y), path(K, Y, Z).", k, true)
		objects = append(objects, n)
		if e.store.at(e.rules[0].headP, e.evaluated-1).groups(1) != k {
			t.Fatalf("k = %d: the plan built no index on path's first column", k)
		}
		t.Logf("k = %d: %.0f objects, %d bytes per state", k, n, bytes)
	}
	if objects[0] != objects[1] {
		t.Errorf("a state past the base allocates %.0f objects at 64 rows and %.0f at 1 024, want the same", objects[0], objects[1])
	}
}

// TestAllocBudgetShrinkingStates: a state is sized from the state before
// it, so a small state after a large one starts with the large one's
// capacity; closing it gives back what it did not use. The model
// alternates between 500 rows and one row of one predicate (p = 2); with
// the evaluator reachable after a collection, it retains at most 256
// bytes per small state more than the same model without the small
// states. Each model is measured three times after a warm-up run, and
// the least reading is kept.
func TestAllocBudgetShrinkingStates(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const window = 128
	retained := func(small bool) int64 {
		src := []byte("big(T+2, X) :- big(T, X).\n")
		for i := 0; i < 500; i++ {
			src = fmt.Appendf(src, "big(0, a%d).\n", i)
		}
		if small {
			src = append(src, "big(1, b).\n"...)
		}
		prog, db := mustTDD(t, string(src))
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		e, err := New(prog, db)
		if err != nil {
			t.Fatal(err)
		}
		e.EnsureWindow(window)
		runtime.GC()
		runtime.ReadMemStats(&m1)
		runtime.KeepAlive(e)
		return int64(m1.HeapAlloc) - int64(m0.HeapAlloc)
	}
	retained(true)
	large, both := retained(false), retained(true)
	for i := 0; i < 2; i++ {
		large, both = min(large, retained(false)), min(both, retained(true))
	}
	const smalls = window / 2
	t.Logf("retained: %d bytes with the small states, %d without (%d small states)", both, large, smalls)
	if both-large > 256*smalls {
		t.Errorf("%d small states retain %d bytes, budget %d: a state sized from a larger one keeps its slack", smalls, both-large, 256*smalls)
	}
}

// TestAllocBudgetNewAxis: New sizes each temporal predicate's time axis in
// its counting pass over the database, so on a database given in
// ascending time order each axis is allocated exactly once, at its final
// length. The database holds k propositions at every time point 0..n-1;
// a proposition has one shared shard, so the axes are all that New
// allocates per time point. New allocates the same objects at n = 2 and
// n = 511, for k = 1 and k = 8, and each axis ends with no spare room.
func TestAllocBudgetNewAxis(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, k := range []int{1, 8} {
		var objects []float64
		for _, n := range []int{2, 511} {
			var src []byte
			for tm := 0; tm < n; tm++ {
				for i := 0; i < k; i++ {
					src = fmt.Appendf(src, "p%d(%d).\n", i, tm)
				}
			}
			prog, db := mustTDD(t, string(src))
			var e *Evaluator
			objects = append(objects, testing.AllocsPerRun(10, func() {
				var err error
				if e, err = New(prog, db); err != nil {
					t.Fatal(err)
				}
			}))
			for i := 0; i < k; i++ {
				pred, _ := e.store.PredID(fmt.Sprintf("p%d", i), 0, true)
				if ax := e.store.rels[pred].byTime; len(ax) != n || cap(ax) != n {
					t.Errorf("k = %d, n = %d: p%d's axis has length %d and capacity %d, want %d", k, n, i, len(ax), cap(ax), n)
				}
			}
		}
		t.Logf("k = %d: New allocates %.0f objects at n = 2 and %.0f at n = 511", k, objects[0], objects[1])
		if objects[0] != objects[1] {
			t.Errorf("k = %d: New allocates %.0f objects at n = 2 and %.0f at n = 511: an axis regrew", k, objects[0], objects[1])
		}
	}
}

// TestAllocBudgetCloneAxis: a clone shares every predicate's time axis,
// and a write copies the axis of the one predicate it lands in. A store
// holds k temporal predicates with one-row shards at 1 024 time points
// each; a Clone followed by one write into the first predicate allocates
// the same objects at k = 1 and k = 8, and at most one axis plus 4 KB:
// the store, its predicate array and one forked shard.
func TestAllocBudgetCloneAxis(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const points, runs = 1024, 50
	axis := float64(points * unsafe.Sizeof((*relset)(nil)))
	var objects []float64
	for _, k := range []int{1, 8} {
		s := NewStore()
		a, fresh := s.intern("a"), s.intern("fresh")
		preds := make([]uint32, k)
		for i := range preds {
			preds[i] = s.internPred(fmt.Sprintf("p%d", i), 1, true)
			for tm := 0; tm < points; tm++ {
				s.insertRow(preds[i], tm, []uint32{a})
			}
		}
		write := func() {
			c := s.Clone()
			if _, added := c.insertRow(preds[0], points/2, []uint32{fresh}); !added {
				t.Fatal("insert into the clone was a duplicate")
			}
		}
		objects = append(objects, testing.AllocsPerRun(runs, write))
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			write()
		}
		runtime.ReadMemStats(&m1)
		bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / runs
		t.Logf("k = %d: %.0f objects, %.0f bytes for an axis of %.0f bytes", k, objects[len(objects)-1], bytes, axis)
		if bytes > axis+4096 {
			t.Errorf("k = %d: clone and write allocate %.0f bytes, budget one axis (%.0f) + 4 KB", k, bytes, axis)
		}
	}
	if objects[0] != objects[1] {
		t.Errorf("clone and write allocate %.0f objects at k = 1 and %.0f at k = 8, want the same", objects[0], objects[1])
	}
}

// TestAllocBudgetClassAxis: EnsureWindow sizes the class axis once, at
// the horizon, as it sizes the time axes, and looks closing states up in
// a table of the classes, not of the window. On a model whose states
// repeat from time point 1 on (two classes), evaluating a window of W
// states cold allocates the same objects at W = 256 and W = 2 048, and
// leaves a class axis of exactly W+1 ids: one allocation at the horizon,
// never regrown. (Bytes are not budgeted here: the race detector's
// runtime allocates more for the same objects.)
func TestAllocBudgetClassAxis(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const src = "p(T+1, X) :- p(T, X).\nq(T+1) :- q(T).\np(0, a). p(0, b). q(0). r(0).\n"
	prog, db := mustTDD(t, src)
	var objects []float64
	windows := []int{256, 2048}
	for _, w := range windows {
		var e *Evaluator
		objects = append(objects, testing.AllocsPerRun(10, func() {
			var err error
			if e, err = New(prog, db); err != nil {
				t.Fatal(err)
			}
			e.EnsureWindow(w)
		}))
		if a := e.store.classes; len(a.class) != w+1 || cap(a.class) != w+1 || len(a.first) != 2 {
			t.Errorf("W = %d: class axis of length %d and capacity %d with %d classes, want %d, %d and 2", w, len(a.class), cap(a.class), len(a.first), w+1, w+1)
		}
	}
	t.Logf("cold window: %.0f objects at W = %d, %.0f at W = %d", objects[0], windows[0], objects[1], windows[1])
	if objects[0] != objects[1] {
		t.Errorf("a cold window allocates %.0f objects at W = %d and %.0f at W = %d, want the same", objects[0], windows[0], objects[1], windows[1])
	}
}
