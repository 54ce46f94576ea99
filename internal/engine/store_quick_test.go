package engine

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"tdd/internal/ast"
)

// Property: the store is an exact set — after inserting an arbitrary bag
// of facts, membership holds exactly for the inserted ones and Len counts
// the distinct ones.
func TestStoreIsAnExactSet(t *testing.T) {
	type probe struct {
		Pred     uint8
		Temporal bool
		Time     uint8
		A, B     uint8
	}
	f := func(bag []probe) bool {
		s := NewStore()
		want := map[string]bool{}
		for _, p := range bag {
			fact := ast.Fact{
				Pred:     fmt.Sprintf("p%d", p.Pred%4),
				Temporal: p.Temporal,
				Args:     []string{fmt.Sprintf("a%d", p.A%3), fmt.Sprintf("b%d", p.B%3)},
			}
			if p.Temporal {
				fact.Time = int(p.Time % 8)
			}
			added := s.Insert(fact)
			key := fact.String()
			if added == want[key] {
				return false // Insert must report new-ness exactly
			}
			want[key] = true
		}
		if s.Len() != len(want) {
			return false
		}
		for _, p := range bag {
			fact := ast.Fact{
				Pred:     fmt.Sprintf("p%d", p.Pred%4),
				Temporal: p.Temporal,
				Args:     []string{fmt.Sprintf("a%d", p.A%3), fmt.Sprintf("b%d", p.B%3)},
			}
			if p.Temporal {
				fact.Time = int(p.Time % 8)
			}
			if !s.Has(fact) {
				return false
			}
			// A near-miss must not be present unless separately inserted.
			miss := fact
			miss.Args = []string{"zz", "zz"}
			if s.Has(miss) && !want[miss.String()] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: StateKey and StateFingerprint are permutation-invariant — the
// canonical state depends only on the set of facts at a time point, not
// on insertion order nor on the order constants were interned in.
func TestStateKeyPermutationInvariant(t *testing.T) {
	f := func(perm []uint8) bool {
		facts := []ast.Fact{
			tfact("p", 3, "a"),
			tfact("p", 3, "b"),
			tfact("q", 3, "a", "b"),
			tfact("r", 3),
		}
		s1 := NewStore()
		for _, fa := range facts {
			s1.Insert(fa)
		}
		s2 := NewStore()
		// Other symbol ids for the same names.
		s2.Insert(ntfact("warmup", "b", "zz", "a"))
		// Insert in an order driven by the random permutation seed.
		order := []int{0, 1, 2, 3}
		for i, p := range perm {
			j := int(p) % len(order)
			k := i % len(order)
			order[j], order[k] = order[k], order[j]
		}
		for _, i := range order {
			s2.Insert(facts[i])
		}
		return s1.StateKey(3) == s2.StateKey(3) && s1.StateFingerprint(3) == s2.StateFingerprint(3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: over random stores, two time points have equal fingerprints
// exactly when their StateKeys are equal, and StateEqual agrees — within
// one store and across two stores built independently.
func TestFingerprintAgreesWithStateKey(t *testing.T) {
	type ins struct{ Pred, Time, A, B uint8 }
	build := func(bag []ins) *Store {
		s := NewStore()
		for _, p := range bag {
			f := tfact(fmt.Sprintf("p%d", p.Pred%3), int(p.Time%6), fmt.Sprintf("a%d", p.A%3))
			if p.Pred%2 == 0 {
				f.Args = append(f.Args, fmt.Sprintf("a%d", p.B%3))
			}
			s.Insert(f)
		}
		return s
	}
	f := func(bag1, bag2 []ins) bool {
		s1, s2 := build(bag1), build(append(bag2, bag1...))
		for t1 := 0; t1 < 6; t1++ {
			for t2 := 0; t2 < 6; t2++ {
				same := s1.StateKey(t1) == s1.StateKey(t2)
				if (s1.StateFingerprint(t1) == s1.StateFingerprint(t2)) != same || s1.StateEqual(t1, t2) != same {
					return false
				}
				if (s1.StateFingerprint(t1) == s2.StateFingerprint(t2)) != (s1.StateKey(t1) == s2.StateKey(t2)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// storedRows renders a shard's rows in enumeration order.
func storedRows(s *Store, rs *relset) [][]string {
	var got [][]string
	for _, n := range bucketRows(rs, 0, nil) {
		got = append(got, s.names(rs.row(n)))
	}
	return got
}

// TestStoreIterationOrderDeterministic is the regression test for the
// map-order bug: relset iteration (scan, bucket, State, Snapshot) must
// follow insertion order, including through copy-on-write forks — base
// rows, then the tail — and the flatten of a tail that reached tailCap,
// so join enumeration and answer rendering cannot reshuffle between runs.
func TestStoreIterationOrderDeterministic(t *testing.T) {
	ins := [][]string{{"c", "1"}, {"a", "2"}, {"b", "3"}, {"a", "1"}, {"z", "0"}}
	s := NewStore()
	for _, tup := range ins {
		s.Insert(ast.Fact{Pred: "e", Args: tup})
	}
	e := s.syms.predIDs[predKey{name: "e", arity: 2}]
	if got := storedRows(s, s.nt(e)); !reflect.DeepEqual(got, ins) {
		t.Fatalf("scan order = %v, want insertion order %v", got, ins)
	}

	// Each write goes through a clone of the store before it, as Assert
	// does: the first forks an overlay of the shared shard, the next ones
	// fork that overlay's tail, the tailCap-th write flattens it, and the
	// write after that overlays the flattened shard. The order must
	// survive every step, and the original must not see any write.
	want := append([][]string{}, ins...)
	c := s
	for i := 0; i <= tailCap; i++ {
		c = c.Clone()
		tup := []string{"m", fmt.Sprint(i)}
		c.Insert(ast.Fact{Pred: "e", Args: tup})
		want = append(want, tup)
		if got := storedRows(c, c.nt(e)); !reflect.DeepEqual(got, want) {
			t.Fatalf("scan order after write %d = %v, want %v", i, got, want)
		}
	}
	if got := storedRows(s, s.nt(e)); !reflect.DeepEqual(got, ins) {
		t.Fatalf("original after clone writes = %v, want %v", got, ins)
	}
	if err := checkStoreIndexes(c); err != nil {
		t.Error(err)
	}
}

// TestForkOverlaysSharedShard: a write through a clone into a shared
// shard forks an overlay of it — the frozen original becomes the base and
// is left as it was, the write lands in a private tail — and bucket on
// the fork returns the base's index group, then the tail rows with the
// key, in insertion order. An index the fork builds lands on the shared
// base. A tail that reaches tailCap flattens into a flat shard carrying
// the base's indexes, which it maintains from then on.
func TestForkOverlaysSharedShard(t *testing.T) {
	s := NewStore()
	for i := 0; i < 40; i++ {
		s.Insert(tfact("p", 2, fmt.Sprintf("a%d", i%5), fmt.Sprintf("b%d", i)))
	}
	p := s.syms.predIDs[predKey{name: "p", arity: 2, temporal: true}]
	orig := s.at(p, 2)
	a3 := []uint32{s.syms.ids["a3"]}
	origA3 := bucketRows(orig, 1, a3)
	if len(origA3) != 8 {
		t.Fatalf("bucket(a3) = %d rows, want 8", len(origA3))
	}
	c := s.Clone()
	c.Insert(tfact("p", 2, "a3", "fresh"))
	c.Insert(tfact("p", 2, "a1", "other"))
	c.Insert(tfact("p", 2, "a3", "fresh2"))
	fork := c.at(p, 2)
	if fork == orig || fork.base != orig || fork.tab != nil || fork.idx.Load() != nil {
		t.Fatal("write through the clone did not fork an overlay of the shared shard")
	}
	if got, want := bucketRows(fork, 1, a3), slices.Concat(origA3, []uint32{40, 42}); !slices.Equal(got, want) {
		t.Errorf("fork bucket(a3) = %v, want base group then tail %v", got, want)
	}
	a1 := []uint32{s.syms.ids["a1"]}
	fork.bucket(2, a1, nil) // a mask the base has not built
	if tbl := orig.idx.Load(); tbl == nil || len(tbl.entries) != 2 {
		t.Fatalf("the fork's index build did not land on the shared base: %+v", tbl)
	}
	if orig.n != 40 || len(orig.rows) != 80 || !slices.Equal(bucketRows(orig, 1, a3), origA3) || s.Has(tfact("p", 2, "a3", "fresh")) {
		t.Fatal("write through the clone changed the frozen original")
	}
	for _, ix := range orig.idx.Load().entries {
		if len(ix.next) != 40 {
			t.Errorf("frozen original's mask-%x index covers %d rows, want 40", ix.mask, len(ix.next))
		}
	}

	for i := 3; i < tailCap; i++ {
		c.Insert(tfact("p", 2, fmt.Sprintf("a%d", i%5), fmt.Sprintf("c%d", i)))
	}
	if fork.base != nil || fork.n != 40+tailCap {
		t.Fatalf("a tail of %d rows did not flatten (base %p, %d rows)", tailCap, fork.base, fork.n)
	}
	tbl := fork.idx.Load()
	if tbl == nil || len(tbl.entries) != 2 || tbl.entries[0].mask != 1 || tbl.entries[1].mask != 2 {
		t.Fatalf("flattened shard carries indexes %+v, want the base's mask-1 and mask-2 indexes", tbl)
	}
	c.Insert(tfact("p", 2, "a3", "after"))
	if got := bucketRows(fork, 1, a3); got[len(got)-1] != uint32(fork.n-1) {
		t.Errorf("carried index after insert: bucket(a3) = %v, missing row %d", got, fork.n-1)
	}
	for _, st := range []*Store{s, c} {
		if err := checkStoreIndexes(st); err != nil {
			t.Error(err)
		}
	}
}

// TestSparseTimePoints: a fact far beyond the dense prefix of its
// predicate's time axis lands in the overflow map — it must not allocate a
// slot per time point up to it — and moves into the prefix when the
// evaluated window reaches it.
func TestSparseTimePoints(t *testing.T) {
	s := NewStore()
	far, mid := 1<<40, denseSlack+300
	s.Insert(tfact("p", 0, "a"))
	s.Insert(tfact("p", far, "a"))
	s.Insert(tfact("p", mid, "b"))
	p := s.syms.predIDs[predKey{name: "p", arity: 1, temporal: true}]
	if n := len(s.rels[p].byTime); n > denseSlack+2 {
		t.Fatalf("dense prefix grew to %d slots for three facts", n)
	}
	c := s.Clone()
	for tm := 1; tm <= mid+100; tm++ {
		c.Insert(tfact("p", tm, "a"))
	}
	for _, st := range []*Store{s, c} {
		if !st.Has(tfact("p", far, "a")) || !st.Has(tfact("p", mid, "b")) || st.Has(tfact("p", far-1, "a")) || st.Has(tfact("p", -1, "a")) {
			t.Error("membership wrong around sparse time points")
		}
		if got := st.StateSize(far); got != 1 {
			t.Errorf("StateSize(far) = %d, want 1", got)
		}
	}
	if got := c.Snapshot(mid); len(got) != 2 {
		t.Errorf("Snapshot(mid) = %v, want both facts after the prefix grew over the overflow entry", got)
	}
	if len(c.rels[p].far) != 1 || len(s.rels[p].far) != 2 {
		t.Errorf("overflow entries: clone %d (want 1), original %d (want 2)", len(c.rels[p].far), len(s.rels[p].far))
	}
	if f, st := c.card(p); f != mid+103 || st != mid+102 {
		t.Errorf("card = (%d, %d), want (%d, %d)", f, st, mid+103, mid+102)
	}
	if err := checkStoreIndexes(s); err != nil {
		t.Error(err)
	}
}

// TestConstantsIsTheActiveDomain: Constants is served from occurrence
// marks — a rule constant that appears in no fact stays out of the
// domain until a derivation or a base fact brings it in — and the cached
// slice is dropped by exactly those events, in every clone separately.
func TestConstantsIsTheActiveDomain(t *testing.T) {
	e := mustEval(t, `
tag(T+1, late) :- tick(T), marked(never).
tag(T+1, early) :- tick(T).
tick(T+1) :- tick(T).
tick(0).
label(x).
`)
	want := func(ev *Evaluator, consts ...string) {
		t.Helper()
		if got := ev.Store().Constants(); !reflect.DeepEqual(got, consts) {
			t.Errorf("Constants = %v, want %v", got, consts)
		}
	}
	// "late", "never" and "early" are interned by New but occur nowhere yet.
	want(e, "x")
	if _, ok := e.store.syms.ids["never"]; !ok {
		t.Fatal("rule constant was not interned at compile time")
	}
	e.EnsureWindow(3)
	want(e, "early", "x")
	c := e.Clone()
	want(c, "early", "x")
	if _, err := c.InsertBase(ntfact("marked", "never")); err != nil {
		t.Fatal(err)
	}
	c.PropagateDelta([]ast.Fact{ntfact("marked", "never")})
	want(c, "early", "late", "never", "x")
	want(e, "early", "x")
	// Served from the cache until the next new occurrence.
	if a, b := c.Store().Constants(), c.Store().Constants(); &a[0] != &b[0] {
		t.Error("Constants rebuilt without a new occurrence")
	}
}

// TestReadsNeverIntern: readers ask a published snapshot about constants
// and predicates nobody has ever named while a writer asserts new facts —
// with new constants — on forks of it. The asks answer false, the
// snapshot's symbol table does not grow, and (under -race) no read touches
// anything the writer's lineage mutates: the fork appends a new name past
// the snapshot's end of the shared log and folds its tail into private
// maps, never into the snapshot's.
func TestReadsNeverIntern(t *testing.T) {
	snap := mustEval(t, `
plane(T+2, X) :- plane(T, X), resort(X).
served(X) :- plane(T, X).
resort(r0). resort(r1).
plane(0, r0). plane(1, r1).
`)
	snap.EnsureWindow(16)
	table, syms, preds := snap.store.syms, snap.store.syms.nsyms(), len(snap.store.syms.preds.s)
	domain := len(snap.store.Constants())

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				stranger := fmt.Sprintf("stranger-%d-%d", g, i)
				if snap.Holds(tfact("plane", i%16, stranger)) || snap.Holds(ntfact("resort", stranger)) ||
					snap.Holds(ntfact(stranger, "r0")) || snap.Holds(tfact("plane", i%16, "r0", "r1")) {
					t.Errorf("snapshot holds a fact about %s", stranger)
				}
				if !snap.Holds(tfact("plane", 2*(i%8), "r0")) {
					t.Errorf("snapshot lost plane(%d, r0)", 2*(i%8))
				}
				if got := len(snap.store.Constants()); got != domain {
					t.Errorf("snapshot domain has %d constants, want %d", got, domain)
				}
			}
		}(g)
	}
	fork := snap.Clone()
	for i := 0; i < 50; i++ {
		fresh := fmt.Sprintf("r-new-%d", i)
		batch := []ast.Fact{ntfact("resort", fresh), tfact("plane", i%5, fresh), ntfact(fmt.Sprintf("tag%d", i), fresh)}
		for _, f := range batch {
			if ok, err := fork.InsertBase(f); err != nil || !ok {
				t.Fatalf("InsertBase(%s) = %v, %v", f, ok, err)
			}
		}
		fork.PropagateDelta(batch)
		if !fork.Holds(ntfact("served", fresh)) {
			t.Fatalf("fork did not derive served(%s)", fresh)
		}
		fork = fork.Clone() // the next tick forks the tick before, as Assert does
	}
	wg.Wait()

	if st := &snap.store.syms; st.nsyms() != syms || len(st.preds.s) != preds || st.idsN != table.idsN ||
		len(st.ids) != len(table.ids) {
		t.Errorf("published snapshot's symbol table changed: %d -> %d symbols, %d -> %d predicates, map %d -> %d",
			syms, st.nsyms(), preds, len(st.preds.s), len(table.ids), len(st.ids))
	}
	if got := fork.store.syms.nsyms(); got != syms+50 {
		t.Errorf("fork interned %d symbols, want %d", got-syms, 50)
	}
	if err := checkStoreIndexes(fork.store); err != nil {
		t.Error(err)
	}
}

// TestOverlayForkRace: two sibling forks write into one shared overlay —
// each forks it again, copying only the tail, and both write past tailCap,
// so each flattens, deep-copying the shared base and its indexes — while
// a reader builds indexes the base has not built yet, through bucket on
// the shared overlay. Under -race no write touches anything another
// goroutine reads, and every store sees exactly its own rows.
func TestOverlayForkRace(t *testing.T) {
	s := NewStore()
	for i := 0; i < 200; i++ {
		s.Insert(tfact("p", 1, fmt.Sprintf("a%d", i%10), fmt.Sprintf("b%d", i), "x"))
	}
	p := s.syms.predIDs[predKey{name: "p", arity: 3, temporal: true}]
	a1, x := s.syms.ids["a1"], s.syms.ids["x"]
	s.at(p, 1).bucket(1, []uint32{a1}, nil) // the base carries one index
	// Half a tail, so the shared tail slice has spare capacity a fork
	// that appended in place would write into.
	const midRows = tailCap / 2
	mid := s.Clone()
	for i := 0; i < midRows; i++ {
		mid.Insert(tfact("p", 1, "a1", fmt.Sprintf("mid%d", i), "x"))
	}
	shared := mid.at(p, 1)
	if shared.base != s.at(p, 1) {
		t.Fatal("the write through the clone did not overlay the shared shard")
	}
	forks := []*Store{mid.Clone(), mid.Clone()}

	var wg sync.WaitGroup
	for k, f := range forks {
		wg.Add(1)
		go func(k int, f *Store) {
			defer wg.Done()
			for i := 0; i < (k+1)*tailCap; i++ {
				f.Insert(tfact("p", 1, "a1", fmt.Sprintf("f%d-%d", k, i), "x"))
			}
		}(k, f)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, q := range []struct {
			mask uint32
			key  []uint32
			want int
		}{{4, []uint32{x}, 200 + midRows}, {5, []uint32{a1, x}, 20 + midRows}, {2, []uint32{x}, 0}, {1, []uint32{a1}, 20 + midRows}} {
			if got := len(bucketRows(shared, q.mask, q.key)); got != q.want {
				t.Errorf("shared overlay: bucket(mask %x) = %d rows, want %d", q.mask, got, q.want)
			}
		}
	}()
	wg.Wait()

	for k, f := range forks {
		rs := f.at(p, 1)
		if want := 200 + midRows + (k+1)*tailCap; rs.base != nil || int(rs.n) != want {
			t.Errorf("fork %d: %d rows, flat %v; want %d rows, flat", k, rs.n, rs.base == nil, want)
		}
		if f.Has(tfact("p", 1, "a1", fmt.Sprintf("f%d-0", 1-k), "x")) {
			t.Errorf("fork %d sees its sibling's write", k)
		}
	}
	if shared.n != 200+midRows || mid.Has(tfact("p", 1, "a1", "f0-0", "x")) {
		t.Error("the shared overlay changed under its forks")
	}
	for _, st := range append(forks, s, mid) {
		if err := checkStoreIndexes(st); err != nil {
			t.Error(err)
		}
	}
}

// TestCloneAxisRace: two clones of one store share its time axis of p.
// One extends the axis past its end and its spare capacity and forks the
// shard in the overflow map; the other forks shards inside the axis and
// adds a new overflow point. Meanwhile a reader reads every slot of the
// parent. Under -race neither clone writes an axis another goroutine
// reads, and every store holds exactly its own rows.
func TestCloneAxisRace(t *testing.T) {
	const points, far = 64, 5000
	s := NewStore()
	s.horizon = points + 8 // the axis has spare capacity a clone could append into
	for tm := 0; tm < points; tm++ {
		s.Insert(tfact("p", tm, "base"))
	}
	s.Insert(tfact("p", far, "base"))
	p, _ := s.PredID("p", 1, true)
	a, b := s.Clone(), s.Clone()
	if cap(s.rels[p].byTime) == points {
		t.Fatal("the parent's axis has no spare capacity")
	}
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for tm := points; tm < 4*points; tm++ {
			a.Insert(tfact("p", tm, "a"))
		}
		a.Insert(tfact("p", far, "a"))
	}()
	go func() {
		defer wg.Done()
		for tm := 0; tm < points; tm += 2 {
			b.Insert(tfact("p", tm, "b"))
		}
		b.Insert(tfact("p", 2*far, "b"))
	}()
	go func() {
		defer wg.Done()
		for tm := 0; tm <= 2*far; tm++ {
			want := tm < points || tm == far
			if got := s.Has(tfact("p", tm, "base")); got != want {
				t.Errorf("parent: p(%d, base) = %v, want %v", tm, got, want)
			}
		}
	}()
	wg.Wait()

	for _, c := range []struct {
		name string
		s    *Store
		own  func(tm int) []string
	}{
		{"parent", s, func(int) []string { return nil }},
		{"a", a, func(tm int) []string {
			if tm >= points && tm < 4*points || tm == far {
				return []string{"a"}
			}
			return nil
		}},
		{"b", b, func(tm int) []string {
			if tm < points && tm%2 == 0 || tm == 2*far {
				return []string{"b"}
			}
			return nil
		}},
	} {
		for tm := 0; tm <= 2*far; tm++ {
			want := c.own(tm)
			if tm < points || tm == far {
				want = append(want, "base")
			}
			var got []string
			for _, f := range c.s.Snapshot(tm) {
				got = append(got, f.Args[0])
			}
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Errorf("%s at %d: %v, want %v", c.name, tm, got, want)
			}
		}
		if err := checkStoreIndexes(c.s); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

// TestPropositionShard: a temporal predicate of arity 0 holds the one row
// () wherever it holds, so every time point where it holds points at one
// shared shard. Evaluated to 256 and to 4 096 states, tick has one
// distinct shard and even, which holds at every other state, one of its
// own; state fingerprints and StateEqual agree with StateKey, and every
// shard passes checkStoreIndexes; asserting the duplicate tick(5) on a
// clone forks no shard, and the store's duplicate insert allocates
// nothing.
func TestPropositionShard(t *testing.T) {
	for _, m := range []int{256, 4096} {
		e := mustEval(t, "tick(T+1) :- tick(T).\ntick(0).\neven(T+2) :- even(T).\neven(0).\n")
		e.EnsureWindow(m)
		s := e.Store()
		tick, _ := s.PredID("tick", 0, true)
		for _, name := range []string{"tick", "even"} {
			pred, _ := s.PredID(name, 0, true)
			distinct := make(map[*relset]bool)
			s.rels[pred].each(func(_ int, rs *relset) { distinct[rs] = true })
			if len(distinct) != 1 {
				t.Errorf("m = %d: %s has %d distinct shards, want 1", m, name, len(distinct))
			}
		}
		if facts, states := s.card(tick); facts != m+1 || states != m+1 {
			t.Errorf("m = %d: tick counts %d facts in %d states, want %d", m, facts, states, m+1)
		}
		points := []int{0, 1, 2, 3, 6, 7, m - 1, m, m + 1}
		for _, t1 := range points {
			for _, t2 := range points {
				same := s.StateKey(t1) == s.StateKey(t2)
				if (s.StateFingerprint(t1) == s.StateFingerprint(t2)) != same || s.StateEqual(t1, t2) != same {
					t.Errorf("m = %d: states %d and %d: fingerprints or StateEqual disagree with StateKey (equal %v)", m, t1, t2, same)
				}
			}
		}
		if err := checkStoreIndexes(s); err != nil {
			t.Errorf("m = %d: %v", m, err)
		}

		c := e.Clone()
		shard := c.Store().at(tick, 5)
		if ok, err := c.InsertBase(tfact("tick", 5)); !ok || err != nil {
			t.Fatalf("InsertBase(tick(5)) = %v, %v; want new to the database", ok, err)
		}
		if c.Store().at(tick, 5) != shard || c.Store().Len() != s.Len() {
			t.Errorf("m = %d: a duplicate tick(5) on the clone forked the shared shard", m)
		}
		if n := testing.AllocsPerRun(10, func() {
			if c.Store().Insert(tfact("tick", 5)) {
				t.Fatal("duplicate tick(5) inserted")
			}
		}); n != 0 {
			t.Errorf("m = %d: a duplicate proposition insert allocates %.0f times, want 0", m, n)
		}
	}
}

// TestPropositionLineageRace: two clone lineages of one model share its
// proposition shards. One extends the window, cloning itself between
// steps; the other asserts facts whose consequences land at every time
// point; both join against the shared tick shard at every step, while a
// reader builds an index on a shared shard of the model. Under -race
// nothing writes what another goroutine reads, and each lineage ends
// equal to a cold evaluation of its own database.
func TestPropositionLineageRace(t *testing.T) {
	const src = "tick(T+1) :- tick(T).\ntick(0).\non(T, X) :- tick(T), item(X, Y), mark(Y).\n" +
		"item(a, y). item(b, n). item(c, y). mark(y).\n"
	root := mustEval(t, src)
	root.EnsureWindow(16)
	on, _ := root.Store().PredID("on", 1, true)
	a, b := root.Clone(), root.Clone()
	var asserted []ast.Fact
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for w := 24; w <= 64; w += 8 {
			a = a.Clone()
			a.EnsureWindow(w)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			f := ntfact("item", fmt.Sprintf("z%d", i), "y")
			if ok, err := b.InsertBase(f); !ok || err != nil {
				t.Errorf("InsertBase(%s) = %v, %v", f, ok, err)
				return
			}
			b.PropagateDelta([]ast.Fact{f})
			asserted = append(asserted, f)
		}
	}()
	go func() {
		defer wg.Done()
		rs := root.Store().at(on, 3)
		for _, x := range []string{"a", "c", "b"} {
			id, _ := root.Store().SymbolID(x)
			want := 1
			if x == "b" {
				want = 0
			}
			if got := len(bucketRows(rs, 1, []uint32{id})); got != want {
				t.Errorf("on@3 bucket(%s) = %d rows, want %d", x, got, want)
			}
		}
	}()
	wg.Wait()

	for _, l := range []struct {
		e     *Evaluator
		extra []ast.Fact
	}{{a, nil}, {b, asserted}} {
		unit := src
		for _, f := range l.extra {
			unit += f.String() + ".\n"
		}
		cold := mustEval(t, unit)
		cold.EnsureWindow(l.e.Window())
		for tm := 0; tm <= l.e.Window(); tm++ {
			if got, want := l.e.Store().StateKey(tm), cold.Store().StateKey(tm); got != want {
				t.Fatalf("lineage at state %d:\n%q\nwant\n%q", tm, got, want)
			}
		}
		if err := checkStoreIndexes(l.e.Store()); err != nil {
			t.Error(err)
		}
	}
	if err := checkStoreIndexes(root.Store()); err != nil {
		t.Error(err)
	}
}
