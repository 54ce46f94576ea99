package tdd

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"tdd/internal/ast"
	"tdd/internal/parser"
	"tdd/internal/query"
)

// compileChecked runs compileQuery and compares what it returns, hit or
// miss, with a fresh parser.ParseQuery + query.Compile of the same text
// against the same signatures. It reports whether the call was a hit.
func compileChecked(t *testing.T, preds map[string]ast.PredInfo, sig, q string) (query.Compiled, bool) {
	t.Helper()
	_, hit := queries.get(queryKey{sig: sig, text: q})
	tr := NewTrace()
	got, err := compileQuery(preds, sig, q, tr)
	want, wantErr := parser.ParseQuery(q, preds)
	var fresh query.Compiled
	if wantErr == nil {
		fresh, wantErr = query.Compile(want)
	}
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("%q: error %v, a fresh compile's %v", q, err, wantErr)
	}
	if !reflect.DeepEqual(got, fresh) {
		t.Fatalf("%q (hit=%v): compiled %v, a fresh compile %v", q, hit, got.Query(), fresh.Query())
	}
	cached := int64(0)
	if ph := tr.Snapshot().Phases; len(ph) == 1 && ph[0].Name == "parse-query" {
		cached = ph[0].Counters["cached"]
	} else {
		t.Fatalf("%q: trace phases %+v, want one parse-query", q, ph)
	}
	if cached != map[bool]int64{true: 1}[hit] {
		t.Fatalf("%q: hit=%v but parse-query records cached=%d", q, hit, cached)
	}
	return got, hit
}

// Every program with the same signatures shares one entry per text, and
// every hit equals a fresh compile.
func TestQueryCacheSharedAcrossPrograms(t *testing.T) {
	a, err := OpenUnit("even(T+2) :- even(T).\neven(0).\nsite(north).\n")
	if err != nil {
		t.Fatal(err)
	}
	b, err := OpenUnit("even(T+2) :- even(T).\neven(1).\nsite(south).\n")
	if err != nil {
		t.Fatal(err)
	}
	sa, sb := a.state().bt, b.state().bt
	if sa.Signature() != sb.Signature() {
		t.Fatalf("equal signatures, keys %q and %q", sa.Signature(), sb.Signature())
	}
	texts := []string{"even(4)", "exists T (even(T) & even(T+2))", "forall X (site(X) | !site(X))",
		"even(T)", "exists X site(X) & even(T+1)", "!even(7)"}
	for _, q := range texts {
		compileChecked(t, sa.Preds(), sa.Signature(), q)
		if _, hit := compileChecked(t, sb.Preds(), sb.Signature(), q); !hit {
			t.Errorf("%q: the second program did not share the first's entry", q)
		}
	}
	for q, want := range map[string][2]bool{"even(4)": {true, false}, "even(5)": {false, true}, "site(north)": {true, false}} {
		for i, db := range []*DB{a, b, a, b} {
			if got, err := db.Ask(q); err != nil || got != want[i%2] {
				t.Errorf("program %d: Ask(%q) = %v, %v; want %v", i%2, q, got, err, want[i%2])
			}
		}
	}
}

// A text naming a predicate the signatures lack is sorted from the text;
// an Assert that admits the predicate with the other sort changes the key,
// so the same text compiles differently, and exactly, afterwards.
func TestQueryCacheAdmissionChangesKey(t *testing.T) {
	db, err := OpenUnit("even(T+2) :- even(T).\neven(0).\n")
	if err != nil {
		t.Fatal(err)
	}
	const q = "late(3)"
	before := db.state().bt
	c1, _ := compileChecked(t, before.Preds(), before.Signature(), q)
	if _, hit := compileChecked(t, before.Preds(), before.Signature(), q); !hit {
		t.Fatalf("%q: the second compile missed", q)
	}
	if ok, err := db.Ask(q); err != nil || ok {
		t.Fatalf("Ask(%q) before the admission = %v, %v; want false", q, ok, err)
	}
	if _, err := db.AssertFact("late", "3"); err != nil {
		t.Fatal(err)
	}
	after := db.state().bt
	if after.Signature() == before.Signature() {
		t.Fatalf("admitting late/1 kept the key %q", after.Signature())
	}
	c2, hit := compileChecked(t, after.Preds(), after.Signature(), q)
	if hit {
		t.Fatalf("%q: hit the entry compiled before late/1 was admitted", q)
	}
	if reflect.DeepEqual(c1, c2) {
		t.Fatalf("%q compiles to %v both as a temporal and a non-temporal atom", q, c1.Query())
	}
	if ok, err := db.Ask(q); err != nil || !ok {
		t.Fatalf("Ask(%q) after the admission = %v, %v; want true", q, ok, err)
	}
}

// A failing text fails the same way every time, and is never kept.
func TestQueryCacheKeepsNoFailure(t *testing.T) {
	db, err := OpenUnit("even(T+2) :- even(T).\neven(0).\n")
	if err != nil {
		t.Fatal(err)
	}
	bt := db.state().bt
	for _, q := range []string{"even(", "even(1, 2)", "exists X even(3)", "even(T) &"} {
		var first error
		for i := 0; i < 2; i++ {
			_, err := compileQuery(bt.Preds(), bt.Signature(), q, nil)
			if err == nil {
				t.Fatalf("%q compiled", q)
			}
			if i == 0 {
				first = err
			} else if err.Error() != first.Error() {
				t.Errorf("%q failed with %v, then %v", q, first, err)
			}
			if _, ok := queries.get(queryKey{sig: bt.Signature(), text: q}); ok {
				t.Fatalf("%q: a failure was cached", q)
			}
			compileChecked(t, bt.Preds(), bt.Signature(), q)
		}
	}
}

// checkCacheBounds checks c's bounds and that its byte count is the text
// bytes of its entries plus each distinct signature key once.
func checkCacheBounds(t *testing.T, c *queryCache) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	want := 0
	sigs := map[string]bool{}
	for k := range c.m {
		want += len(k.text)
		if !sigs[k.sig] {
			sigs[k.sig] = true
			want += len(k.sig)
		}
	}
	if len(c.m) > queryCacheEntries || c.bytes > queryCacheBytes || c.bytes != want || len(c.sigs) != len(sigs) {
		t.Fatalf("cache holds %d entries, %d bytes (recounted %d), %d signature keys (%d used); bounds %d entries, %d bytes",
			len(c.m), c.bytes, want, len(c.sigs), len(sigs), queryCacheEntries, queryCacheBytes)
	}
}

// 10 000 distinct texts through a DB keep the process-wide cache inside
// both bounds, and every hit after them is still exact; long texts on a
// local cache reach the byte bound first.
func TestQueryCacheBounded(t *testing.T) {
	db, err := OpenUnit("even(T+2) :- even(T).\neven(0).\n")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		q := fmt.Sprintf("even(%d)", i)
		if ok, err := db.Ask(q); err != nil || ok != (i%2 == 0) {
			t.Fatalf("Ask(%q) = %v, %v", q, ok, err)
		}
	}
	checkCacheBounds(t, &queries)
	bt := db.state().bt
	for i := 9990; i < 10000; i++ {
		if _, hit := compileChecked(t, bt.Preds(), bt.Signature(), fmt.Sprintf("even(%d)", i)); !hit {
			t.Errorf("even(%d): the most recent texts missed", i)
		}
	}

	var c queryCache
	pad := strings.Repeat(" ", 300)
	for i := 0; i < 10000; i++ {
		c.put(queryKey{sig: fmt.Sprintf("sig%d", i%3), text: fmt.Sprintf("even(%d)%s", i, pad)}, query.Compiled{})
		if i%997 == 0 {
			checkCacheBounds(t, &c)
		}
	}
	checkCacheBounds(t, &c)
	c.put(queryKey{sig: "s", text: strings.Repeat("x", queryCacheBytes)}, query.Compiled{})
	checkCacheBounds(t, &c)
	if len(c.m) == 0 {
		t.Fatal("an oversized text emptied the cache")
	}
}

// A repeated ground ask on a warm DB allocates only what its evaluation
// needs: the cached compile and the facade add nothing.
func TestAllocBudgetWarmAsk(t *testing.T) {
	db, err := OpenUnit("even(T+2) :- even(T).\neven(0).\n")
	if err != nil {
		t.Fatal(err)
	}
	const q = "even(1000000)"
	if ok, err := db.Ask(q); err != nil || !ok {
		t.Fatalf("Ask(%q) = %v, %v", q, ok, err)
	}
	st := db.state()
	s, err := st.bt.Specification()
	if err != nil {
		t.Fatal(err)
	}
	c, err := compileQuery(st.bt.Preds(), st.bt.Signature(), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	eval := testing.AllocsPerRun(100, func() {
		if _, err := c.Eval(s); err != nil {
			t.Fatal(err)
		}
	})
	ask := testing.AllocsPerRun(100, func() {
		if _, err := db.Ask(q); err != nil {
			t.Fatal(err)
		}
	})
	if ask > eval {
		t.Errorf("a warm ground Ask allocates %.0f objects, its evaluation %.0f", ask, eval)
	}
}

// An Assert that admits no predicate shares its parent's signature map and
// key; one that admits a predicate gets its own and leaves the parent's.
func TestAssertSharesSignatures(t *testing.T) {
	db, err := OpenUnit("even(T+2) :- even(T).\neven(0).\n")
	if err != nil {
		t.Fatal(err)
	}
	mapOf := func(m map[string]ast.PredInfo) uintptr { return reflect.ValueOf(m).Pointer() }
	for _, warm := range []bool{false, true} {
		if warm {
			if _, err := db.Period(); err != nil {
				t.Fatal(err)
			}
		}
		parent := db.state().bt
		if _, err := db.Assert("even(9)."); err != nil {
			t.Fatal(err)
		}
		child := db.state().bt
		if mapOf(child.Preds()) != mapOf(parent.Preds()) || child.Signature() != parent.Signature() {
			t.Errorf("warm=%v: an admission-free Assert copied the signature map", warm)
		}
	}
	parent := db.state().bt
	sig, n := parent.Signature(), len(parent.Preds())
	if _, err := db.Assert("odd(3)."); err != nil {
		t.Fatal(err)
	}
	child := db.state().bt
	if mapOf(child.Preds()) == mapOf(parent.Preds()) || len(parent.Preds()) != n || parent.Signature() != sig {
		t.Fatal("an admission wrote the parent's signature map")
	}
	if _, ok := child.Preds()["odd"]; !ok || child.Signature() != ast.SignatureKey(child.Preds()) {
		t.Fatalf("after admitting odd: preds %v, key %q", child.Preds(), child.Signature())
	}
}

// Asks on two DBs with one signature set share entries while a third
// goroutine admits predicates into one of them: every answer is that of
// the snapshot asked. Run under -race.
func TestQueryCacheConcurrentAdmission(t *testing.T) {
	const unit = "even(T+2) :- even(T).\neven(0).\n"
	a, err := OpenUnit(unit)
	if err != nil {
		t.Fatal(err)
	}
	b, err := OpenUnit(unit)
	if err != nil {
		t.Fatal(err)
	}
	const admissions = 40
	var wg, asked sync.WaitGroup
	done := make(chan struct{})
	for i, db := range []*DB{a, b} {
		wg.Add(1)
		asked.Add(1)
		go func(i int, db *DB) {
			defer wg.Done()
			// The writer starts once each reader has asked every text.
			var ready sync.Once
			defer ready.Do(asked.Done)
			seen := make([]bool, admissions)
			for round := 0; ; round++ {
				if round == 1 {
					ready.Do(asked.Done)
				}
				select {
				case <-done:
					return
				default:
				}
				for k := 0; k < admissions; k++ {
					if ok, err := db.Ask("even(1000000) & !even(7)"); err != nil || !ok {
						t.Errorf("db %d: Ask = %v, %v", i, ok, err)
						return
					}
					ok, err := db.Ask(fmt.Sprintf("new%d(5)", k))
					if err != nil || (ok && db == a) || (seen[k] && !ok) {
						t.Errorf("db %d: Ask(new%d(5)) = %v, %v (seen before: %v)", i, k, ok, err, seen[k])
						return
					}
					seen[k] = ok
				}
			}
		}(i, db)
	}
	asked.Wait()
	for k := 0; k < admissions; k++ {
		if _, err := b.Assert(fmt.Sprintf("new%d(5).", k)); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
	for k := 0; k < admissions; k++ {
		if ok, err := b.Ask(fmt.Sprintf("new%d(5)", k)); err != nil || !ok {
			t.Errorf("after every admission: Ask(new%d(5)) = %v, %v", k, ok, err)
		}
	}
}
