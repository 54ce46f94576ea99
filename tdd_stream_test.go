package tdd_test

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"tdd"
	"tdd/internal/workload"
)

// TestAssertMatchesReopen is the facade-level oracle: incrementally
// asserted facts must leave the DB answering every query exactly as a
// fresh Open on the final fact set would — same period, same
// specification, same deep answers — regardless of batch boundaries.
func TestAssertMatchesReopen(t *testing.T) {
	rules, facts, stream := workload.Chain(12)
	db, err := tdd.Open(rules, facts, tdd.WithMaxWindow(1<<14))
	if err != nil {
		t.Fatal(err)
	}
	// Certify once so every Assert below exercises the warm path.
	if _, err := db.Period(); err != nil {
		t.Fatal(err)
	}
	all := facts
	for i, batch := range stream {
		res, err := db.Assert(batch)
		if err != nil {
			t.Fatalf("assert %d: %v", i, err)
		}
		if res.NewFacts != 1 || !res.Recertified {
			t.Fatalf("assert %d: %+v", i, res)
		}
		all += batch

		fresh, err := tdd.Open(rules, all, tdd.WithMaxWindow(1<<14))
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []string{
			"path(1000000, n0, n1)",
			fmt.Sprintf("path(1000000, n0, n%d)", i+2),
			fmt.Sprintf("path(%d, n0, n%d)", i+1, i+2),
			fmt.Sprintf("path(%d, n0, n%d)", i, i+2),
		} {
			got, err := db.Ask(q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Ask(q)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("after assert %d, %s: incremental %v, reopen %v", i, q, got, want)
			}
		}
		gp, err := db.Period()
		if err != nil {
			t.Fatal(err)
		}
		wp, err := fresh.Period()
		if err != nil {
			t.Fatal(err)
		}
		if gp != wp {
			t.Fatalf("after assert %d: period %v, reopen %v", i, gp, wp)
		}
		gs, err := db.Specification()
		if err != nil {
			t.Fatal(err)
		}
		ws, err := fresh.Specification()
		if err != nil {
			t.Fatal(err)
		}
		if gs != ws {
			t.Fatalf("after assert %d: specification diverged\nincremental:\n%s\nreopen:\n%s", i, gs, ws)
		}
	}
}

// TestAssertCoercion covers the sort coercion of stand-alone fact sources:
// integers in non-temporal columns stay constants, temporal predicates
// demand time points, intervals expand.
func TestAssertCoercion(t *testing.T) {
	db, err := tdd.OpenUnit(`
		alert(T+1, S) :- alert(T, S), fragile(S).
		@nontemporal score.
		alert(0, api). fragile(api). score(10, alice).
	`)
	if err != nil {
		t.Fatal(err)
	}
	// score's first column is numeric but score is non-temporal.
	if _, err := db.Assert("score(20, bob)."); err != nil {
		t.Fatal(err)
	}
	if ok, _ := db.Holds("score", "20", "bob"); !ok {
		t.Fatal("score(20, bob) not asserted as non-temporal")
	}
	if ok, _ := db.Holds("score", "10", "alice"); !ok {
		t.Fatal("original score(10, alice) lost")
	}
	// A temporal predicate without a time point is an error.
	if _, err := db.Assert("alert(api)."); err == nil {
		t.Fatal("time-less fact for temporal predicate accepted")
	}
	// Intervals expand as in Open.
	res, err := db.Assert("alert(3..5, db). fragile(db).")
	if err != nil {
		t.Fatal(err)
	}
	if res.NewFacts != 4 {
		t.Fatalf("interval batch recorded %d new facts, want 4", res.NewFacts)
	}
	if ok, _ := db.Ask("alert(1000, db)"); !ok {
		t.Fatal("alert(1000, db) should hold after ingesting the latch seed")
	}
	// AssertAt / AssertFact build facts directly.
	if _, err := db.AssertAt("alert", 7, "cache"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.AssertFact("fragile", "cache"); err != nil {
		t.Fatal(err)
	}
	if ok, _ := db.Ask("alert(1000000, cache)"); !ok {
		t.Fatal("alert(1000000, cache) should hold")
	}
	// Duplicates are no-ops.
	res, err = db.Assert("fragile(api).")
	if err != nil {
		t.Fatal(err)
	}
	if res.NewFacts != 0 || res.Duplicates != 1 {
		t.Fatalf("duplicate assert: %+v", res)
	}
}

// TestForkIsolation: asserts on a fork never show through to the original
// DB, and vice versa.
func TestForkIsolation(t *testing.T) {
	db, err := tdd.OpenUnit(concurrentSkiUnit)
	if err != nil {
		t.Fatal(err)
	}
	fork := db.Fork()
	if _, err := fork.Assert("plane(1, whistler). resort(whistler)."); err != nil {
		t.Fatal(err)
	}
	if ok, _ := db.Ask("exists T plane(T, whistler)"); ok {
		t.Fatal("fork's assert visible in the original")
	}
	if ok, _ := fork.Ask("plane(1000001, whistler)"); !ok {
		t.Fatal("fork lost its own assert")
	}
	if _, err := db.Assert("plane(2, vail). resort(vail)."); err != nil {
		t.Fatal(err)
	}
	if ok, _ := fork.Ask("exists T plane(T, vail)"); ok {
		t.Fatal("original's assert visible in the fork")
	}
}

// TestConcurrentAssertAndQuery is the writer/reader regression test: one
// shared DB under concurrent Assert writers and Ask/Answers readers. Run
// under -race (scripts/ci.sh does) it checks the snapshot discipline —
// readers must always observe a fully consistent model in which
// monotonically asserted facts never disappear.
func TestConcurrentAssertAndQuery(t *testing.T) {
	db, err := tdd.OpenUnit(concurrentSkiUnit)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Period(); err != nil {
		t.Fatal(err)
	}
	// Ground truth for a query no writer's facts can affect (writers only
	// add fresh resorts; monotonicity keeps hunter's answers fixed).
	wantDeep, err := db.Ask("plane(1000000, hunter)")
	if err != nil {
		t.Fatal(err)
	}

	const writers, readers, perWriter = 4, 8, 6
	var wg sync.WaitGroup
	errs := make(chan error, writers*perWriter+readers*perWriter*2)
	var done sync.WaitGroup

	for w := 0; w < writers; w++ {
		wg.Add(1)
		done.Add(1)
		go func(w int) {
			defer wg.Done()
			defer done.Done()
			for i := 0; i < perWriter; i++ {
				r := fmt.Sprintf("w%dr%d", w, i)
				_, err := db.Assert(fmt.Sprintf("resort(%s).\nplane(%d, %s).\n", r, (w+i)%10, r))
				if err != nil {
					errs <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
				// A writer's own fact is immediately visible to it.
				if ok, err := db.Ask(fmt.Sprintf("exists T plane(T, %s)", r)); err != nil || !ok {
					errs <- fmt.Errorf("writer %d lost its own fact %s (ok=%v err=%v)", w, r, ok, err)
					return
				}
			}
		}(w)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perWriter; i++ {
				// The hunter stream predates every write and must never change.
				if ok, err := db.Ask("plane(1000000, hunter)"); err != nil || ok != wantDeep {
					errs <- fmt.Errorf("reader %d: plane(1000000, hunter) ok=%v err=%v, want %v", g, ok, err, wantDeep)
					return
				}
				if _, err := db.Answers("plane(T, hunter)"); err != nil {
					errs <- fmt.Errorf("reader %d: %w", g, err)
					return
				}
				if rng.Intn(2) == 0 {
					if _, err := db.Period(); err != nil {
						errs <- fmt.Errorf("reader %d: %w", g, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		return
	}
	// After the dust settles every written fact is present.
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			r := fmt.Sprintf("w%dr%d", w, i)
			if ok, err := db.Ask(fmt.Sprintf("exists T plane(T, %s)", r)); err != nil || !ok {
				t.Fatalf("final state missing plane stream for %s (ok=%v err=%v)", r, ok, err)
			}
		}
	}
}

// BenchmarkAssertVsReopen measures the tentpole claim: on the chain-graph
// workload, ingesting one edge into a warm DB (Assert + Ask) must beat
// re-opening the database from scratch on the extended fact set
// (Open + Ask). The two arms answer the same deep query after ingesting
// the same edge stream.
func BenchmarkAssertVsReopen(b *testing.B) {
	const nodes = 24
	rules, facts, stream := workload.Chain(nodes)
	deep := fmt.Sprintf("path(1000000, n0, n%d)", nodes-1)

	b.Run("assert-warm", func(b *testing.B) {
		b.StopTimer()
		for i := 0; i < b.N; i++ {
			db, err := tdd.Open(rules, facts)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := db.Period(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			for _, batch := range stream {
				if _, err := db.Assert(batch); err != nil {
					b.Fatal(err)
				}
			}
			ok, err := db.Ask(deep)
			b.StopTimer()
			if err != nil || !ok {
				b.Fatalf("ok=%v err=%v", ok, err)
			}
		}
	})
	b.Run("reopen-cold", func(b *testing.B) {
		b.StopTimer()
		for i := 0; i < b.N; i++ {
			all := facts
			b.StartTimer()
			var last *tdd.DB
			for _, batch := range stream {
				all += batch
				db, err := tdd.Open(rules, all)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := db.Period(); err != nil {
					b.Fatal(err)
				}
				last = db
			}
			ok, err := last.Ask(deep)
			b.StopTimer()
			if err != nil || !ok {
				b.Fatalf("ok=%v err=%v", ok, err)
			}
		}
	})
}

// TestAssertAtRefusesTimeBeyondUint32: a time point that does not fit a
// uint32 is refused like a negative one, on the cold path too (the DB has
// never certified), and the refused batch leaves the database unchanged.
func TestAssertAtRefusesTimeBeyondUint32(t *testing.T) {
	db, err := tdd.OpenUnit("q(T+1) :- q(T).\nq(0).\n")
	if err != nil {
		t.Fatal(err)
	}
	before := db.Facts()
	_, err = db.AssertAt("q", 1<<32+1)
	if err == nil || !strings.Contains(err.Error(), "time point outside") {
		t.Fatalf("AssertAt(q, 2^32+1) = %v, want the time-point error", err)
	}
	if after := db.Facts(); after != before {
		t.Fatalf("refused assert changed the facts:\n%s\nwant\n%s", after, before)
	}
	if ok, err := db.Ask("q(5)"); err != nil || !ok {
		t.Fatalf("q(5) = %v, %v after the refused assert", ok, err)
	}
}
