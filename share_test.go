package tdd

import (
	"fmt"
	"maps"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestSharedStateForks: in a certified model, states t1 and t2 = t1+p past
// b+p are both stored as the shards of their representative
// Canonical(t1) (internal/engine's TestShareRepeatsIsExact checks the
// aliasing). Two forks of one warm parent write to those states at once,
// each a fact at its own time; each forks the slot it writes and leaves
// the shared shard alone. Each tip must match a cold open of its history
// on period and answers, and the parent's three states must not move.
func TestSharedStateForks(t *testing.T) {
	const unit = `
plane(T+7, X) :- plane(T, X), resort(X), offseason(T).
plane(T+2, X) :- plane(T, X), resort(X), winter(T).
offseason(T+10) :- offseason(T).
winter(T+10) :- winter(T).
winter(0..3).
offseason(4..9).
resort(hunter). resort(vail).
plane(0, hunter). plane(1, vail).
`
	parent := mustOpenUnit(t, unit)
	per, err := parent.Period()
	if err != nil {
		t.Fatal(err)
	}
	ev := parent.state().bt.Evaluator()
	st := ev.Store()
	// The first representative past the base with a plane in it.
	rep := per.Base
	for !strings.Contains(st.StateKey(rep), "plane") {
		rep++
	}
	t1, t2 := rep+per.P, rep+2*per.P
	if t2 > ev.Window() {
		t.Fatalf("period %v, window %d: state %d is not evaluated", per, ev.Window(), t2)
	}
	t.Logf("period %v, window %d: states %d and %d are stored as state %d", per, ev.Window(), t1, t2, rep)
	states := func() []string { return []string{st.StateKey(t1), st.StateKey(t2), st.StateKey(rep)} }
	before := states()
	if before[0] != before[2] || before[1] != before[2] {
		t.Fatalf("period %v: states %d, %d and %d differ", per, t1, t2, rep)
	}

	queries := func(tm int) []string {
		return []string{
			fmt.Sprintf("plane(%d, ra)", tm),
			fmt.Sprintf("plane(%d, hunter)", tm),
			"exists T plane(T, ra)",
			fmt.Sprintf("plane(%d, vail)", 1000000*per.P+rep),
		}
	}
	answers := func(db *DB, qs []string) []bool {
		var out []bool
		for _, q := range qs {
			ok, err := db.Ask(q)
			if err != nil {
				t.Error(err)
			}
			out = append(out, ok)
		}
		return out
	}
	parentAnswers := answers(parent, queries(t1))

	tips := []struct {
		db      *DB
		history string
		at      int
	}{
		{db: parent.Fork(), history: fmt.Sprintf("resort(ra). plane(%d, ra).\n", t1), at: t1},
		{db: parent.Fork(), history: fmt.Sprintf("resort(ra). plane(%d, ra).\n", t2), at: t2},
	}
	var wg sync.WaitGroup
	for i := range tips {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := tips[i].db.Assert(tips[i].history); err != nil {
				t.Error(err)
			}
			answers(tips[i].db, queries(tips[i].at))
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, tip := range tips {
		cold := mustOpenUnit(t, unit+tip.history)
		gotP, err := tip.db.Period()
		if err != nil {
			t.Fatal(err)
		}
		wantP, err := cold.Period()
		if err != nil {
			t.Fatal(err)
		}
		if gotP != wantP {
			t.Errorf("tip %d: period %v, cold open %v", i, gotP, wantP)
		}
		for _, at := range []int{t1, t2} {
			if got, want := answers(tip.db, queries(at)), answers(cold, queries(at)); !reflect.DeepEqual(got, want) {
				t.Errorf("tip %d: answers %v to %v, cold open %v", i, got, queries(at), want)
			}
		}
	}
	if after := states(); !reflect.DeepEqual(after, before) {
		t.Errorf("parent states %d, %d, %d changed under its forks:\n%q\nwas\n%q", t1, t2, rep, after, before)
	}
	if got := answers(parent, queries(t1)); !reflect.DeepEqual(got, parentAnswers) {
		t.Errorf("parent answers %v, were %v", got, parentAnswers)
	}
}

// TestAssertIntoSharedState: every even state of the model closes as
// state 0's shards, so one shard stands for the even time points of the
// whole window. A fork of the certified model asserts a fact into one of
// them, state 10, while readers ask the parent about every state. The
// fork's answers change at time point 10 alone, and the parent's not at
// all. scripts/ci.sh runs it under -race.
func TestAssertIntoSharedState(t *testing.T) {
	const unit = `
even(T+2) :- even(T).
flag(T, X) :- even(T), item(X).
even(0).
item(a). item(b).
`
	const at, horizon = 10, 40
	parent := mustOpenUnit(t, unit)
	if _, err := parent.Period(); err != nil {
		t.Fatal(err)
	}
	if w := parent.state().bt.Evaluator().Window(); w < at+4 {
		t.Fatalf("window %d: state %d is not among several shared states", w, at)
	}
	type fact struct {
		tm int
		x  string
	}
	holds := func(db *DB) map[fact]bool {
		out := make(map[fact]bool)
		for tm := 0; tm <= horizon; tm++ {
			for _, x := range []string{"a", "b", "c"} {
				ok, err := db.Ask(fmt.Sprintf("flag(%d, %s)", tm, x))
				if err != nil {
					t.Error(err)
				}
				out[fact{tm, x}] = ok
			}
		}
		return out
	}
	before := holds(parent)
	for f, ok := range before {
		if want := f.tm%2 == 0 && f.x != "c"; ok != want {
			t.Fatalf("flag(%d, %s) = %v before the assert, want %v", f.tm, f.x, ok, want)
		}
	}

	tip := parent.Fork()
	done := make(chan struct{})
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for tm := 0; tm <= horizon; tm += 2 {
					if ok, err := parent.Ask(fmt.Sprintf("flag(%d, a)", tm)); err != nil || !ok {
						t.Errorf("parent: flag(%d, a) = %v, %v during the fork's assert", tm, ok, err)
						return
					}
				}
			}
		}()
	}
	_, err := tip.Assert(fmt.Sprintf("flag(%d, c).\n", at))
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}

	want := maps.Clone(before)
	want[fact{at, "c"}] = true
	got := holds(tip)
	for f := range want {
		if got[f] != want[f] {
			t.Errorf("fork: flag(%d, %s) = %v, want %v", f.tm, f.x, got[f], want[f])
		}
	}
	if got := holds(parent); !reflect.DeepEqual(got, before) {
		t.Errorf("the parent's answers moved under its fork's assert")
	}
	ans, err := tip.Answers("flag(T, c)")
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 1 || ans[0].Temporal["T"] != at {
		t.Errorf("fork: flag(T, c) answers %v, want T = %d alone", ans, at)
	}
}
