package tdd

// The rule in slice.go, pinned from the inside: which processor a closed
// Ask lands on is decided by what the snapshot is, and a snapshot holds at
// most one sliced processor, only while it is cold.

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"tdd/internal/obs"
)

// separableUnit has three independent chains, so a query over one of
// them selects a proper slice.
const separableUnit = `
a(T+1) :- a(T).
b(T+2) :- b(T).
c(T+3) :- c(T).
a(0). b(0). c(0).
`

func mustOpenUnit(t *testing.T, unit string, opts ...Option) *DB {
	t.Helper()
	db, err := OpenUnit(unit, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func mustAsk(t *testing.T, db *DB, q string, want bool) {
	t.Helper()
	if got, err := db.Ask(q); err != nil || got != want {
		t.Fatalf("Ask(%q) = %v, %v; want %v", q, got, err, want)
	}
}

// TestCertifiedSnapshotBuildsNoAnalysis: on a certified snapshot, and on
// the Assert successor of one, an Ask whose slice would be proper goes
// straight to the full model and builds no slice.
func TestCertifiedSnapshotBuildsNoAnalysis(t *testing.T) {
	db := mustOpenUnit(t, separableUnit)
	if _, err := db.Period(); err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		mustAsk(t, db, "exists T a(T)", true)
		st := db.state()
		if !st.bt.Certified() {
			t.Fatalf("%s: snapshot not certified", when)
		}
		if st.sliced.Load() != nil {
			t.Errorf("%s: ask built a sliced processor", when)
		}
	}
	check("certified")
	if res, err := db.Assert("b(1)."); err != nil || !res.Recertified {
		t.Fatalf("Assert = %+v, %v; want a recertified successor", res, err)
	}
	check("assert successor")
}

// TestObservedDBAsksFullProcessor: a DB opened with a trace, the join
// profiler or provenance answers its cold ask from the processor those
// hooks are attached to.
func TestObservedDBAsksFullProcessor(t *testing.T) {
	coldAsk := func(name string, opt Option, tr *Trace) *DB {
		t.Helper()
		db := mustOpenUnit(t, separableUnit, opt)
		if ok, err := db.AskTrace("exists T a(T)", tr); err != nil || !ok {
			t.Fatalf("%s: ask = %v, %v", name, ok, err)
		}
		if st := db.state(); !st.bt.Certified() || st.sliced.Load() != nil {
			t.Errorf("%s: cold ask left the full processor uncertified (certified %v, sliced %v)",
				name, st.bt.Certified(), st.sliced.Load() != nil)
		}
		return db
	}

	tr := NewTrace()
	coldAsk("trace", WithTrace(tr), tr)
	var answer obs.SpanJSON
	for _, sp := range tr.Snapshot().Phases {
		if sp.Name == "answer" {
			answer = sp
		}
	}
	if !hasSpan(answer.Children, "certify-period") {
		t.Errorf("trace: no certify-period span under answer:\n%s", tr.Tree())
	}

	if rep := coldAsk("profile", WithProfile(), nil).ProfileReport(); rep == nil || len(rep.Rules) == 0 {
		t.Errorf("profile: empty profile after a cold ask: %+v", rep)
	}

	out, err := coldAsk("provenance", WithProvenance(), nil).Explain("a(3)", 0)
	if err != nil || !strings.Contains(out, "a(0)") {
		t.Errorf("provenance: Explain = %q, %v", out, err)
	}
}

func hasSpan(spans []obs.SpanJSON, name string) bool {
	for _, s := range spans {
		if s.Name == name || hasSpan(s.Children, name) {
			return true
		}
	}
	return false
}

// retainedHeap builds a value and reports the heap it keeps alive.
func retainedHeap(build func() any) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	v := build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(v)
	return float64(after.HeapAlloc) - float64(before.HeapAlloc)
}

// TestOneSlicedSlot: the first proper goal set on a cold snapshot is
// answered from its slice and so is a second query inside that slice; a
// goal set outside it certifies the full model, which releases the slot —
// a warm snapshot retains one model, measured against a DB that went
// straight to Period on two chains of a few megabytes each.
func TestOneSlicedSlot(t *testing.T) {
	var unit strings.Builder
	unit.WriteString("a(T+7, X) :- a(T, X).\nb(T+7, X) :- b(T, X).\n")
	for i := 0; i < 13000; i++ {
		fmt.Fprintf(&unit, "a(%d, k%d). b(%d, k%d).\n", i%7, i, (i+3)%7, i)
	}

	db := mustOpenUnit(t, unit.String())
	mustAsk(t, db, "a(700, k0)", true)
	st := db.state()
	m := st.sliced.Load()
	if m == nil || st.bt.Certified() {
		t.Fatalf("first proper goal set: sliced %v, full certified %v; want the slice alone", m != nil, st.bt.Certified())
	}
	mustAsk(t, db, "exists T a(T, k1)", true)
	if st.sliced.Load() != m || st.bt.Certified() {
		t.Fatal("a second query inside the slice did not reuse it")
	}
	mustAsk(t, db, "b(703, k0)", true)
	if !st.bt.Certified() || st.sliced.Load() != nil {
		t.Fatalf("goal set outside the slice: full certified %v, slot held %v; want certified and released",
			st.bt.Certified(), st.sliced.Load() != nil)
	}

	bare := retainedHeap(func() any {
		db := mustOpenUnit(t, unit.String())
		if _, err := db.Period(); err != nil {
			t.Fatal(err)
		}
		return db
	})
	if bare < 1<<20 {
		t.Fatalf("model retains %.0f bytes; the test needs megabytes to be meaningful", bare)
	}
	both := retainedHeap(func() any {
		db := mustOpenUnit(t, unit.String())
		mustAsk(t, db, "a(700, k0)", true)
		mustAsk(t, db, "b(703, k0)", true)
		return db
	})
	t.Logf("certified-first %.2f MB, slice then full %.2f MB, ratio %.2f", bare/(1<<20), both/(1<<20), both/bare)
	if both > 1.2*bare {
		t.Errorf("DB retains %.2f MB after slice + full against %.2f MB certified first (ratio %.2f, bar 1.2): the slice is still resident",
			both/(1<<20), bare/(1<<20), both/bare)
	}
}
