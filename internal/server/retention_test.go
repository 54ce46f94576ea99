package server

import (
	"runtime"
	"testing"

	"tdd"
	"tdd/internal/workload"
)

// retainedBy reports the heap bytes still reachable from build's result
// after two collections, relative to the heap before build ran.
func retainedBy(t *testing.T, build func() any) float64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	v := build()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(v)
	return float64(after.HeapAlloc) - float64(before.HeapAlloc)
}

// TestWarmEntryRetainsOneModel: a warm registry entry holds the model
// once. Its retained heap is compared against a bare certified tdd.DB of
// the same sources — the evaluator every entry needs — on a ski model of
// a few megabytes, so a second resident copy of the model (or its JSON)
// cannot hide inside the bar. The allowance above 1.0 is the entry's
// lifetime trace, join profile and lint result.
func TestWarmEntryRetainsOneModel(t *testing.T) {
	rules, facts := workload.Ski(workload.SkiParams{YearLen: 365, Resorts: 512, Planes: 4096, Holidays: 10, Seed: 1})
	bare := retainedBy(t, func() any {
		db, err := tdd.Open(rules, facts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.Period(); err != nil {
			t.Fatal(err)
		}
		return db
	})
	if bare < 1<<20 {
		t.Fatalf("model retains %.0f bytes; the test needs megabytes to be meaningful", bare)
	}
	served := retainedBy(t, func() any {
		reg := NewRegistry(8, 0, newMetrics(routeNames))
		if _, _, err := reg.Register("", rules, facts); err != nil {
			t.Fatal(err)
		}
		return reg
	})
	t.Logf("bare DB %.2f MB, warm entry %.2f MB, ratio %.2f", bare/(1<<20), served/(1<<20), served/bare)
	if served > 1.3*bare {
		t.Errorf("warm entry retains %.2f MB against %.2f MB for the bare DB (ratio %.2f, bar 1.3): a second copy of the model is resident",
			served/(1<<20), bare/(1<<20), served/bare)
	}
}
