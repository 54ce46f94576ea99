package server

// The registry's one record per program: which programs stay warm, what a
// failed recompile leaves behind, and how concurrent misses share one
// compile.

import (
	"encoding/json"
	"sync"
	"testing"

	"tdd/internal/wal"
	"tdd/internal/workload"
)

const oddUnit = "odd(T+2) :- odd(T).\nodd(1).\n"

// registerUnit registers a unit on reg and returns its id.
func registerUnit(t *testing.T, reg *Registry, unit string) string {
	t.Helper()
	ent, _, err := reg.Register(unit, "", "")
	if err != nil {
		t.Fatal(err)
	}
	return ent.ID()
}

// TestRegistryEvictsLeastRecentlyUsed pins the recency rule: with room
// for two warm programs, a lookup of A after registering A and B makes B
// the least recently used, so registering C evicts B and keeps A.
func TestRegistryEvictsLeastRecentlyUsed(t *testing.T) {
	m := newMetrics(routeNames)
	reg := NewRegistry(2, 0, m)
	a := registerUnit(t, reg, evenUnit)
	b := registerUnit(t, reg, oddUnit)
	if _, err := reg.Lookup(a); err != nil {
		t.Fatal(err)
	}
	c := registerUnit(t, reg, skiUnit)

	warm := reg.Warm()
	if len(warm) != 2 || warm[a] == nil || warm[c] == nil || warm[b] != nil {
		t.Errorf("warm programs %v, want A=%s and C=%s (B=%s evicted)", sortedKeys(warm), a, c, b)
	}
	if got := m.CacheEvict.Load(); got != 1 {
		t.Errorf("cache evictions = %d, want 1", got)
	}
}

// TestFailedRecompileKeepsWarm: a lookup whose recompile fails returns
// the error and installs and evicts nothing. A durable registry recovered
// under a window budget too small for the ski program, with room for one
// warm program, warms the even program and then fails to recompile ski;
// even must stay warm and no eviction may be booked.
func TestFailedRecompileKeepsWarm(t *testing.T) {
	dir := t.TempDir()
	first := durableRegistry(t, dir, wal.FsyncOff)
	even := registerUnit(t, first, evenUnit)
	ski := registerUnit(t, first, skiUnit)
	if err := first.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	m := newMetrics(routeNames)
	reg := NewRegistry(1, 16, m)
	store, err := wal.Open(dir, wal.Options{Policy: wal.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	reg.EnableDurability(store)
	if _, _, err := reg.RecoverFromWAL(false); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Lookup(even); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Lookup(ski); err == nil {
		t.Fatal("ski recompiled under a window budget of 16, want an error")
	}
	if warm := reg.Warm(); len(warm) != 1 || warm[even] == nil {
		t.Errorf("warm programs %v after a failed recompile, want only even (%s)", sortedKeys(warm), even)
	}
	if got := m.CacheEvict.Load(); got != 0 {
		t.Errorf("cache evictions = %d after a failed recompile, want 0", got)
	}
}

// TestCompileFlightCoalescesMisses: n concurrent lookups of an evicted
// program run one compile. All n get its one entry, the leader books the
// one cache miss, the n-1 joiners book hits, and while the compile runs
// /debug/flights lists it as the one flight, of kind "compile".
func TestCompileFlightCoalescesMisses(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheSize: 1})
	// A period-60060 program: its compile takes long enough to be seen.
	rules, facts := workload.Cycles([]int{4, 3, 5, 7, 11, 13})
	busy, _, err := s.reg.Register("", rules, facts)
	if err != nil {
		t.Fatal(err)
	}
	id := busy.ID()
	register(t, ts.URL, evenUnit) // evicts busy
	hits, misses := s.metrics.CacheHits.Load(), s.metrics.CacheMisses.Load()

	const n = 8
	var wg sync.WaitGroup
	got := make([]*entry, n)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if got[i], err = s.reg.Lookup(id); err != nil {
				t.Error(err)
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	var seen []FlightSnapshot
	for running := true; running && len(seen) == 0; {
		select {
		case <-done:
			running = false
		default:
		}
		_, body := getJSON(t, ts.URL+"/debug/flights")
		var resp debugFlightsResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		seen = resp.Flights
	}
	<-done

	if len(seen) != 1 || seen[0].Kind != "compile" || seen[0].Program != id || seen[0].Rev != id {
		t.Errorf("/debug/flights during the compile: %+v, want one compile flight of %s", seen, id)
	}
	for i, e := range got {
		if e != got[0] {
			t.Fatalf("lookup %d got entry %p, lookup 0 got %p: more than one compile ran", i, e, got[0])
		}
	}
	if got := s.metrics.CacheMisses.Load() - misses; got != 1 {
		t.Errorf("%d lookups booked %d cache misses, want 1 compile", n, got)
	}
	if got := s.metrics.CacheHits.Load() - hits; got != n-1 {
		t.Errorf("%d lookups booked %d cache hits, want %d", n, got, n-1)
	}
	if warm := s.reg.Warm(); len(warm) != 1 || warm[id] == nil {
		t.Errorf("warm programs %v, want only the recompiled %s", sortedKeys(warm), id)
	}
}
