package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"tdd/internal/workload"
)

// TestShardForStable verifies that shard placement is a pure function of
// the program id: the same id always lands in the same shard, and with
// one shard everything lands there.
func TestShardForStable(t *testing.T) {
	reg := NewRegistry(8, 8, 0, newMetrics(routeNames))
	for _, id := range []string{"a", "b", "c", "0123abcd"} {
		first := reg.shardFor(id)
		for i := 0; i < 3; i++ {
			if reg.shardFor(id) != first {
				t.Fatalf("shardFor(%q) not stable", id)
			}
		}
	}
	single := NewRegistry(1, 8, 0, newMetrics(routeNames))
	if single.ShardCount() != 1 {
		t.Fatalf("ShardCount = %d, want 1", single.ShardCount())
	}
}

// TestShardedDifferential runs the same register → ingest → query battery
// against a 1-shard and an 8-shard server and requires bit-identical
// results: ids, revs, periods, ask answers, and exported specs. Sharding
// must only ever change which mutex a program lives under.
func TestShardedDifferential(t *testing.T) {
	_, ts1 := newTestServer(t, Config{Shards: 1})
	_, ts8 := newTestServer(t, Config{Shards: 8})

	type progState struct{ id string }
	const programs = 6
	var ids1, ids8 [programs]progState

	for i := 0; i < programs; i++ {
		rules, facts := workload.Ski(workload.SkiParams{
			YearLen: 20, Resorts: 3, Planes: 4, Holidays: 2, Seed: int64(100 + i),
		})
		unit := rules + facts
		ids1[i].id = register(t, ts1.URL, unit)
		ids8[i].id = register(t, ts8.URL, unit)
		if ids1[i].id != ids8[i].id {
			t.Fatalf("program %d: id %s (1 shard) != %s (8 shards)", i, ids1[i].id, ids8[i].id)
		}
	}

	// Interleaved ingests: same batches, same order, to both servers.
	for round := 0; round < 3; round++ {
		for i := 0; i < programs; i++ {
			facts := fmt.Sprintf("resort(extra%dr%d).\nplane(%d, extra%dr%d).\n", i, round, round*3+i, i, round)
			var rev [2]string
			for s, ts := range []*httptest.Server{ts1, ts8} {
				resp, body := postJSON(t, ts.URL+"/programs/"+ids1[i].id+"/facts", factsRequest{Facts: facts})
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("ingest: status %d: %s", resp.StatusCode, body)
				}
				var fr factsResponse
				if err := json.Unmarshal(body, &fr); err != nil {
					t.Fatal(err)
				}
				rev[s] = fr.Rev
			}
			if rev[0] != rev[1] {
				t.Fatalf("program %d round %d: rev %s (1 shard) != %s (8 shards)", i, round, rev[0], rev[1])
			}
		}
	}

	// Every observable must agree: period, ask results over a query
	// battery, and the exported spec JSON byte-for-byte.
	for i := 0; i < programs; i++ {
		id := ids1[i].id
		_, p1 := getJSON(t, ts1.URL+"/programs/"+id+"/period")
		_, p8 := getJSON(t, ts8.URL+"/programs/"+id+"/period")
		if string(p1) != string(p8) {
			t.Fatalf("program %d: period %s != %s", i, p1, p8)
		}
		_, s1 := getJSON(t, ts1.URL+"/programs/"+id+"/spec")
		_, s8 := getJSON(t, ts8.URL+"/programs/"+id+"/spec")
		if string(s1) != string(s8) {
			t.Fatalf("program %d: exported specs differ", i)
		}
		for q := 0; q < 8; q++ {
			query := fmt.Sprintf("plane(%d, r%d)", 50+q*17, q%3)
			if a, b := askServed(t, ts1.URL, id, query), askServed(t, ts8.URL, id, query); a != b {
				t.Fatalf("program %d %q: %v (1 shard) != %v (8 shards)", i, query, a, b)
			}
		}
	}
}

// TestShardedIngestWhileQuerying runs concurrent writers and readers
// against an 8-shard server over several programs, then checks every
// batch landed and the final state matches a 1-shard server given the
// same batches. Run under -race via scripts/ci.sh.
func TestShardedIngestWhileQuerying(t *testing.T) {
	_, ts8 := newTestServer(t, Config{Shards: 8})
	_, ts1 := newTestServer(t, Config{Shards: 1})

	const programs, writers, perWriter = 3, 3, 4
	ids := make([]string, programs)
	for i := range ids {
		rules, facts := workload.Ski(workload.SkiParams{
			YearLen: 20, Resorts: 3, Planes: 4, Holidays: 2, Seed: int64(200 + i),
		})
		unit := rules + facts
		ids[i] = register(t, ts8.URL, unit)
		if got := register(t, ts1.URL, unit); got != ids[i] {
			t.Fatalf("id mismatch: %s != %s", got, ids[i])
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, programs*(writers+2)*perWriter)
	for p := 0; p < programs; p++ {
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(p, w int) {
				defer wg.Done()
				for i := 0; i < perWriter; i++ {
					facts := fmt.Sprintf("resort(p%dw%dr%d).\nplane(%d, p%dw%dr%d).\n", p, w, i, (w+i)%10, p, w, i)
					resp, body := postJSON(t, ts8.URL+"/programs/"+ids[p]+"/facts", factsRequest{Facts: facts})
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("writer p%dw%d: status %d: %s", p, w, resp.StatusCode, body)
						return
					}
				}
			}(p, w)
		}
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < writers*perWriter; i++ {
				resp, body := postJSON(t, ts8.URL+"/programs/"+ids[p]+"/ask", askRequest{Query: "plane(0, r0)"})
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("reader p%d: status %d: %s", p, resp.StatusCode, body)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		return
	}

	// Replay the same batches sequentially into the 1-shard server (order
	// within a program does not matter for the model: batches commute as
	// sets of facts, and revs are order-dependent so only the model-level
	// observables are compared).
	for p := 0; p < programs; p++ {
		for w := 0; w < writers; w++ {
			for i := 0; i < perWriter; i++ {
				facts := fmt.Sprintf("resort(p%dw%dr%d).\nplane(%d, p%dw%dr%d).\n", p, w, i, (w+i)%10, p, w, i)
				resp, body := postJSON(t, ts1.URL+"/programs/"+ids[p]+"/facts", factsRequest{Facts: facts})
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("replay: status %d: %s", resp.StatusCode, body)
				}
			}
		}
	}
	for p := 0; p < programs; p++ {
		_, p8 := getJSON(t, ts8.URL+"/programs/"+ids[p]+"/period")
		_, p1 := getJSON(t, ts1.URL+"/programs/"+ids[p]+"/period")
		if string(p8) != string(p1) {
			t.Fatalf("program %d: period diverged under concurrency: %s != %s", p, p8, p1)
		}
		for w := 0; w < writers; w++ {
			for i := 0; i < perWriter; i++ {
				q := fmt.Sprintf("exists T plane(T, p%dw%dr%d)", p, w, i)
				if !askServed(t, ts8.URL, ids[p], q) {
					t.Fatalf("batch p%dw%dr%d lost on sharded server", p, w, i)
				}
			}
		}
	}
}

// TestAskCoalesce pins the singleflight contract: with the lone pool
// worker held hostage, N identical concurrent asks form one flight —
// exactly one evaluation runs when the worker frees up, every other
// request reports Coalesced, and all N answers agree.
func TestAskCoalesce(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	id := register(t, ts.URL, skiUnit)

	// Occupy the single worker so the flight leader's evaluation cannot
	// start until released — the join window stays open deterministically.
	gate := make(chan struct{})
	occupied := make(chan struct{})
	go s.pool.Do(t.Context(), func() { close(occupied); <-gate }) //nolint:errcheck
	<-occupied

	const n = 8
	var wg sync.WaitGroup
	results := make([]askResponse, n)
	errCh := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postJSON(t, ts.URL+"/programs/"+id+"/ask", askRequest{Query: "plane(0, hunter)"})
			if resp.StatusCode != http.StatusOK {
				errCh <- fmt.Errorf("ask %d: status %d: %s", i, resp.StatusCode, body)
				return
			}
			if err := json.Unmarshal(body, &results[i]); err != nil {
				errCh <- err
			}
		}(i)
	}

	// Wait until all N are inside the flight: 1 leader + n-1 joiners.
	deadline := time.Now().Add(5 * time.Second)
	for s.metrics.Coalesced.Load() < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d joiners after 5s, want %d", s.metrics.Coalesced.Load(), n-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	if got := s.metrics.FlightLeaders.Load(); got != 1 {
		t.Fatalf("flight leaders = %d, want exactly 1 evaluation", got)
	}
	if got := s.metrics.Coalesced.Load(); got != n-1 {
		t.Fatalf("coalesced = %d, want %d", got, n-1)
	}
	coalesced := 0
	for i, r := range results {
		if !r.Result {
			t.Fatalf("ask %d: result false, want true", i)
		}
		if r.Coalesced {
			coalesced++
		}
	}
	if coalesced != n-1 {
		t.Fatalf("%d responses marked coalesced, want %d", coalesced, n-1)
	}
	if got := s.reg.flights.size(); got != 0 {
		t.Fatalf("%d flights still open after completion", got)
	}
}

// TestIngestInvalidatesFlightKey checks the revision in the flight key:
// after an ingest moves the program, a new ask must evaluate fresh (new
// flight, not a stale joined answer).
func TestIngestInvalidatesFlightKey(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	id := register(t, ts.URL, skiUnit)

	if askServed(t, ts.URL, id, "exists T plane(T, stowe)") {
		t.Fatal("stowe served before ingest")
	}
	leaders := s.metrics.FlightLeaders.Load()
	resp, body := postJSON(t, ts.URL+"/programs/"+id+"/facts",
		factsRequest{Facts: "resort(stowe).\nplane(1, stowe).\n"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", resp.StatusCode, body)
	}
	if !askServed(t, ts.URL, id, "exists T plane(T, stowe)") {
		t.Fatal("stowe not served after ingest — stale flight answer?")
	}
	if got := s.metrics.FlightLeaders.Load(); got != leaders+1 {
		t.Fatalf("flight leaders advanced by %d, want 1 (fresh evaluation on new rev)", got-leaders)
	}
}

// TestShardShedsFast saturates one shard's admission gate and requires
// the next request to be rejected promptly — a 429 with Retry-After in
// well under the request deadline — with the shed counters bumped.
func TestShardShedsFast(t *testing.T) {
	s, ts := newTestServer(t, Config{ShardQueue: 1, RequestTimeout: 30 * time.Second})
	id := register(t, ts.URL, skiUnit)

	// Fill the program's shard gate directly: capacity 1, one slot taken.
	sh := s.reg.shardFor(id)
	if !sh.tryAcquire() {
		t.Fatal("could not take the only admission slot")
	}
	defer sh.release()

	start := time.Now()
	resp, body := postJSON(t, ts.URL+"/programs/"+id+"/ask", askRequest{Query: "plane(0, hunter)"})
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	// The gate check is a CAS before any queueing, so a shed is
	// microseconds of work; 500ms is pure scheduling headroom and still
	// 60x under the 30s block-mode deadline.
	if elapsed > 500*time.Millisecond {
		t.Fatalf("shed took %v, want prompt rejection", elapsed)
	}
	if got := s.metrics.Shed.Load(); got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}
	if got := s.metrics.route("ask").Sheds.Load(); got != 1 {
		t.Fatalf("ask route sheds = %d, want 1", got)
	}
	if got := sh.sheds.Load(); got != 1 {
		t.Fatalf("shard sheds = %d, want 1", got)
	}

	// Other shards keep admitting: a different program is unaffected
	// unless it hashes into the saturated shard.
	id2 := register(t, ts.URL, skiUnit+"resort(okemo).\n")
	if s.reg.shardFor(id2) != sh {
		if !askServed(t, ts.URL, id2, "plane(0, hunter)") {
			t.Fatal("unrelated shard refused a query")
		}
	}

	// Block mode never sheds: the same saturated gate is simply ignored.
	_, tsBlock := newTestServer(t, Config{ShardQueue: 1, Shed: "block"})
	idb := register(t, tsBlock.URL, skiUnit)
	if resp, body := postJSON(t, tsBlock.URL+"/programs/"+idb+"/ask", askRequest{Query: "plane(0, hunter)"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("block mode: status %d: %s", resp.StatusCode, body)
	}
}

// TestWriterLockLifetime is the regression test for the unbounded
// writer-lock map: after any mix of sequential and concurrent ingests
// across programs, no per-program mutex may remain in the shard tables.
func TestWriterLockLifetime(t *testing.T) {
	s, ts := newTestServer(t, Config{Shards: 4})
	const programs = 5
	ids := make([]string, programs)
	for i := range ids {
		rules, facts := workload.Ski(workload.SkiParams{
			YearLen: 15, Resorts: 2, Planes: 3, Holidays: 1, Seed: int64(300 + i),
		})
		ids[i] = register(t, ts.URL, rules+facts)
	}

	var wg sync.WaitGroup
	for p := 0; p < programs; p++ {
		for w := 0; w < 3; w++ {
			wg.Add(1)
			go func(p, w int) {
				defer wg.Done()
				for i := 0; i < 3; i++ {
					facts := fmt.Sprintf("resort(l%dw%di%d).\n", p, w, i)
					resp, body := postJSON(t, ts.URL+"/programs/"+ids[p]+"/facts", factsRequest{Facts: facts})
					if resp.StatusCode != http.StatusOK {
						t.Errorf("ingest: status %d: %s", resp.StatusCode, body)
					}
				}
			}(p, w)
		}
	}
	wg.Wait()

	if got := s.reg.WritingLen(); got != 0 {
		t.Fatalf("%d writer locks still live after all ingests finished (leak)", got)
	}
}

// TestMetricsAdmissionFields checks the /metrics JSON carries the new
// queue, shard, and coalescing observability.
func TestMetricsAdmissionFields(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 4})
	id := register(t, ts.URL, skiUnit)
	askServed(t, ts.URL, id, "plane(0, hunter)")

	resp, body := getJSON(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	var snap MetricsSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.QueueCapacity <= 0 {
		t.Fatalf("queue_capacity = %d, want positive", snap.QueueCapacity)
	}
	if len(snap.Shards) != 4 {
		t.Fatalf("%d shard snapshots, want 4", len(snap.Shards))
	}
	var progs int
	for _, sh := range snap.Shards {
		progs += sh.Programs
		if sh.Capacity <= 0 {
			t.Fatalf("shard capacity %d, want positive", sh.Capacity)
		}
	}
	if progs != 1 {
		t.Fatalf("shards hold %d programs total, want 1", progs)
	}
}
