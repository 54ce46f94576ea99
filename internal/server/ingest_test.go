package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"tdd/internal/wal"
	"tdd/internal/workload"
)

// ingest posts one fact batch and decodes the response.
func ingest(t *testing.T, base, id, facts string) factsResponse {
	t.Helper()
	resp, body := postJSON(t, base+"/programs/"+id+"/facts", factsRequest{Facts: facts})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("facts: status %d: %s", resp.StatusCode, body)
	}
	var fr factsResponse
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatal(err)
	}
	return fr
}

func TestIngestBasic(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := register(t, ts.URL, skiUnit)

	if askServed(t, ts.URL, id, "exists T plane(T, whistler)") {
		t.Fatal("whistler should not fly yet")
	}
	fr := ingest(t, ts.URL, id, "resort(whistler).\nplane(1, whistler).\n")
	if fr.ID != id {
		t.Fatalf("id changed: %s", fr.ID)
	}
	if fr.Rev == id {
		t.Fatal("rev did not advance")
	}
	if fr.NewFacts != 2 || !fr.Recertified {
		t.Fatalf("unexpected result: %+v", fr)
	}
	if !askServed(t, ts.URL, id, "exists T plane(T, whistler)") {
		t.Fatal("whistler missing after ingestion")
	}
	// The spec endpoint serves the re-preprocessed specification.
	resp, body := getJSON(t, ts.URL+"/programs/"+id+"/spec")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("spec: status %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "whistler") {
		t.Fatal("served specification lacks the ingested constant")
	}
	// Duplicates are no-ops but still advance the revision chain.
	fr2 := ingest(t, ts.URL, id, "resort(whistler).\n")
	if fr2.NewFacts != 0 || fr2.Duplicates != 1 {
		t.Fatalf("duplicate batch: %+v", fr2)
	}
	if fr2.Rev == fr.Rev {
		t.Fatal("rev must advance with every batch")
	}
}

func TestIngestErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := register(t, ts.URL, skiUnit)

	// Unknown program.
	resp, _ := postJSON(t, ts.URL+"/programs/nope/facts", factsRequest{Facts: "resort(x)."})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id: status %d", resp.StatusCode)
	}
	// Empty batch.
	resp, _ = postJSON(t, ts.URL+"/programs/"+id+"/facts", factsRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d", resp.StatusCode)
	}
	// Malformed fact source.
	resp, _ = postJSON(t, ts.URL+"/programs/"+id+"/facts", factsRequest{Facts: "resort(x"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("parse error: status %d", resp.StatusCode)
	}
	// Signature conflict: plane is temporal with one argument.
	resp, _ = postJSON(t, ts.URL+"/programs/"+id+"/facts", factsRequest{Facts: "plane(zermatt)."})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("signature conflict: status %d", resp.StatusCode)
	}
	// A failed ingestion publishes nothing.
	if askServed(t, ts.URL, id, "exists T plane(T, zermatt)") {
		t.Fatal("failed ingestion leaked facts")
	}
}

// TestIngestSurvivesEviction: after the LRU evicts an ingested program,
// the next lookup recompiles it from base + replayed batches and answers
// identically.
func TestIngestSurvivesEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheSize: 1})
	id := register(t, ts.URL, skiUnit)
	ingest(t, ts.URL, id, "resort(whistler).\nplane(1, whistler).\n")

	// Displace the ski program from the one-slot cache.
	other := register(t, ts.URL, evenUnit)
	if !askServed(t, ts.URL, other, "even(2)") {
		t.Fatal("even(2)")
	}
	if s.Registry().CachedLen() != 1 {
		t.Fatalf("cache len %d, want 1", s.Registry().CachedLen())
	}
	// The recompiled entry must include the ingested stream.
	if !askServed(t, ts.URL, id, "exists T plane(T, whistler)") {
		t.Fatal("recompiled program lost the ingested facts")
	}
}

// TestIngestConcurrent hammers one program with concurrent ingestions and
// queries; run under -race via scripts/ci.sh. Every batch must land
// (writers are serialized per program) and queries must never error.
func TestIngestConcurrent(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := register(t, ts.URL, skiUnit)

	const writers, perWriter, readers = 4, 5, 4
	var wg sync.WaitGroup
	errs := make(chan error, writers*perWriter+readers*perWriter)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r := fmt.Sprintf("w%dr%d", w, i)
				resp, body := postJSON(t, ts.URL+"/programs/"+id+"/facts",
					factsRequest{Facts: fmt.Sprintf("resort(%s).\nplane(%d, %s).\n", r, (w+i)%10, r)})
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("writer %d: status %d: %s", w, resp.StatusCode, body)
					return
				}
			}
		}(w)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				resp, body := postJSON(t, ts.URL+"/programs/"+id+"/ask",
					askRequest{Query: "plane(0, hunter)"})
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("reader %d: status %d: %s", g, resp.StatusCode, body)
					return
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
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			r := fmt.Sprintf("w%dr%d", w, i)
			if !askServed(t, ts.URL, id, fmt.Sprintf("exists T plane(T, %s)", r)) {
				t.Fatalf("batch %s lost", r)
			}
		}
	}
}

// TestIngestMetrics: ingestion shows up in the global counters and the
// per-program engine section of /metrics.
func TestIngestMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := register(t, ts.URL, skiUnit)
	fr := ingest(t, ts.URL, id, "resort(whistler).\nplane(1, whistler).\n")

	snap := scrapeJSON(t, ts.URL)
	if a, n := snap.num(t, "asserts"), snap.num(t, "facts_ingested"); a != 1 || n != 2 {
		t.Fatalf("asserts=%v ingested=%v, want 1 and 2", a, n)
	}
	ps, ok := snap["programs"].(map[string]any)[id].(map[string]any)
	if !ok {
		t.Fatalf("program %s missing from metrics: %v", id, snap)
	}
	if ps["rev"] != fr.Rev {
		t.Fatalf("metrics rev %v, response rev %s", ps["rev"], fr.Rev)
	}
	if snap.num(t, "programs", id, "derived") <= 0 || snap.num(t, "programs", id, "firings") <= 0 {
		t.Fatalf("engine counters not wired: %+v", ps)
	}
	if snap.num(t, "programs", id, "period", "p") == 0 {
		t.Fatalf("period not reported: %+v", ps)
	}
}

// TestRegisterRaceDoesNotClobberIngestedState pins the publish-or-drop
// rule: a duplicate registration that finishes compiling after the first
// copy has published — and after clients have ingested batches — must
// not overwrite the cache with its stale base-only entry. publish is the
// exact critical section both racing Registers funnel through.
func TestRegisterRaceDoesNotClobberIngestedState(t *testing.T) {
	reg := NewRegistry(8, 0, newMetrics(routeNames))
	ent, _, err := reg.Register(evenUnit, "", "")
	if err != nil {
		t.Fatal(err)
	}
	id := ent.ID()
	if _, _, err := reg.Ingest(id, "even(100).\n"); err != nil {
		t.Fatal(err)
	}

	// The slow duplicate: it passed Register's early exists-check before
	// the first copy published, compiled from base sources only, and now
	// tries to publish while the program has moved on.
	stale := &programSource{id: id, unit: evenUnit}
	sent, err := reg.compile(stale)
	if err != nil {
		t.Fatal(err)
	}
	if reg.publish(stale, sent) {
		t.Fatal("stale duplicate registration won the publish race")
	}

	// The served entry still carries the ingested batch.
	cur, err := reg.Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	if want := wal.NextRev(id, "even(100).\n"); cur.Rev() != want {
		t.Fatalf("served rev %s, want %s — cache clobbered by stale registration", cur.Rev(), want)
	}
	got, err := cur.db.Ask("even(100)")
	if err != nil || !got {
		t.Fatalf("ingested fact lost after duplicate registration: %v %v", got, err)
	}
	// And the registered source agrees, so the next Ingest chains off the
	// full history.
	if seq, rev, _ := reg.SeqRev(id); seq != 1 || rev != cur.Rev() {
		t.Fatalf("source at (%d, %s), want (1, %s)", seq, rev, cur.Rev())
	}
}

// TestApplyReplicatedRejectsDivergentRecordPrePublish: a leader record
// that does not continue the follower's local chain must be rejected
// before anything is ingested or published — a diverged model is never
// served, not even transiently.
func TestApplyReplicatedRejectsDivergentRecordPrePublish(t *testing.T) {
	reg := NewRegistry(8, 0, newMetrics(routeNames))
	ent, _, err := reg.Register(evenUnit, "", "")
	if err != nil {
		t.Fatal(err)
	}
	id := ent.ID()

	// Wrong prev (the chain does not continue local state).
	bad := wal.Record{Seq: 1, Prev: "bogus", Rev: wal.NextRev("bogus", "even(50).\n"), Batch: "even(50).\n"}
	if err := reg.ApplyReplicated(id, bad); err == nil || !strings.Contains(err.Error(), "divergence") {
		t.Fatalf("wrong-prev record: err = %v, want divergence", err)
	}
	// Wrong claimed rev with a correct prev.
	bad = wal.Record{Seq: 1, Prev: id, Rev: "wrong", Batch: "even(50).\n"}
	if err := reg.ApplyReplicated(id, bad); err == nil || !strings.Contains(err.Error(), "divergence") {
		t.Fatalf("wrong-rev record: err = %v, want divergence", err)
	}
	// Nothing was published by either rejection.
	if seq, rev, _ := reg.SeqRev(id); seq != 0 || rev != id {
		t.Fatalf("divergent record mutated local state: (%d, %s), want (0, %s)", seq, rev, id)
	}
	if cur, err := reg.Lookup(id); err != nil || cur.Rev() != id {
		t.Fatalf("served entry moved: rev %s, want %s (err %v)", cur.Rev(), id, err)
	}

	// A record that does continue the chain applies normally.
	good := wal.Record{Seq: 1, Prev: id, Rev: wal.NextRev(id, "even(50).\n"), Batch: "even(50).\n"}
	if err := reg.ApplyReplicated(id, good); err != nil {
		t.Fatal(err)
	}
	if seq, rev, _ := reg.SeqRev(id); seq != 1 || rev != good.Rev {
		t.Fatalf("good record left state at (%d, %s), want (1, %s)", seq, rev, good.Rev)
	}
}

// TestIngestWhileQuerying runs concurrent writers and readers over several
// programs, then checks every batch landed and the final state matches a
// second server given the same batches sequentially. Run under -race via
// scripts/ci.sh.
func TestIngestWhileQuerying(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, tsSeq := newTestServer(t, Config{})

	const programs, writers, perWriter = 3, 3, 4
	ids := make([]string, programs)
	for i := range ids {
		rules, facts := workload.Ski(workload.SkiParams{
			YearLen: 20, Resorts: 3, Planes: 4, Holidays: 2, Seed: int64(200 + i),
		})
		unit := rules + facts
		ids[i] = register(t, ts.URL, unit)
		if got := register(t, tsSeq.URL, unit); got != ids[i] {
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
					resp, body := postJSON(t, ts.URL+"/programs/"+ids[p]+"/facts", factsRequest{Facts: facts})
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
				resp, body := postJSON(t, ts.URL+"/programs/"+ids[p]+"/ask", askRequest{Query: "plane(0, r0)"})
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

	// Replay the same batches sequentially into the second server (order
	// within a program does not matter for the model: batches commute as
	// sets of facts, and revs are order-dependent so only the model-level
	// observables are compared).
	for p := 0; p < programs; p++ {
		for w := 0; w < writers; w++ {
			for i := 0; i < perWriter; i++ {
				facts := fmt.Sprintf("resort(p%dw%dr%d).\nplane(%d, p%dw%dr%d).\n", p, w, i, (w+i)%10, p, w, i)
				resp, body := postJSON(t, tsSeq.URL+"/programs/"+ids[p]+"/facts", factsRequest{Facts: facts})
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("replay: status %d: %s", resp.StatusCode, body)
				}
			}
		}
	}
	for p := 0; p < programs; p++ {
		_, got := getJSON(t, ts.URL+"/programs/"+ids[p]+"/period")
		_, want := getJSON(t, tsSeq.URL+"/programs/"+ids[p]+"/period")
		if string(got) != string(want) {
			t.Fatalf("program %d: period diverged under concurrency: %s != %s", p, got, want)
		}
		for w := 0; w < writers; w++ {
			for i := 0; i < perWriter; i++ {
				q := fmt.Sprintf("exists T plane(T, p%dw%dr%d)", p, w, i)
				if !askServed(t, ts.URL, ids[p], q) {
					t.Fatalf("batch p%dw%dr%d lost under concurrent ingest", p, w, i)
				}
			}
		}
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

// TestWriterLockLifetime checks what the per-program writer lock is for:
// concurrent ingests on one program are serialized, so none is lost. Each
// of 5 programs takes 3 batches from each of 3 concurrent writers; every
// program must end at seq 9 with a feed whose rev chain verifies from its
// id, and every ingested fact must hold.
func TestWriterLockLifetime(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	const programs, writers, perWriter = 5, 3, 3
	ids := make([]string, programs)
	for i := range ids {
		rules, facts := workload.Ski(workload.SkiParams{
			YearLen: 15, Resorts: 2, Planes: 3, Holidays: 1, Seed: int64(300 + i),
		})
		ids[i] = register(t, ts.URL, rules+facts)
	}

	var wg sync.WaitGroup
	for p := 0; p < programs; p++ {
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(p, w int) {
				defer wg.Done()
				for i := 0; i < perWriter; i++ {
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

	for p, id := range ids {
		resp, err := http.Get(ts.URL + "/programs/" + id + "/wal?from=0")
		if err != nil {
			t.Fatal(err)
		}
		var feed WalFeed
		err = json.NewDecoder(resp.Body).Decode(&feed)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		seq, rev, err := wal.VerifyChain(0, id, feed.Records)
		if err != nil || seq != writers*perWriter || feed.Seq != seq || feed.Rev != rev {
			t.Fatalf("program %d: feed at (seq %d, rev %s) chains to (%d, %s, %v), want seq %d",
				p, feed.Seq, feed.Rev, seq, rev, err, writers*perWriter)
		}
		ent, err := s.reg.Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		for w := 0; w < writers; w++ {
			for i := 0; i < perWriter; i++ {
				c := fmt.Sprintf("l%dw%di%d", p, w, i)
				if ok, err := ent.db.Holds("resort", c); err != nil || !ok {
					t.Errorf("program %d: resort(%s) = %v, %v after all ingests; want true", p, c, ok, err)
				}
			}
		}
	}
}
