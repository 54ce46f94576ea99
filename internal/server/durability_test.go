package server

// Recovery of batches whose sorts the program fixes, and the
// shutdown-ordering regression test: ingests racing a graceful shutdown
// are either fully logged or rejected, never torn. (Recovery of every
// crash point is FuzzModel's crash step, model_test.go.)

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"tdd/internal/wal"
)

// copyDir clones a data directory so a crash point can be simulated
// destructively without disturbing the original.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// durableRegistry builds a registry over dir with the given fsync policy.
func durableRegistry(t *testing.T, dir string, pol wal.Policy) *Registry {
	t.Helper()
	reg := NewRegistry(8, 0, newMetrics(routeNames))
	store, err := wal.Open(dir, wal.Options{Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	reg.EnableDurability(store)
	return reg
}

// TestRecoverBatchesOfKnownSorts recovers a log whose batches read
// differently on their own than against the program's signatures: best is
// non-temporal, yet best(10) alone, a @temporal directive and an interval
// would make it temporal. Replay parses each batch against the known
// signatures, as its ingestion did, so every batch loads again.
func TestRecoverBatchesOfKnownSorts(t *testing.T) {
	dir := t.TempDir()
	reg := durableRegistry(t, dir, wal.FsyncAlways)
	ent, _, err := reg.Register("@nontemporal best.\ntop(X) :- best(X).\nbest(7).\n", "", "")
	if err != nil {
		t.Fatal(err)
	}
	id := ent.ID()
	for _, b := range []string{"best(10). best(n1).\n", "@temporal best.\nbest(3).\n", "best(20..21).\n"} {
		if _, _, err := reg.Ingest(id, b); err != nil {
			t.Fatalf("ingest %q: %v", b, err)
		}
	}
	if err := reg.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	reg2 := durableRegistry(t, dir, wal.FsyncOff)
	if _, _, err := reg2.RecoverFromWAL(true); err != nil {
		t.Fatal(err)
	}
	ent2, err := reg2.Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []string{"7", "10", "n1", "3", "20", "21"} {
		if ok, err := ent2.db.Holds("top", c); err != nil || !ok {
			t.Errorf("recovered top(%s) = %v, %v; want true", c, ok, err)
		}
	}
}

// TestShutdownFlushesWAL is the shutdown-ordering regression test:
// ingests race a graceful shutdown, and afterwards every acknowledged
// (2xx) batch must be fully on disk — recovery succeeds (no torn
// record survives), the recovered seq covers every ack, and every
// acknowledged rev appears on the recovered chain.
func TestShutdownFlushesWAL(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(Config{DataDir: dir, Fsync: "always"})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l) //nolint:errcheck // returns ErrServerClosed on shutdown
	url := "http://" + l.Addr().String()

	body, _ := json.Marshal(registerRequest{Unit: evenUnit})
	resp, err := http.Post(url+"/programs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var reg registerResponse
	if err := json.NewDecoder(resp.Body).Decode(&reg); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Hammer the facts endpoint from several goroutines while the server
	// shuts down under them; collect every acknowledged rev.
	var (
		mu       sync.Mutex
		ackRevs  []string
		wg       sync.WaitGroup
		shutdown = make(chan struct{})
	)
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-shutdown:
					return
				default:
				}
				// Odd timestamps, distinct per worker/iteration, kept small so
				// re-certification windows stay cheap.
				batch := fmt.Sprintf("even(%d).\n", 3+2*(w*500+i))
				buf, _ := json.Marshal(factsRequest{Facts: batch})
				resp, err := http.Post(url+"/programs/"+reg.ID+"/facts", "application/json", bytes.NewReader(buf))
				if err != nil {
					return // listener closed mid-request
				}
				var fr factsResponse
				ok := resp.StatusCode == http.StatusOK && json.NewDecoder(resp.Body).Decode(&fr) == nil
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
				if !ok {
					return // rejected: shutdown won the race
				}
				mu.Lock()
				ackRevs = append(ackRevs, fr.Rev)
				mu.Unlock()
			}
		}()
	}
	time.Sleep(150 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	close(shutdown)
	wg.Wait()

	// Recover: must succeed (a torn record would fail loudly), and the
	// chain must contain every acknowledged rev.
	rec := durableRegistry(t, dir, wal.FsyncOff)
	if _, _, err := rec.RecoverFromWAL(false); err != nil {
		t.Fatalf("recovery after shutdown: %v", err)
	}
	seq, _, ok := rec.SeqRev(reg.ID)
	if !ok {
		t.Fatal("program lost across shutdown")
	}
	if seq < uint64(len(ackRevs)) {
		t.Fatalf("recovered %d batches < %d acknowledged", seq, len(ackRevs))
	}
	feed, err := rec.Feed(reg.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	onChain := map[string]bool{reg.ID: true}
	for _, r := range feed.Records {
		onChain[r.Rev] = true
	}
	for _, rev := range ackRevs {
		if !onChain[rev] {
			t.Fatalf("acknowledged rev %s missing from recovered chain (%d records)", rev, len(feed.Records))
		}
	}
	if len(ackRevs) == 0 {
		t.Log("no ingest was acknowledged before shutdown; invariant vacuous this run")
	}
}
