package server

// Snapshot restart against a never-crashed engine, and the
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

	"tdd"
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

// durableRegistry builds a registry over dir with the given fsync policy
// and snapshot cadence.
func durableRegistry(t *testing.T, dir string, pol wal.Policy, snapshotEvery int) *Registry {
	t.Helper()
	reg := NewRegistry(8, 0, newMetrics(routeNames))
	store, err := wal.Open(dir, wal.Options{Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	reg.EnableDurability(store, snapshotEvery)
	return reg
}

// TestSnapshotRestartDifferential restarts a registry whose history has
// been folded into snapshots (log truncated): the recovered model must
// still match the never-crashed oracle over the full batch sequence.
func TestSnapshotRestartDifferential(t *testing.T) {
	dir := t.TempDir()
	reg := durableRegistry(t, dir, wal.FsyncAlways, 2)
	ent, _, err := reg.Register(evenUnit, "", "")
	if err != nil {
		t.Fatal(err)
	}
	id := ent.ID()
	batches := []string{"even(101).\n", "even(203).\n", "even(305).\n", "even(407).\n", "even(509).\n"}
	for _, b := range batches {
		if _, _, err := reg.Ingest(id, b); err != nil {
			t.Fatal(err)
		}
	}
	if reg.metrics.Snapshots.Load() == 0 {
		t.Fatal("no snapshot was taken at snapshotEvery=2")
	}
	if err := reg.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	// The snapshot's spec member is exported at snapshot time from the
	// fork being published: it imports stand-alone and carries the period
	// of the model as of the snapshot's last batch.
	var snap wal.Snapshot
	data, err := os.ReadFile(filepath.Join(dir, "programs", id, "snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	sdb, err := tdd.ImportSpec(snap.Spec)
	if err != nil {
		t.Fatalf("snapshot spec does not import: %v", err)
	}
	at, err := tdd.OpenUnit(evenUnit)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches[:snap.Seq] {
		if _, err := at.Assert(b); err != nil {
			t.Fatal(err)
		}
	}
	if per, err := at.Period(); err != nil || sdb.Period() != per {
		t.Fatalf("snapshot spec at seq %d has period %v, oracle %v (err %v)", snap.Seq, sdb.Period(), per, err)
	}

	reg2 := durableRegistry(t, dir, wal.FsyncOff, 0)
	if _, _, err := reg2.RecoverFromWAL(true); err != nil {
		t.Fatal(err)
	}
	seq, _, _ := reg2.SeqRev(id)
	if seq != uint64(len(batches)) {
		t.Fatalf("recovered seq %d, want %d", seq, len(batches))
	}
	ent2, err := reg2.Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := ent2.db.ModelFingerprint()
	if err != nil {
		t.Fatal(err)
	}
	db, err := tdd.OpenUnit(evenUnit)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if _, err := db.Assert(b); err != nil {
			t.Fatal(err)
		}
	}
	want, err := db.ModelFingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp != want {
		t.Fatalf("snapshot-recovered fingerprint %s != oracle %s", fp, want)
	}
}

// TestShutdownFlushesWAL is the shutdown-ordering regression test:
// ingests race a graceful shutdown, and afterwards every acknowledged
// (2xx) batch must be fully on disk — recovery succeeds (no torn
// record survives), the recovered seq covers every ack, and every
// acknowledged rev appears on the recovered chain.
func TestShutdownFlushesWAL(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(Config{DataDir: dir, Fsync: "always", SnapshotEvery: -1})
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
	rec := durableRegistry(t, dir, wal.FsyncOff, 0)
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
