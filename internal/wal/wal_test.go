package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// chain builds n records continuing from (seq, rev).
func chain(seq uint64, rev string, batches ...string) []Record {
	var out []Record
	for _, b := range batches {
		next := NextRev(rev, b)
		seq++
		out = append(out, Record{Seq: seq, Prev: rev, Rev: next, Batch: b})
		rev = next
	}
	return out
}

func openStore(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() }) //nolint:errcheck
	return s
}

func testBase() Base {
	unit := "even(T+2) :- even(T).\neven(0).\n"
	return Base{ID: HashSource(unit, "", ""), Unit: unit}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	base := testBase()
	recs := chain(0, base.ID, "odd(1).", "odd(3).\nodd(5).", "p(0, a).")
	var buf bytes.Buffer
	for _, r := range recs {
		b, err := encodeRecord(r)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
	}
	got, good, err := DecodeRecords(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if good != int64(buf.Len()) {
		t.Errorf("good offset %d, want %d", good, buf.Len())
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Errorf("record %d: %+v != %+v", i, got[i], recs[i])
		}
	}
	if _, _, err := VerifyChain(0, base.ID, got); err != nil {
		t.Errorf("chain does not verify: %v", err)
	}
}

func TestDecodeTornAndCorrupt(t *testing.T) {
	base := testBase()
	recs := chain(0, base.ID, "odd(1).", "odd(3).")
	var buf bytes.Buffer
	var bounds []int
	for _, r := range recs {
		b, _ := encodeRecord(r)
		buf.Write(b)
		bounds = append(bounds, buf.Len())
	}
	raw := buf.Bytes()

	// Every strict prefix cut inside the second record is a torn tail:
	// one good record comes back, and the error is positioned at its end.
	for cut := bounds[0] + 1; cut < bounds[1]; cut++ {
		got, good, err := DecodeRecords(bytes.NewReader(raw[:cut]))
		ce, ok := err.(*CorruptError)
		if !ok || !ce.Torn {
			t.Fatalf("cut %d: err = %v, want torn CorruptError", cut, err)
		}
		if ce.Offset != int64(bounds[0]) || good != int64(bounds[0]) {
			t.Fatalf("cut %d: offset %d good %d, want %d", cut, ce.Offset, good, bounds[0])
		}
		if len(got) != 1 {
			t.Fatalf("cut %d: %d records, want 1", cut, len(got))
		}
	}

	// A bit flip inside the first record's payload is corruption, not a
	// torn tail, and is positioned at the record start.
	flipped := append([]byte(nil), raw...)
	flipped[headerBytes+3] ^= 0x40
	_, good, err := DecodeRecords(bytes.NewReader(flipped))
	ce, ok := err.(*CorruptError)
	if !ok || ce.Torn {
		t.Fatalf("bit flip: err = %v, want non-torn CorruptError", err)
	}
	if ce.Offset != 0 || good != 0 {
		t.Errorf("bit flip: offset %d good %d, want 0", ce.Offset, good)
	}
	if !strings.Contains(ce.Error(), "checksum") {
		t.Errorf("bit flip error is not checksum-aware: %v", ce)
	}

	// An implausible length header is corruption and must not allocate.
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}
	_, _, err = DecodeRecords(bytes.NewReader(huge))
	if ce, ok := err.(*CorruptError); !ok || ce.Torn {
		t.Fatalf("huge length: err = %v, want non-torn CorruptError", err)
	}
}

func TestStoreAppendRecoverTornTail(t *testing.T) {
	dir := t.TempDir()
	base := testBase()
	recs := chain(0, base.ID, "odd(1).", "odd(3).", "odd(5).")

	s := openStore(t, dir, Options{Policy: FsyncAlways})
	l, err := s.Create(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	st := l.stats()
	if st.Seq != 3 || st.DurableSeq != 3 || st.Rev != recs[2].Rev {
		t.Fatalf("stats after appends: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: drop the last 3 bytes of the final record.
	logPath := filepath.Join(dir, "programs", base.ID, "wal.log")
	info, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(logPath, info.Size()-3); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir, Options{Policy: FsyncAlways})
	rec, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec) != 1 {
		t.Fatalf("recovered %d programs, want 1", len(rec))
	}
	r := rec[0]
	if !r.TornTail {
		t.Error("torn tail not reported")
	}
	if r.Seq != 2 || r.Rev != recs[1].Rev || len(r.Records) != 2 {
		t.Fatalf("recovered (seq %d, rev %s, %d records), want the 2-record prefix",
			r.Seq, r.Rev, len(r.Records))
	}
	// The log was repaired: appending the third batch again continues
	// the chain cleanly.
	if err := s2.Log(base.ID).Append(recs[2]); err != nil {
		t.Fatalf("append after repair: %v", err)
	}
}

func TestStoreRejectsMidLogCorruption(t *testing.T) {
	dir := t.TempDir()
	base := testBase()
	recs := chain(0, base.ID, "odd(1).", "odd(3).")

	s := openStore(t, dir, Options{Policy: FsyncAlways})
	l, err := s.Create(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	s.Close() //nolint:errcheck

	// Flip a payload bit in the FIRST record: corruption before the
	// tail must fail recovery, not silently truncate history.
	logPath := filepath.Join(dir, "programs", base.ID, "wal.log")
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	data[headerBytes+2] ^= 1
	if err := os.WriteFile(logPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, dir, Options{})
	if _, err := s2.Recover(); err == nil {
		t.Fatal("recovery accepted a mid-log corruption")
	}
}

// TestRecoverRefusesSnapshotLayout recovers a directory an older writer
// left behind, with batches folded into snapshot.json. Recovery must fail
// naming the file and leave wal.log as it found it, torn tail included.
func TestRecoverRefusesSnapshotLayout(t *testing.T) {
	dir := t.TempDir()
	base := testBase()
	s := openStore(t, dir, Options{Policy: FsyncAlways})
	l, err := s.Create(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range chain(0, base.ID, "odd(1).", "odd(3).") {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	s.Close() //nolint:errcheck

	pdir := filepath.Join(dir, "programs", base.ID)
	logPath := filepath.Join(pdir, "wal.log")
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	torn := data[:len(data)-3]
	if err := os.WriteFile(logPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(pdir, "snapshot.json")
	if err := os.WriteFile(snapPath, []byte(`{"seq":0}`), 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = openStore(t, dir, Options{}).Recover()
	if err == nil || !strings.Contains(err.Error(), snapPath) {
		t.Fatalf("Recover = %v, want an error naming %s", err, snapPath)
	}
	if after, err := os.ReadFile(logPath); err != nil || !bytes.Equal(after, torn) {
		t.Fatalf("wal.log changed by a refused recovery (%v)", err)
	}
}

func TestAppendChainDiscipline(t *testing.T) {
	dir := t.TempDir()
	base := testBase()
	s := openStore(t, dir, Options{Policy: FsyncOff})
	l, err := s.Create(base)
	if err != nil {
		t.Fatal(err)
	}
	good := chain(0, base.ID, "odd(1).")[0]
	if err := l.Append(good); err != nil {
		t.Fatal(err)
	}
	// Wrong seq, wrong prev, and a rev that does not hash are all
	// rejected before any byte is written.
	bad := []Record{
		{Seq: 3, Prev: good.Rev, Rev: NextRev(good.Rev, "x."), Batch: "x."},
		{Seq: 2, Prev: "deadbeef", Rev: NextRev("deadbeef", "x."), Batch: "x."},
		{Seq: 2, Prev: good.Rev, Rev: "deadbeef", Batch: "x."},
	}
	before := l.stats().Bytes
	for i, r := range bad {
		if err := l.Append(r); err == nil {
			t.Errorf("bad record %d accepted", i)
		}
	}
	if l.stats().Bytes != before {
		t.Error("rejected append wrote bytes")
	}
}

func TestIntervalPolicySyncs(t *testing.T) {
	dir := t.TempDir()
	base := testBase()
	var syncs int
	s := openStore(t, dir, Options{
		Policy:        FsyncInterval,
		Interval:      5 * time.Millisecond,
		FsyncObserver: func(time.Duration) { syncs++ },
	})
	l, err := s.Create(base)
	if err != nil {
		t.Fatal(err)
	}
	rec := chain(0, base.ID, "odd(1).")[0]
	if err := l.Append(rec); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for l.stats().DurableSeq != 1 {
		if time.Now().After(deadline) {
			t.Fatal("interval sync never caught up")
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if syncs == 0 {
		t.Error("fsync observer never called")
	}
	if err := l.Append(rec); err != ErrClosed {
		t.Errorf("append after close: %v, want ErrClosed", err)
	}
}

func TestCreateIsIdempotent(t *testing.T) {
	dir := t.TempDir()
	base := testBase()
	s := openStore(t, dir, Options{Policy: FsyncOff})
	l1, err := s.Create(base)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := s.Create(base)
	if err != nil {
		t.Fatal(err)
	}
	if l1 != l2 {
		t.Error("second Create returned a different log")
	}
}

// TestAppendPartialWriteTruncatesBack: a failed append (ENOSPC, I/O
// error) that leaves partial record bytes must not let the next
// successful append bury them mid-log — which recovery treats as fatal.
// The log truncates back to the last record boundary and keeps working.
func TestAppendPartialWriteTruncatesBack(t *testing.T) {
	dir := t.TempDir()
	base := testBase()
	recs := chain(0, base.ID, "odd(1).", "odd(3).", "odd(5).")

	s := openStore(t, dir, Options{Policy: FsyncAlways})
	l, err := s.Create(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(recs[0]); err != nil {
		t.Fatal(err)
	}

	// Inject one short write: half the record's bytes land, then the
	// disk "fills up".
	failNext := true
	l.mu.Lock()
	l.writeHook = func(b []byte) (int, error) {
		if !failNext {
			return l.f.Write(b)
		}
		failNext = false
		n, _ := l.f.Write(b[:len(b)/2])
		return n, errors.New("injected: no space left on device")
	}
	l.mu.Unlock()
	if err := l.Append(recs[1]); err == nil || !strings.Contains(err.Error(), "injected") {
		t.Fatalf("append = %v, want the injected write error", err)
	}

	// The torn bytes are gone: retrying the same record appends cleanly
	// after the first one, and the chain keeps extending.
	if err := l.Append(recs[1]); err != nil {
		t.Fatalf("append after repaired short write: %v", err)
	}
	if err := l.Append(recs[2]); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := openStore(t, dir, Options{}).Recover()
	if err != nil {
		t.Fatalf("recovery after repaired short write: %v", err)
	}
	if len(got) != 1 || got[0].Seq != 3 || got[0].TornTail {
		t.Fatalf("recovered %+v, want a clean log at seq 3", got)
	}
}

// TestAppendPoisonsLogWhenTruncateFails: if the truncate-back repair
// itself fails, the log must reject all further appends — writing after
// the torn bytes would turn a repairable torn tail into fatal mid-log
// corruption.
func TestAppendPoisonsLogWhenTruncateFails(t *testing.T) {
	dir := t.TempDir()
	base := testBase()
	recs := chain(0, base.ID, "odd(1).", "odd(3).")

	s := openStore(t, dir, Options{Policy: FsyncOff})
	l, err := s.Create(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(recs[0]); err != nil {
		t.Fatal(err)
	}

	// Swap the fd for a read-only one: the write fails and so does the
	// truncate repair.
	ro, err := os.Open(filepath.Join(dir, "programs", base.ID, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	l.mu.Lock()
	orig := l.f
	l.f = ro
	l.mu.Unlock()

	if err := l.Append(recs[1]); err == nil {
		t.Fatal("append through a read-only fd succeeded")
	}
	// The log is poisoned: every further append is rejected up front.
	if err := l.Append(recs[1]); err == nil || !strings.Contains(err.Error(), "torn") {
		t.Fatalf("append on poisoned log = %v, want torn-log rejection", err)
	}

	l.mu.Lock()
	l.f = orig
	l.mu.Unlock()
	ro.Close()
}
