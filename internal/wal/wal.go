package wal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Policy selects when appended records are fsynced to stable storage.
type Policy int

const (
	// FsyncAlways syncs inside every Append: a batch is acknowledged only
	// once durable. The safest and slowest policy.
	FsyncAlways Policy = iota
	// FsyncInterval syncs dirty logs on a background ticker (and on
	// Close): a crash can lose up to one interval of acknowledged batches,
	// never tear one.
	FsyncInterval
	// FsyncOff leaves syncing to the OS (and Close). Crash loss is
	// unbounded; tearing is still repaired by recovery truncation.
	FsyncOff
)

// ParsePolicy maps the tddserve -fsync flag values.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "off":
		return FsyncOff, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval, or off)", s)
}

// Options configures a Store.
type Options struct {
	// Policy selects the fsync discipline (default FsyncAlways).
	Policy Policy
	// Interval is the background sync period for FsyncInterval
	// (default 100ms).
	Interval time.Duration
	// FsyncObserver, if non-nil, receives the latency of every fsync —
	// the server feeds its fsync histogram with it.
	FsyncObserver func(time.Duration)
}

// Store is the root of a data directory: one Log per program, a shared
// fsync policy, and the background interval-sync loop. Safe for
// concurrent use.
type Store struct {
	dir  string
	opts Options

	mu     sync.Mutex
	logs   map[string]*Log // guarded-by: mu
	closed bool            // guarded-by: mu
	stop   chan struct{}
	done   chan struct{}
}

// Open prepares dir (creating programs/ if needed) and starts the
// interval-sync loop when the policy asks for one. Call Recover before
// creating new logs so existing programs are loaded first.
func Open(dir string, opts Options) (*Store, error) {
	if opts.Interval <= 0 {
		opts.Interval = 100 * time.Millisecond
	}
	if err := os.MkdirAll(filepath.Join(dir, "programs"), 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		dir:  dir,
		opts: opts,
		logs: make(map[string]*Log),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	if opts.Policy == FsyncInterval {
		go s.syncLoop()
	} else {
		close(s.done)
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) syncLoop() {
	defer close(s.done)
	t := time.NewTicker(s.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			for _, l := range s.snapshotLogs() {
				l.Sync() //nolint:errcheck // surfaced on the next append
			}
		}
	}
}

// snapshotLogs copies the live log set so syncing happens outside mu.
func (s *Store) snapshotLogs() []*Log {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Log, 0, len(s.logs))
	for _, l := range s.logs {
		out = append(out, l)
	}
	return out
}

// Recovered is one program reconstructed from disk: its base sources and
// the full verified record history in wal.log. TornTail reports that an
// incomplete final record — a crash mid-append — was dropped and the log
// truncated back to the last good boundary.
type Recovered struct {
	Base     Base
	Records  []Record
	Seq      uint64
	Rev      string
	TornTail bool
}

// Recover scans programs/, verifies every program's chain, repairs torn
// tails, and reopens each log for appending. It must run before Create
// so prior history is never shadowed. Mid-log corruption (a checksum
// failure before the tail) fails recovery for the whole store: durable
// data that cannot be trusted should stop the boot loudly, not silently
// shrink.
func (s *Store) Recover() ([]Recovered, error) {
	root := filepath.Join(s.dir, "programs")
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, err
	}
	var out []Recovered
	for _, ent := range entries {
		if !ent.IsDir() {
			continue
		}
		rec, err := s.recoverProgram(ent.Name())
		if err != nil {
			return nil, fmt.Errorf("recovering program %s: %w", ent.Name(), err)
		}
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Base.ID < out[j].Base.ID })
	return out, nil
}

func (s *Store) recoverProgram(id string) (Recovered, error) {
	dir := filepath.Join(s.dir, "programs", id)
	var base Base
	if err := readJSON(filepath.Join(dir, "base.json"), &base); err != nil {
		return Recovered{}, fmt.Errorf("reading base: %w", err)
	}
	if base.ID != id {
		return Recovered{}, fmt.Errorf("base.json claims id %s inside directory %s", base.ID, id)
	}
	if got := HashSource(base.Unit, base.Rules, base.Facts); got != id {
		return Recovered{}, fmt.Errorf("base sources hash to %s, not %s — sources were altered", got, id)
	}

	// An older writer folded batches out of wal.log into snapshot.json
	// and truncated the log. Booting from the log alone would silently
	// drop those batches: refuse the directory before touching it.
	snap := filepath.Join(dir, "snapshot.json")
	if _, err := os.Stat(snap); err == nil {
		return Recovered{}, fmt.Errorf("%s holds batches this version no longer reads; wal.log alone is not the program's history", snap)
	} else if !os.IsNotExist(err) {
		return Recovered{}, err
	}

	logPath := filepath.Join(dir, "wal.log")
	data, err := os.ReadFile(logPath)
	if err != nil && !os.IsNotExist(err) {
		return Recovered{}, err
	}
	records, good, derr := DecodeRecords(bytes.NewReader(data))
	if derr != nil {
		ce, ok := derr.(*CorruptError)
		if !ok || !ce.Torn {
			return Recovered{}, derr
		}
		// A torn final record is the expected wound of a crash
		// mid-append: the batch was never acknowledged, so dropping it
		// restores exactly the acknowledged history.
		if err := os.Truncate(logPath, good); err != nil {
			return Recovered{}, fmt.Errorf("truncating torn tail: %w", err)
		}
	}
	seq, rev, err := VerifyChain(0, id, records)
	if err != nil {
		return Recovered{}, err
	}
	rec := Recovered{Base: base, Records: records, Seq: seq, Rev: rev, TornTail: derr != nil}

	f, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return Recovered{}, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return Recovered{}, err
	}
	l := &Log{
		store: s, f: f,
		seq: rec.Seq, rev: rec.Rev,
		syncedSeq: rec.Seq, syncedRev: rec.Rev,
		bytes: st.Size(),
	}
	s.mu.Lock()
	s.logs[id] = l
	s.mu.Unlock()
	return rec, nil
}

// Create opens (or reopens) the log for a newly registered program,
// writing base.json durably first. Creating an id that already exists
// with the same base is idempotent — the content hash guarantees two
// racing registrations carry identical sources.
func (s *Store) Create(base Base) (*Log, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if l, ok := s.logs[base.ID]; ok {
		s.mu.Unlock()
		return l, nil
	}
	s.mu.Unlock()

	dir := filepath.Join(s.dir, "programs", base.ID)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := writeFileDurable(filepath.Join(dir, "base.json"), mustJSON(base)); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	l := &Log{store: s, f: f, rev: base.ID, syncedRev: base.ID}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		f.Close()
		return nil, ErrClosed
	}
	if cur, ok := s.logs[base.ID]; ok { // lost a create race; both wrote identical bytes
		f.Close()
		return cur, nil
	}
	s.logs[base.ID] = l
	return l, nil
}

// Log returns the open log for id, or nil if the program is unknown to
// the store.
func (s *Store) Log(id string) *Log {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.logs[id]
}

// Close stops the sync loop and flushes and closes every log: any
// acknowledged-but-unsynced bytes reach stable storage before the
// process exits. Appends racing with Close either complete (and are
// synced here) or observe ErrClosed and are rejected upstream — a batch
// is never half-written.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	logs := make([]*Log, 0, len(s.logs))
	for _, l := range s.logs {
		logs = append(logs, l)
	}
	s.mu.Unlock()

	close(s.stop)
	<-s.done

	var first error
	for _, l := range logs {
		if err := l.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// LogStats is one program's durability state, served under /metrics.
type LogStats struct {
	// Seq and Rev are the last appended (acknowledged) batch.
	Seq uint64 `json:"seq"`
	Rev string `json:"rev"`
	// DurableSeq and DurableRev are the last batch known fsynced; equal
	// to Seq/Rev under FsyncAlways, trailing by up to one interval
	// otherwise.
	DurableSeq uint64 `json:"durable_seq"`
	DurableRev string `json:"durable_rev"`
	// Bytes is the live wal.log size.
	Bytes int64 `json:"wal_bytes"`
}

// Stats reports per-program durability state.
func (s *Store) Stats() map[string]LogStats {
	s.mu.Lock()
	logs := make(map[string]*Log, len(s.logs))
	for id, l := range s.logs {
		logs[id] = l
	}
	s.mu.Unlock()
	out := make(map[string]LogStats, len(logs))
	for id, l := range logs {
		out[id] = l.stats()
	}
	return out
}

// Log is one program's append-only record log. Appends are serialized by
// the registry's per-program writer lock and additionally by mu (the
// interval sync loop shares the file).
type Log struct {
	store *Store

	mu        sync.Mutex
	f         *os.File // guarded-by: mu
	seq       uint64   // guarded-by: mu — last appended
	rev       string   // guarded-by: mu
	syncedSeq uint64   // guarded-by: mu — last fsynced
	syncedRev string   // guarded-by: mu
	dirty     bool     // guarded-by: mu
	bytes     int64    // guarded-by: mu
	closed    bool     // guarded-by: mu
	// failed is set when a partial append could not be truncated away:
	// the file ends in torn bytes, and writing anything after them would
	// turn a repairable torn tail into fatal mid-log corruption. All
	// further writes are rejected with this error. guarded-by: mu
	failed error
	// writeHook, when non-nil, replaces f.Write — fault injection for the
	// partial-write tests. guarded-by: mu
	writeHook func([]byte) (int, error)
}

// Append writes one record and, under FsyncAlways, syncs it before
// returning: a nil return means the batch is fully in the log (and
// durable under FsyncAlways). The record must continue the chain.
func (l *Log) Append(rec Record) error {
	buf, err := encodeRecord(rec)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.failed != nil {
		return l.failed
	}
	if rec.Seq != l.seq+1 || rec.Prev != l.rev {
		return fmt.Errorf("wal: append (seq %d, prev %s) does not continue (%d, %s)",
			rec.Seq, rec.Prev, l.seq, l.rev)
	}
	if got := NextRev(rec.Prev, rec.Batch); got != rec.Rev {
		return fmt.Errorf("wal: append claims rev %s but its batch hashes to %s", rec.Rev, got)
	}
	write := l.f.Write
	if l.writeHook != nil {
		write = l.writeHook
	}
	if _, err := write(buf); err != nil {
		// A short write (ENOSPC, I/O error) leaves partial record bytes
		// after the last good boundary. Recovery treats mid-log corruption
		// as fatal, so a later successful append must never bury them:
		// truncate back to the acknowledged prefix — the file is opened
		// O_APPEND, so the next write lands at the new end. If even the
		// truncate fails, poison the log so appends are rejected rather
		// than written after the torn bytes (recovery's torn-tail repair
		// then restores the acknowledged history).
		if terr := l.f.Truncate(l.bytes); terr != nil {
			l.failed = fmt.Errorf("wal: log left torn at byte %d: append failed (%v), truncate failed (%v)", l.bytes, err, terr)
		}
		return err
	}
	l.seq, l.rev = rec.Seq, rec.Rev
	l.bytes += int64(len(buf))
	l.dirty = true
	if l.store.opts.Policy == FsyncAlways {
		return l.syncLocked()
	}
	return nil
}

// Sync fsyncs any appended-but-unsynced bytes.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.syncLocked()
}

// syncLocked is Sync with mu held.
func (l *Log) syncLocked() error {
	if !l.dirty {
		return nil
	}
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		return err
	}
	if obs := l.store.opts.FsyncObserver; obs != nil {
		obs(time.Since(start))
	}
	l.dirty = false
	l.syncedSeq, l.syncedRev = l.seq, l.rev
	return nil
}

func (l *Log) stats() LogStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return LogStats{
		Seq: l.seq, Rev: l.rev,
		DurableSeq: l.syncedSeq, DurableRev: l.syncedRev,
		Bytes: l.bytes,
	}
}

func (l *Log) close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	err := l.syncLocked()
	l.closed = true
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeFileDurable writes data via a temp file, fsyncs it, and renames
// it into place, so the named file is always either the old or the new
// complete content.
func writeFileDurable(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

func mustJSON(v any) []byte {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		panic(err) // all persisted types marshal
	}
	return append(data, '\n')
}
