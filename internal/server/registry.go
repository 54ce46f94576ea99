// Package server implements tddserve: a long-running HTTP/JSON query
// service over temporal deductive databases.
//
// The serving model is the paper's Section 3.3 workload (validated by
// experiment E7): preprocess one program into its relational
// specification once, then answer arbitrarily many queries from the
// finite specification in O(rewrite) time each. The subsystem is
//
//   - a program registry: clients POST a rules+facts pair and get back a
//     stable handle (the content hash), so registration is idempotent and
//     cacheable across clients. It keeps one record per program — its
//     source, its warm entry while resident, and its writer lock;
//   - a least-recently-used specification cache over those records: each
//     registered program is compiled and its period certified at most
//     once while resident, and concurrent misses share one compile
//     through the flight group. A warm entry holds one model — the tdd.DB
//     snapshot — and every query is answered from its certified
//     specification (the E7 fast path) without taking a lock; there is no
//     second copy and no fallback engine;
//   - a bounded worker pool with per-request deadlines, so overload
//     degrades into prompt errors rather than unbounded concurrency;
//   - an observability layer: request/error counters, latency histograms,
//     cache hit/miss/eviction counts, and an in-flight gauge at
//     GET /metrics, plus structured request logging.
package server

import (
	"container/list"
	"errors"
	"fmt"
	"sort"
	"sync"

	"tdd"
	"tdd/internal/obs"
	"tdd/internal/wal"
)

// ErrNotFound is returned by Lookup for an unregistered program id.
var ErrNotFound = errors.New("server: unknown program id")

var errCompilePanicked = errors.New("server: compile panicked")

// programSource is the registered, never-evicted form of a program: its
// base sources and the record of every fact batch ingested since
// registration. Recompiling from it after an eviction is deterministic —
// the base is opened and the batches are re-asserted in order — so the
// cache can always be refilled. A programSource is immutable once
// published; an ingest publishes a successor.
type programSource struct {
	id    string
	unit  string // mixed rules+facts source ("" when rules/facts are split)
	rules string
	facts string
	// records is the program's one copy of its batch history, in
	// ingestion order: the batches replayed on recompile, the WAL records
	// appended to the log and the replication feed. Replaying the batches
	// one by one reproduces the incremental sort coercion exactly
	// (coercion depends on the predicates known at assert time). A
	// successor shares the backing array and appends past this source's
	// length, which no reader of this source looks at.
	records []wal.Record
}

// rev is the content hash of the program *including* every ingested
// batch: equal to id until the first ingestion, then advanced by each
// batch, so clients can detect that the database behind a stable id has
// moved.
func (s *programSource) rev() string {
	if n := len(s.records); n > 0 {
		return s.records[n-1].Rev
	}
	return s.id
}

// lintSource is the raw text inline "tddlint:ignore" suppressions are
// read from: the unit source when the program was registered mixed, the
// rules source otherwise (rule positions refer to it).
func (s *programSource) lintSource() string {
	if s.unit != "" {
		return s.unit
	}
	return s.rules
}

// entry is a warm program: one certified tdd.DB snapshot. ask, answers and
// period are served from it directly — a warm tdd.DB answers from its
// published specification with no locking — and the /spec route exports
// it on demand. Entries are immutable once published; an ingest builds a
// successor on a fork of db and swaps it in.
type entry struct {
	src *programSource
	db  *tdd.DB
	// cert is the model's work certificate — window, period (b, p), engine
	// counters, |T| and |B| — captured once when the entry is built: a
	// published model never changes, so responses and metrics scrapes read
	// these plain fields and never touch db's locks.
	cert tdd.Certificate
	// lint is the Tier-A analysis of the compiled program, computed once
	// per compile/ingest while the entry is built — never on the query
	// path. Served in registration/ingestion responses (?lint=1 for the
	// full diagnostics) and aggregated into the lint_warnings gauge.
	lint tdd.LintResult
	// tr is the program's lifetime trace: the compile pipeline (parse,
	// validate, classify, certify-period with fixpoint sweeps,
	// spec-construct, lint) plus every ingest since. ?trace=1 responses
	// merge a snapshot of it with the request's own trace so warm queries
	// still show where the certification time went.
	tr *obs.Trace
}

// newEntry certifies db (a no-op when it is already warm, as a fork that
// asserted into a warm snapshot is) and lints it against the certified
// model, so everything a response or a warm query reads is in place
// before the entry is published.
func newEntry(src *programSource, db *tdd.DB, tr *obs.Trace) (*entry, error) {
	cert, err := db.Work()
	if err != nil {
		return nil, fmt.Errorf("certifying: %w", err)
	}
	sp := tr.Begin("lint")
	lintRes := db.Lint(src.lintSource())
	sp.Add("warnings", int64(lintRes.Warnings()))
	sp.End()
	return &entry{src: src, db: db, cert: cert, lint: lintRes, tr: tr}, nil
}

// CompileTrace snapshots the program's lifetime trace.
func (e *entry) CompileTrace() *obs.TraceJSON { return e.tr.Snapshot() }

// ID returns the registry handle (content hash) of the program.
func (e *entry) ID() string { return e.src.id }

// Rev returns the content revision: equal to ID until facts are ingested,
// then advanced by every batch.
func (e *entry) Rev() string { return e.src.rev() }

// Period returns the certified minimal period.
func (e *entry) Period() tdd.Period { return e.cert.Period }

// Lint returns the Tier-A analysis computed when the entry was built.
func (e *entry) Lint() tdd.LintResult { return e.lint }

// program is one registered program: its current source, its warm
// entry while resident, and the lock its writers take. The registry
// keeps one record per id for its lifetime, so every writer of an id
// contends on the same mutex.
type program struct {
	src  *programSource // guarded-by: Registry.mu
	warm *entry         // guarded-by: Registry.mu; nil when not resident
	// el is the program's element in the registry's recency list, nil
	// when not resident.
	el *list.Element // guarded-by: Registry.mu

	// writer serializes ingests on the program.
	writer sync.Mutex
}

// Registry stores one record per registered program (unbounded — sources
// are tiny) and keeps at most cacheSize of them warm (bounded — a warm
// entry pins the whole evaluated window), least recently used first out.
// It is safe for concurrent use. One mutex guards the records and the
// recency list: its critical sections are a map read and a list move —
// nanoseconds inside a served request — and compiles, ingests and queries
// all run outside it (E16). The flight group coalesces identical
// concurrent asks, and concurrent misses on one program, into one
// evaluation each.
type Registry struct {
	maxWindow int
	cacheSize int
	metrics   *Metrics

	// wal, when non-nil, makes the registry durable: registrations write
	// base.json, and every ingested batch is appended to the program's
	// log before it is published (log-before-publish: an acknowledged
	// batch is always recoverable, a failed append is never visible). Set
	// once before serving (EnableDurability).
	wal *wal.Store

	mu    sync.Mutex
	progs map[string]*program // guarded-by: mu
	// recent lists the warm programs, most recently used at the front.
	recent list.List // guarded-by: mu

	flights flightGroup
}

// NewRegistry builds a registry that keeps at most cacheSize programs
// warm (at least 1); maxWindow (0 = default) bounds period certification.
func NewRegistry(cacheSize, maxWindow int, m *Metrics) *Registry {
	return &Registry{
		maxWindow: maxWindow,
		cacheSize: max(cacheSize, 1),
		metrics:   m,
		progs:     make(map[string]*program),
	}
}

// resident makes e p's warm entry and p the most recently used program,
// evicting the least recently used warm programs past the cache size.
// The caller holds r.mu.
func (r *Registry) resident(p *program, e *entry) {
	p.warm = e
	if p.el != nil {
		r.recent.MoveToFront(p.el)
		return
	}
	p.el = r.recent.PushFront(p)
	for r.recent.Len() > r.cacheSize {
		old := r.recent.Remove(r.recent.Back()).(*program)
		old.warm, old.el = nil, nil
		r.metrics.CacheEvict.Add(1)
	}
}

// compile builds a warm entry: parse and validate, replay the ingestion
// history, certify the period, and lint.
func (r *Registry) compile(src *programSource) (*entry, error) {
	tr := obs.New()
	// The join profiler is always on, like the lifetime trace: certification
	// and ingests are the only join work a served program ever does, and its
	// cost profile (?profile=1) is only available if it was recorded then.
	// Each snapshot's profile covers its own history — compile plus every
	// ingest published before it — because an ingest evaluates on a fork
	// whose counters are its own: a rejected one leaves the published
	// profile as it was. The enabled overhead is bounded by the E17 gate in
	// scripts/ci.sh.
	opts := []tdd.Option{tdd.WithTrace(tr), tdd.WithProfile()}
	if r.maxWindow > 0 {
		opts = append(opts, tdd.WithMaxWindow(r.maxWindow))
	}
	var (
		db  *tdd.DB
		err error
	)
	if src.unit != "" {
		db, err = tdd.OpenUnit(src.unit, opts...)
	} else {
		db, err = tdd.Open(src.rules, src.facts, opts...)
	}
	if err != nil {
		return nil, err
	}
	// Replay the ingestion history batch by batch: each Assert parses its
	// batch against the signatures known at that point, exactly as the
	// original ingestion did, so an evicted-and-recompiled entry is
	// identical.
	for _, rec := range src.records {
		if _, err := db.Assert(rec.Batch); err != nil {
			return nil, fmt.Errorf("replaying ingested facts: %w", err)
		}
	}
	return newEntry(src, db, tr)
}

// Register registers (or re-registers) a program and returns its warm
// entry. existing reports whether the id was already registered.
// Registration compiles eagerly so clients learn about invalid programs
// and uncertifiable periods at registration time, not on first query.
func (r *Registry) Register(unit, rules, facts string) (e *entry, existing bool, err error) {
	id := wal.HashSource(unit, rules, facts)
	if r.program(id) != nil {
		e, err = r.Lookup(id)
		return e, true, err
	}

	// Compile outside the lock; registration of distinct programs
	// proceeds in parallel. Two racing registrations of the same program
	// both compile — idempotent; the loser's entry is discarded by
	// publish below.
	src := &programSource{id: id, unit: unit, rules: rules, facts: facts}
	ent, err := r.compile(src)
	if err != nil {
		return nil, false, err
	}
	// Durable registration: base.json must be on disk before the program
	// is visible, so a crash right after the response still recovers it.
	if r.wal != nil {
		if _, err := r.wal.Create(wal.Base{ID: id, Unit: unit, Rules: rules, Facts: facts}); err != nil {
			return nil, false, fmt.Errorf("persisting program: %w", err)
		}
	}
	if !r.publish(src, ent) {
		// Lost the publish race: a concurrent Register finished first, and
		// ingests may already have advanced the program past this compile's
		// base-only state. Overwriting the cache with our entry would
		// silently serve a model missing those batches, so drop it and read
		// back whatever is current.
		e, err = r.Lookup(id)
		return e, true, err
	}
	r.metrics.CacheMisses.Add(1)
	return ent, false, nil
}

// publish atomically installs a freshly compiled registration: the
// record is created warm, so its entry never lags its source. It installs
// nothing and reports false when another registration won the race — by
// then the program may have ingested batches, so the caller's base-only
// entry is potentially stale and must be discarded, never cached.
func (r *Registry) publish(src *programSource, ent *entry) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.progs[src.id]; ok {
		return false
	}
	p := &program{src: src}
	r.progs[src.id] = p
	r.resident(p, ent)
	return true
}

// Lookup returns the warm entry for a registered id, recompiling on a
// cache miss. A miss compiles through the flight group under the key
// (id, rev, "compile"): the flight's leader books the miss and runs the
// compile, and every concurrent miss joins it, books a hit and waits for
// its result. Only a compile that succeeds becomes resident; a failed one
// installs and evicts nothing, so a later lookup retries.
func (r *Registry) Lookup(id string) (*entry, error) {
	r.mu.Lock()
	p, ok := r.progs[id]
	if !ok {
		r.mu.Unlock()
		return nil, ErrNotFound
	}
	if e := p.warm; e != nil {
		r.recent.MoveToFront(p.el)
		r.mu.Unlock()
		r.metrics.CacheHits.Add(1)
		return e, nil
	}
	// Joining under r.mu pairs with land, which installs the entry and
	// retires the flight under it too: a lookup that finds the program
	// cold always finds its compile flight, if there is one, to join.
	src := p.src
	key := flightKey{id: id, rev: src.rev(), kind: compileFlight}
	f, leader := r.flights.join(key)
	r.mu.Unlock()
	if !leader {
		r.metrics.CacheHits.Add(1)
		<-f.done
		return f.ent, f.err
	}
	r.metrics.CacheMisses.Add(1)
	f.err = errCompilePanicked // what the joiners get if compile panics
	defer r.land(p, src, key, f)
	f.ent, f.err = r.compile(src)
	return f.ent, f.err
}

// land ends a compile flight: a compile that succeeded against the
// program's current source becomes resident, then the flight is retired
// and its joiners released. A compile that an ingest overtook is handed
// to its waiters but never installed over the ingest's successor.
func (r *Registry) land(p *program, src *programSource, key flightKey, f *flight) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f.ent != nil && p.src == src {
		r.resident(p, f.ent)
	}
	r.flights.finish(key, f)
}

// Ingest appends a batch of facts (same syntax as registration fact
// sources) to a registered program. Writers are serialized per program;
// readers are never blocked — they keep querying the published entry
// until the successor, built off to the side on a fork of the program's
// DB, is swapped into the registry and the spec cache in one step. The
// program keeps its stable id; the content revision advances. On error
// (parse failure, signature conflict, uncertifiable period) nothing is
// published and the program is unchanged.
func (r *Registry) Ingest(id, facts string) (*entry, tdd.AssertResult, error) {
	p := r.program(id)
	if p == nil {
		return nil, tdd.AssertResult{}, ErrNotFound
	}
	p.writer.Lock()
	defer p.writer.Unlock()
	// Read the source now that the writer lock is held: an ingest that
	// held it before us may have advanced it.
	src := r.source(id)

	ent, err := r.Lookup(id)
	if err != nil {
		return nil, tdd.AssertResult{}, err
	}
	fork := ent.db.Fork()
	res, err := fork.Assert(facts)
	if err != nil {
		return nil, res, err
	}
	prev := src.rev()
	rec := wal.Record{Seq: uint64(len(src.records)) + 1, Prev: prev, Rev: wal.NextRev(prev, facts), Batch: facts}
	nsrc := *src
	nsrc.records = append(src.records, rec)
	// The fork's BT carries ent's lifetime trace, so the Assert above
	// recorded its ingest/delta spans into it; the successor entry keeps
	// the same trace.
	ne, err := newEntry(&nsrc, fork, ent.tr)
	if err != nil {
		return nil, res, err
	}
	// Log-before-publish: the batch reaches the WAL (and, under
	// fsync=always, stable storage) before any reader can observe it. A
	// failed append rejects the whole ingest with nothing published — an
	// acknowledged batch is always recoverable, a crashed one invisible.
	if r.wal != nil {
		lg := r.wal.Log(id)
		if lg == nil {
			return nil, res, fmt.Errorf("wal: program %s has no log (registered before durability was enabled?)", id)
		}
		if err := lg.Append(rec); err != nil {
			return nil, res, fmt.Errorf("wal append: %w", err)
		}
		r.metrics.WalAppends.Add(1)
	}
	r.mu.Lock()
	p.src = &nsrc
	r.resident(p, ne)
	r.mu.Unlock()
	r.metrics.Asserts.Add(1)
	r.metrics.FactsIngested.Add(int64(res.NewFacts))
	return ne, res, nil
}

// EnableDurability attaches a WAL store: registrations and ingests
// persist through it. Call once, before serving, typically followed by
// RecoverFromWAL.
func (r *Registry) EnableDurability(store *wal.Store) {
	r.wal = store
}

// RecoverFromWAL reconstructs the registry from the attached store:
// every program's base sources and verified batch history become a
// registered source, and (when warm is set) each program is recompiled
// eagerly — replaying its batches through the eviction-safe replay path —
// so a restarted server answers its first query from a warm cache.
// Returns how many programs and batches were recovered.
func (r *Registry) RecoverFromWAL(warm bool) (programs, batches int, err error) {
	if r.wal == nil {
		return 0, 0, errors.New("server: no WAL store attached")
	}
	recovered, err := r.wal.Recover()
	if err != nil {
		return 0, 0, err
	}
	for _, rec := range recovered {
		src := &programSource{
			id:      rec.Base.ID,
			unit:    rec.Base.Unit,
			rules:   rec.Base.Rules,
			facts:   rec.Base.Facts,
			records: rec.Records,
		}
		r.mu.Lock()
		r.progs[src.id] = &program{src: src}
		r.mu.Unlock()
		programs++
		batches += len(rec.Records)
	}
	if warm {
		for _, id := range r.IDs() {
			if _, err := r.Lookup(id); err != nil {
				return programs, batches, fmt.Errorf("recompiling recovered program %s: %w", id, err)
			}
		}
	}
	return programs, batches, nil
}

// CloseWAL flushes and closes the attached store (no-op without one).
// Called on shutdown after the worker pool has drained, so every
// in-flight ingest has either fully appended or been rejected.
func (r *Registry) CloseWAL() error {
	if r.wal == nil {
		return nil
	}
	return r.wal.Close()
}

// DurabilityStats reports per-program durability state (nil without a
// WAL store).
func (r *Registry) DurabilityStats() map[string]wal.LogStats {
	if r.wal == nil {
		return nil
	}
	return r.wal.Stats()
}

// program returns the registered program's record, or nil.
func (r *Registry) program(id string) *program {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.progs[id]
}

// source returns the registered program's current source, or nil.
// programSource values are immutable once published.
func (r *Registry) source(id string) *programSource {
	r.mu.Lock()
	defer r.mu.Unlock()
	if p := r.progs[id]; p != nil {
		return p.src
	}
	return nil
}

// SeqRev reports a registered program's batch count and current content
// revision (the follower's replication cursor).
func (r *Registry) SeqRev(id string) (seq uint64, rev string, ok bool) {
	src := r.source(id)
	if src == nil {
		return 0, "", false
	}
	return uint64(len(src.records)), src.rev(), true
}

// WalFeed is the GET /programs/{id}/wal response: the record history
// from a replication cursor, plus the base sources when the cursor is 0
// so an empty follower can bootstrap the program.
type WalFeed struct {
	ID      string       `json:"id"`
	Seq     uint64       `json:"seq"`
	Rev     string       `json:"rev"`
	Base    *wal.Base    `json:"base,omitempty"`
	Records []wal.Record `json:"records"`
}

// Feed builds the replication feed for a registered program from its
// in-memory source state — it works with or without a WAL store, so any
// leader can serve followers. from is the number of batches the caller
// already has.
func (r *Registry) Feed(id string, from uint64) (WalFeed, error) {
	src := r.source(id)
	if src == nil {
		return WalFeed{}, ErrNotFound
	}
	feed := WalFeed{ID: id, Seq: uint64(len(src.records)), Rev: src.rev(), Records: []wal.Record{}}
	if from < feed.Seq {
		feed.Records = src.records[from:]
	}
	if from == 0 {
		feed.Base = &wal.Base{ID: id, Unit: src.unit, Rules: src.rules, Facts: src.facts}
	}
	return feed, nil
}

// ApplyReplicated folds one leader WAL record into a follower's
// registry through the ordinary ingest path. The record is verified
// against the local chain BEFORE ingesting — a divergent batch is
// rejected pre-publish (and, on a durable follower, pre-WAL-append), so
// a diverged model is never served, not even read-only — and the
// resulting revision is re-checked after the ingest, so the replicated
// model is provably the leader's model, not merely a similar one.
func (r *Registry) ApplyReplicated(id string, rec wal.Record) error {
	seq, rev, ok := r.SeqRev(id)
	if !ok {
		return ErrNotFound
	}
	if rec.Seq != seq+1 || rec.Prev != rev {
		return fmt.Errorf("server: replication divergence on %s: leader record (seq %d, prev %s) does not continue local state (seq %d, rev %s)",
			id, rec.Seq, rec.Prev, seq, rev)
	}
	if got := wal.NextRev(rec.Prev, rec.Batch); got != rec.Rev {
		return fmt.Errorf("server: replication divergence on %s: batch %d hashes to %s, leader says %s",
			id, rec.Seq, got, rec.Rev)
	}
	ent, _, err := r.Ingest(id, rec.Batch)
	if err != nil {
		return err
	}
	// Unreachable unless a local writer raced the replication loop —
	// followers are read-only, so this is belt and braces.
	if ent.Rev() != rec.Rev {
		return fmt.Errorf("server: replication divergence on %s: applied batch %d yields rev %s, leader says %s",
			id, rec.Seq, ent.Rev(), rec.Rev)
	}
	return nil
}

// Warm returns every warm program's entry by id. In-flight compiles are
// not resident and so not awaited, and the registry mutex covers only the
// walk: entries are immutable, so the caller reads them with no lock at
// all.
func (r *Registry) Warm() map[string]*entry {
	out := make(map[string]*entry)
	r.mu.Lock()
	defer r.mu.Unlock()
	for el := r.recent.Front(); el != nil; el = el.Next() {
		p := el.Value.(*program)
		out[p.src.id] = p.warm
	}
	return out
}

// IDs returns the registered program ids, sorted.
func (r *Registry) IDs() []string {
	var out []string
	r.mu.Lock()
	for id := range r.progs {
		out = append(out, id)
	}
	r.mu.Unlock()
	sort.Strings(out)
	return out
}

// CachedLen reports how many programs are currently warm (test hook).
func (r *Registry) CachedLen() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.recent.Len()
}
