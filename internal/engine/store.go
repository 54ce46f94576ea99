// Package engine implements bottom-up evaluation of temporal deductive
// databases over a bounded temporal window.
//
// The evaluator computes the least Herbrand model of Z ∧ D (van Emden &
// Kowalski) restricted to the time points 0..m. For forward rule sets —
// after shift-normalization the head of every rule is at least as deep as
// each body literal — the restriction of the least model to a window equals
// the least fixpoint of the window-restricted T_P operator, and facts at
// time t depend only on facts at times <= t. The engine exploits this with
// a time-stratified sweep: states are closed in ascending time order, with
// a local fixpoint per state (for rules whose body touches the state being
// built) and an outer fixpoint for derived non-temporal facts (which can
// feed back into any state).
package engine

import (
	"hash/fnv"
	"sort"
	"strings"
	"sync/atomic"

	"tdd/internal/ast"
)

// tupleKey builds a canonical map key for a tuple. \x00 cannot occur in
// parsed constants, and the engine rejects empty constants on ingestion
// (InsertBase), so keys are unambiguous.
func tupleKey(args []string) string { return strings.Join(args, "\x00") }

// appendTupleKey is tupleKey into a reusable buffer: membership probes on
// the hot join/emit path look up r.m[string(buf)], which the compiler
// performs without allocating.
func appendTupleKey(dst []byte, args []string) []byte {
	for i, a := range args {
		if i > 0 {
			dst = append(dst, 0)
		}
		dst = append(dst, a...)
	}
	return dst
}

// appendMaskKey builds the bound-column index key of a tuple: the values
// of the masked columns, in ascending position order, each terminated by
// \x00 (a terminator rather than a separator, so ("a","") and ("","a")
// masks cannot collide).
func appendMaskKey(dst []byte, mask uint32, tup []string) []byte {
	for i := 0; i < len(tup); i++ {
		if mask&(1<<uint(i)) != 0 {
			dst = append(dst, tup[i]...)
			dst = append(dst, 0)
		}
	}
	return dst
}

// idxEntry is one bound-column hash index over a relation: the tuples
// grouped by the values of the masked argument positions, each group in
// insertion order.
type idxEntry struct {
	mask    uint32
	buckets map[string][][]string
}

// idxTable is the set of indexes built so far for one relset. The table
// value is immutable — building an index for a new mask installs a new
// table via compare-and-swap — while the bucket maps inside it are
// mutated in place by insert, which only runs on a private shard of a
// single-writer evaluator. A shared shard (see relset.shared) is frozen
// but may be joined against by several clone lineages at once; their
// read-side builds race only on the CAS: both builders derive the same
// index from the same frozen tuple list, so the loser's work is discarded
// without any effect on results.
type idxTable struct {
	entries []idxEntry
}

// withMask returns a new table extending t (nil allowed) with an index
// for mask, built from the given tuple list in insertion order.
func (t *idxTable) withMask(mask uint32, list [][]string) *idxTable {
	n := &idxTable{}
	if t != nil {
		n.entries = append(n.entries, t.entries...)
	}
	buckets := make(map[string][][]string)
	var kb []byte
	for _, tup := range list {
		kb = appendMaskKey(kb[:0], mask, tup)
		k := string(kb)
		buckets[k] = append(buckets[k], tup)
	}
	n.entries = append(n.entries, idxEntry{mask: mask, buckets: buckets})
	return n
}

// relset is a set of tuples with lazily built bound-column hash indexes
// for joins. It is one shard of the store (one predicate at one time
// point, or one non-temporal predicate), the unit of copy-on-write
// sharing between store clones.
type relset struct {
	m    map[string]struct{} // membership by tuple key
	list [][]string          // tuples in insertion order (see all)
	// idx holds the bound-column indexes built so far; see idxTable for
	// the concurrency discipline. Indexes are dropped (not copied) when a
	// shared shard is materialized for writing and rebuilt on demand.
	idx atomic.Pointer[idxTable]
	// shared marks a shard referenced by more than one store (set by
	// Store.Clone). A shared shard is immutable: writers materialize a
	// private copy first. The flag is written only while clones are
	// serialized by the caller (the evaluator's copy-on-write
	// discipline), and only read afterwards.
	shared bool
}

func newRelset() *relset {
	return &relset{m: make(map[string]struct{})}
}

// insert adds the tuple, reporting whether it was new. The caller must
// hold a private (non-shared) shard; see Store.Insert. Every index built
// so far is maintained, so a lookup after an insert sees the new tuple
// exactly when a linear scan would.
func (r *relset) insert(args []string) bool {
	k := tupleKey(args)
	if _, ok := r.m[k]; ok {
		return false
	}
	stored := append([]string(nil), args...)
	r.m[k] = struct{}{}
	r.list = append(r.list, stored)
	if tbl := r.idx.Load(); tbl != nil {
		var kb []byte
		for i := range tbl.entries {
			kb = appendMaskKey(kb[:0], tbl.entries[i].mask, stored)
			bk := string(kb)
			tbl.entries[i].buckets[bk] = append(tbl.entries[i].buckets[bk], stored)
		}
	}
	return true
}

func (r *relset) has(args []string) bool {
	if r == nil {
		return false
	}
	_, ok := r.m[tupleKey(args)]
	return ok
}

// hasKey is has with a caller-built tupleKey buffer; the membership probe
// does not allocate.
func (r *relset) hasKey(key []byte) bool {
	if r == nil {
		return false
	}
	_, ok := r.m[string(key)]
	return ok
}

func (r *relset) size() int {
	if r == nil {
		return 0
	}
	return len(r.m)
}

// bucket returns the tuples whose masked columns equal key, in insertion
// order, building the mask's index on first use. A nil receiver and an
// empty bucket both return nil. Safe for concurrent readers: the build
// installs an immutable table via CAS and retries on contention.
func (r *relset) bucket(mask uint32, key []byte) [][]string {
	if r == nil {
		return nil
	}
	for {
		tbl := r.idx.Load()
		if tbl != nil {
			for i := range tbl.entries {
				if tbl.entries[i].mask == mask {
					return tbl.entries[i].buckets[string(key)]
				}
			}
		}
		// Not built yet: derive a new table from the current tuple list.
		// On CAS failure another goroutine installed a table first — loop
		// and look again (it may even have built this very mask).
		r.idx.CompareAndSwap(tbl, tbl.withMask(mask, r.list))
	}
}

// all iterates every tuple in insertion order. Iterating the list rather
// than the membership map keeps every downstream order — join
// enumeration, provenance ("first derivation"), answer rendering —
// deterministic between runs; map order would reshuffle them.
func (r *relset) all(f func([]string) bool) {
	if r == nil {
		return
	}
	for _, tup := range r.list {
		if !f(tup) {
			return
		}
	}
}

// materialize deep-copies a shared shard so the caller can write to it.
// Tuples are immutable after insert and stay shared. Indexes are not
// copied: the private copy rebuilds them lazily on first lookup, so a
// clone that never joins against the shard never pays for them.
func (r *relset) materialize() *relset {
	c := &relset{
		m:    make(map[string]struct{}, len(r.m)),
		list: append(make([][]string, 0, len(r.list)), r.list...),
	}
	for k := range r.m {
		c.m[k] = struct{}{}
	}
	return c
}

// predCard is the store-maintained cardinality summary of one predicate:
// total facts and, for temporal predicates, the number of occupied time
// points. Maintained in O(1) per insert, it is the cost-model seed the
// join-order planner reads (see plan.go) and the totals behind the
// profiler's per-predicate cardinality tables.
type predCard struct {
	temporal bool
	facts    int
	states   int
}

// Store holds the facts derived so far: temporal relations indexed by
// predicate and time point, and non-temporal relations by predicate.
type Store struct {
	temporal    map[string]map[int]*relset
	nonTemporal map[string]*relset
	count       int
	// cards holds the per-predicate cardinality counters (see predCard).
	cards map[string]*predCard
	// keys caches StateKey per time point; an insert at time t drops the
	// entry for t. Incremental maintenance re-certifies the period after a
	// delta, and the cache confines the rehash to the states the delta
	// actually touched.
	keys map[int]string
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		temporal:    make(map[string]map[int]*relset),
		nonTemporal: make(map[string]*relset),
		cards:       make(map[string]*predCard),
	}
}

// Clone returns an independent copy of the store: inserts into the clone
// are invisible to the original and vice versa. The copy is
// copy-on-write at shard (predicate×timestamp) granularity: both stores
// share every relset until one of them writes into it, so a clone costs
// O(shards) pointer copies — independent of the number of facts — and a
// subsequent write deep-copies only the shards it touches. Clone must be
// externally serialized against writes to s (the evaluator's single-
// writer discipline); afterwards the two stores may be written from
// different goroutines.
func (s *Store) Clone() *Store {
	c := &Store{
		temporal:    make(map[string]map[int]*relset, len(s.temporal)),
		nonTemporal: make(map[string]*relset, len(s.nonTemporal)),
		count:       s.count,
		cards:       make(map[string]*predCard, len(s.cards)),
	}
	for pred, byTime := range s.temporal {
		bt := make(map[int]*relset, len(byTime))
		for t, rs := range byTime {
			rs.shared = true
			bt[t] = rs
		}
		c.temporal[pred] = bt
	}
	for pred, rs := range s.nonTemporal {
		rs.shared = true
		c.nonTemporal[pred] = rs
	}
	for pred, pc := range s.cards {
		cp := *pc
		c.cards[pred] = &cp
	}
	if s.keys != nil {
		c.keys = make(map[int]string, len(s.keys))
		for t, k := range s.keys {
			c.keys[t] = k
		}
	}
	return c
}

// Insert adds a fact, reporting whether it was new. Inserting into a
// shard shared with a clone first materializes a private copy
// (copy-on-write); duplicate inserts never copy.
func (s *Store) Insert(f ast.Fact) bool {
	var added bool
	if f.Temporal {
		byTime, ok := s.temporal[f.Pred]
		if !ok {
			byTime = make(map[int]*relset)
			s.temporal[f.Pred] = byTime
		}
		rs, ok := byTime[f.Time]
		switch {
		case !ok:
			rs = newRelset()
			byTime[f.Time] = rs
			s.cardFor(f.Pred, true).states++
		case rs.shared:
			if rs.has(f.Args) {
				return false
			}
			rs = rs.materialize()
			byTime[f.Time] = rs
		}
		added = rs.insert(f.Args)
		if added {
			delete(s.keys, f.Time)
		}
	} else {
		rs, ok := s.nonTemporal[f.Pred]
		switch {
		case !ok:
			rs = newRelset()
			s.nonTemporal[f.Pred] = rs
		case rs.shared:
			if rs.has(f.Args) {
				return false
			}
			rs = rs.materialize()
			s.nonTemporal[f.Pred] = rs
		}
		added = rs.insert(f.Args)
	}
	if added {
		s.count++
		s.cardFor(f.Pred, f.Temporal).facts++
	}
	return added
}

// cardFor returns (allocating on first touch) the predicate's counter.
func (s *Store) cardFor(pred string, temporal bool) *predCard {
	pc := s.cards[pred]
	if pc == nil {
		pc = &predCard{temporal: temporal}
		s.cards[pred] = pc
	}
	return pc
}

// card returns the predicate's incremental cardinality summary: total
// facts and, for temporal predicates, occupied time points. Zero values
// for unknown predicates.
func (s *Store) card(pred string) (facts, states int) {
	if pc := s.cards[pred]; pc != nil {
		return pc.facts, pc.states
	}
	return 0, 0
}

// Has reports whether the fact is present.
func (s *Store) Has(f ast.Fact) bool {
	if f.Temporal {
		return s.temporal[f.Pred][f.Time].has(f.Args)
	}
	return s.nonTemporal[f.Pred].has(f.Args)
}

// Len returns the total number of stored facts.
func (s *Store) Len() int { return s.count }

// at returns the temporal relation of pred at time t (nil if empty).
func (s *Store) at(pred string, t int) *relset { return s.temporal[pred][t] }

// nt returns the non-temporal relation of pred (nil if empty).
func (s *Store) nt(pred string) *relset { return s.nonTemporal[pred] }

// StateSize returns the number of temporal tuples at time t.
func (s *Store) StateSize(t int) int {
	n := 0
	for _, byTime := range s.temporal {
		n += byTime[t].size()
	}
	return n
}

// StateKey returns a canonical representation of the state L[t]: the set of
// atoms P(x̄) with P(t, x̄) in the store, rendered deterministically. Two
// time points have equal states iff their StateKeys are equal. Keys are
// cached per time point; inserts at t invalidate the entry for t.
func (s *Store) StateKey(t int) string {
	if k, ok := s.keys[t]; ok {
		return k
	}
	k := s.stateKey(t)
	if s.keys == nil {
		s.keys = make(map[int]string)
	}
	s.keys[t] = k
	return k
}

func (s *Store) stateKey(t int) string {
	var lines []string
	for pred, byTime := range s.temporal {
		rs := byTime[t]
		if rs == nil {
			continue
		}
		for k := range rs.m {
			lines = append(lines, pred+"\x01"+k)
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\x02")
}

// StateHash returns a 64-bit fingerprint of StateKey(t). Period detection
// compares hashes first and confirms candidate matches with full keys.
func (s *Store) StateHash(t int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s.StateKey(t)))
	return h.Sum64()
}

// State returns the state L[t] as sorted facts with the temporal argument
// projected out (the paper's M[t]).
func (s *Store) State(t int) []ast.Fact {
	var out []ast.Fact
	for pred, byTime := range s.temporal {
		rs := byTime[t]
		if rs == nil {
			continue
		}
		for _, tup := range rs.list {
			out = append(out, ast.Fact{Pred: pred, Args: append([]string(nil), tup...)})
		}
	}
	ast.SortFacts(out)
	return out
}

// Snapshot returns the snapshot L(t) as sorted temporal facts (the paper's
// M(t): tuples with their temporal argument).
func (s *Store) Snapshot(t int) []ast.Fact {
	var out []ast.Fact
	for pred, byTime := range s.temporal {
		rs := byTime[t]
		if rs == nil {
			continue
		}
		for _, tup := range rs.list {
			out = append(out, ast.Fact{Pred: pred, Temporal: true, Time: t, Args: append([]string(nil), tup...)})
		}
	}
	ast.SortFacts(out)
	return out
}

// NonTemporalFacts returns the non-temporal part L_nt as sorted facts.
func (s *Store) NonTemporalFacts() []ast.Fact {
	var out []ast.Fact
	for pred, rs := range s.nonTemporal {
		for _, tup := range rs.list {
			out = append(out, ast.Fact{Pred: pred, Args: append([]string(nil), tup...)})
		}
	}
	ast.SortFacts(out)
	return out
}

// NonTemporalCount returns |L_nt|.
func (s *Store) NonTemporalCount() int {
	n := 0
	for _, rs := range s.nonTemporal {
		n += rs.size()
	}
	return n
}

// Constants returns all non-temporal constants occurring in the store,
// sorted. This is the active domain used for non-temporal quantification.
func (s *Store) Constants() []string {
	set := make(map[string]bool)
	add := func(tup []string) bool {
		for _, c := range tup {
			set[c] = true
		}
		return true
	}
	for _, rs := range s.nonTemporal {
		rs.all(add)
	}
	for _, byTime := range s.temporal {
		for _, rs := range byTime {
			rs.all(add)
		}
	}
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}
