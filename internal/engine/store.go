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
//
// Facts are stored as rows of interned integers (store.go, symtab.go): a
// constant is a dense uint32 symbol id, a tuple a fixed-arity run of ids,
// one (predicate, time) shard either one flat slice of rows or — after a
// store clone writes to a shard it shares — an overlay: the frozen shard
// plus a short private tail of the rows written since. What a store may
// write in place is decided by one rule, epoch ownership (see Store): a
// writer writes only what carries its epoch, and forks or copies the
// rest, so Store.Clone writes nothing the two stores share. Membership
// and bound-column indexes are open-addressed integer tables over the row
// numbers of a flat shard; a flat shard that holds and was sized for at
// most smallShard rows has no membership table and is scanned. A join
// tests a body literal bound on every column with one membership lookup,
// so no bound-column index covers every column of its shard. A new
// temporal shard, and each index built on it, is sized from the shard of
// the same predicate one time point earlier — past the base of an
// ultimately periodic model that is its final size — and a proposition
// (a temporal predicate of arity 0) has one frozen shard that every time
// point where it holds points at. Every temporal shard carries a
// commutative 128-bit fingerprint of its fact set so "is state t equal to
// state t'" is a constant-time comparison. A state that closes equal to an
// earlier one — found by fingerprint, confirmed exactly — is stored as the
// shards of its first occurrence, and the shards it was built in become
// the buffers of the next state (Store.closeState), so an evaluated
// window holds each distinct state once and allocates shards for its
// distinct states only. The store keeps the answer: a dense class id per
// closed time point, equal exactly for equal states, which period
// certification and the temporal quantifiers of queries read
// (Store.StateClasses). Once a period (b, p) is certified,
// Evaluator.ShareRepeats re-shares the states past b+p that a write has
// forked since.
package engine

import (
	"maps"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"tdd/internal/ast"
)

// hashVals hashes a run of symbol ids for the open-addressed tables. Both
// the membership table (all columns of a row) and the bound-column indexes
// (the masked columns, in column order) use it, so a probe key packed from
// the binding environment hashes exactly like the stored row it matches.
func hashVals(vals []uint32) uint32 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vals {
		h = (h ^ uint64(v)) * 0x9e3779b97f4a7c15
		h ^= h >> 29
	}
	return uint32(h >> 32)
}

// hashMasked is hashVals over the masked columns of a stored row.
func hashMasked(row []uint32, mask uint32) uint32 {
	h := uint64(0x9e3779b97f4a7c15)
	for i, v := range row {
		if mask&(1<<uint(i)) != 0 {
			h = (h ^ uint64(v)) * 0x9e3779b97f4a7c15
			h ^= h >> 29
		}
	}
	return uint32(h >> 32)
}

// maskedEqual reports whether the masked columns of row equal key (the
// masked values packed in column order).
func maskedEqual(row []uint32, mask uint32, key []uint32) bool {
	k := 0
	for i, v := range row {
		if mask&(1<<uint(i)) != 0 {
			if v != key[k] {
				return false
			}
			k++
		}
	}
	return true
}

// sameMasked reports whether two rows agree on the masked columns.
func sameMasked(a, b []uint32, mask uint32) bool {
	for i, v := range a {
		if mask&(1<<uint(i)) != 0 && v != b[i] {
			return false
		}
	}
	return true
}

// rowsEqual compares two rows of the same arity.
func rowsEqual(a, b []uint32) bool {
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

// grownTable returns an empty open-addressed table with room for n
// entries at a load factor of at most 3/4 (a power of two, at least 8).
func grownTable(n int) []uint32 {
	size := 8
	for size*3 < n*4 {
		size *= 2
	}
	return make([]uint32, size)
}

// colIndex is one bound-column hash index over a relation: the rows
// grouped by the values of the masked argument positions, each group a
// linked list through next in insertion order. Groups are found through
// an open-addressed table keyed by the masked values of each group's
// first row, so neither a probe nor an insert builds a key.
type colIndex struct {
	mask  uint32
	tab   []uint32 // open-addressed: group number + 1, 0 = empty
	first []uint32 // per group: first row (list head and key representative)
	last  []uint32 // per group: last row
	next  []uint32 // per row: the next row of its group (unset for a group's last row)
}

// group returns the group whose masked columns equal key.
func (ix *colIndex) group(rs *relset, key []uint32, h uint32) (uint32, bool) {
	m := uint32(len(ix.tab) - 1)
	for i := h & m; ; i = (i + 1) & m {
		g := ix.tab[i]
		if g == 0 {
			return 0, false
		}
		if maskedEqual(rs.flatRow(ix.first[g-1]), ix.mask, key) {
			return g - 1, true
		}
	}
}

// add links row n of rs (already appended to rs.rows) into its group,
// opening a new group for an unseen key.
func (ix *colIndex) add(rs *relset, n uint32) {
	ix.next = append(ix.next, 0)
	row := rs.flatRow(n)
	if (len(ix.first)+1)*4 > len(ix.tab)*3 {
		ix.tab = grownTable(2 * (len(ix.first) + 1))
		m := uint32(len(ix.tab) - 1)
		for g, f := range ix.first {
			i := hashMasked(rs.flatRow(f), ix.mask) & m
			for ix.tab[i] != 0 {
				i = (i + 1) & m
			}
			ix.tab[i] = uint32(g) + 1
		}
	}
	m := uint32(len(ix.tab) - 1)
	for i := hashMasked(row, ix.mask) & m; ; i = (i + 1) & m {
		g := ix.tab[i]
		if g == 0 {
			ix.tab[i] = uint32(len(ix.first)) + 1
			ix.first = append(ix.first, n)
			ix.last = append(ix.last, n)
			return
		}
		if sameMasked(row, rs.flatRow(ix.first[g-1]), ix.mask) {
			ix.next[ix.last[g-1]] = n
			ix.last[g-1] = n
			return
		}
	}
}

// clone deep-copies the index for a flattened shard that will hold n
// rows.
func (ix *colIndex) clone(n int) *colIndex {
	return &colIndex{
		mask:  ix.mask,
		tab:   append([]uint32(nil), ix.tab...),
		first: append([]uint32(nil), ix.first...),
		last:  append([]uint32(nil), ix.last...),
		next:  append(make([]uint32, 0, n+n/8), ix.next...),
	}
}

// idxTable is the set of indexes built so far for one flat relset. The
// table value is immutable — building an index for a new mask installs a
// new table via compare-and-swap — while the indexes inside it are mutated
// in place by insert, which only runs on a shard that carries its
// single writer's epoch. A shard that carries no live store's epoch is
// frozen but may be joined against by several clone lineages at once,
// directly or as the base of their overlays; their read-side builds race
// only on the CAS: both builders derive the same index from the same
// frozen rows, so the loser's work is discarded without any effect on
// results. An overlay has no table of its own: its lookups use its
// base's.
type idxTable struct {
	entries []*colIndex
}

// withMask returns a new table extending t (nil allowed) with an index
// for mask over the rows of rs, in insertion order, with room for as many
// groups as prev's index for mask has, up to one per row: past the base
// of a periodic model the state before holds the same groups.
func (t *idxTable) withMask(mask uint32, rs, prev *relset) *idxTable {
	n := &idxTable{}
	if t != nil {
		n.entries = append(make([]*colIndex, 0, len(t.entries)+1), t.entries...)
	}
	ix := &colIndex{mask: mask, next: make([]uint32, 0, rs.n)}
	if g := min(prev.groups(mask), int(rs.n)); g > 0 {
		ix.tab, ix.first, ix.last = grownTable(g), make([]uint32, 0, g), make([]uint32, 0, g)
	}
	for row := uint32(0); row < rs.n; row++ {
		ix.add(rs, row)
	}
	n.entries = append(n.entries, ix)
	return n
}

// groups returns the number of groups of r's index for mask: 0 when r is
// nil, an overlay or has not built it.
func (r *relset) groups(mask uint32) int {
	if r == nil {
		return 0
	}
	if tbl := r.idx.Load(); tbl != nil {
		for _, ix := range tbl.entries {
			if ix.mask == mask {
				return len(ix.first)
			}
		}
	}
	return 0
}

// rowSpan is a run of rows to enumerate: a whole relation (next == nil,
// rows cur..last consecutively) or one index group (a linked list from
// cur to last through next). It is a snapshot: rows inserted after the
// span was taken — by an emit further down the same join — are not
// visited, exactly like ranging over a slice captured before the loop.
type rowSpan struct {
	cur, last uint32
	next      []uint32
	ok        bool // false: empty span
}

// advance moves cur to the next row of a non-empty span, reporting false
// once the last row has been visited.
func (sp *rowSpan) advance() bool {
	if sp.cur == sp.last {
		return false
	}
	if sp.next != nil {
		sp.cur = sp.next[sp.cur]
	} else {
		sp.cur++
	}
	return true
}

// tailCap is the tail length at which an overlay is flattened (see
// relset; EXPERIMENTS.md E29 gives the measurement behind the value). It
// bounds every tail scan — an overlay's membership probe, its bucket, the
// tail copy of a fork — and spreads a flatten's O(shard) copy over tailCap
// written rows. A tail stays shorter, so its rows fit the uint64 bit set
// scan and bucket return; the array below fails to compile past 64.
const tailCap = 32

var _ [64 - tailCap]struct{}

// relset is a set of fixed-arity rows with lazily built bound-column
// hash indexes for joins. It is one shard of the store (one predicate at
// one time point, or one non-temporal predicate), the unit of
// copy-on-write sharing between store clones, in one of two forms:
//
//   - flat (base == nil): rows holds all n rows, and tab and idx index
//     them; tab is nil while the shard holds, and was created with room
//     for, at most smallShard rows, which find and insert then scan.
//     Open, EnsureWindow, every shard no clone has written to and every
//     fork of a tiny shard are flat.
//   - overlay (base != nil): the first base.n rows are base's — a flat
//     shard of more than tinyShard rows, frozen to the overlay's writer
//     (it does not carry the writer's epoch) — and rows holds
//     the rest, the tail: the rows this lineage wrote since it forked the
//     shard, fewer than tailCap, in insertion order, with no hash table.
//     Membership probes base's table and scans the tail; bucket returns
//     base's index group and then the tail rows with the key. A tail
//     reaching tailCap is flattened.
//
// Row numbers are global, base rows first, so row numbers and enumeration
// order are those of a flat shard holding the same rows in the same order.
//
// A temporal shard is created with room for as many rows as the shard of
// its predicate one time point earlier holds (newRelset): its row count,
// not its capacity, so slack does not compound from state to state. A
// shard whose state closes with room for more than twice its rows is
// copied to its size (Store.fitState). The shard of a proposition is one
// relset holding the row () (predRel.prop), frozen from the start: any
// write to it is a duplicate, so it never forks.
type relset struct {
	// arity and n are 32-bit so that they fill one word: every
	// (predicate, time) point of a model has a relset, and the struct
	// stays in the 96-byte size class. Row numbers are uint32 anyway.
	arity int32
	n     uint32 // number of rows, a base's included
	// epoch is the epoch of the one store that may write the shard in
	// place (see Store). Any other store forks it first, and so does its
	// writer once the shard is frozen at 0: shared between time points
	// (Store.shareState) or a proposition's. It is never recycled as a
	// spare (predRel.spare) unless it carries its writer's epoch.
	epoch uint64
	rows  []uint32 // rows in insertion order, arity ids each: all n (flat) or the tail (overlay)
	tab   []uint32 // flat only: open-addressed membership, row number + 1, 0 = empty
	base  *relset  // overlay only: the frozen flat shard holding rows 0..base.n-1
	// fp is the commutative fingerprint of the shard's fact set (temporal
	// shards only; see Store.StateFingerprint).
	fp Fingerprint
	// idx holds the bound-column indexes built so far (flat only); see
	// idxTable for the concurrency discipline. Flattening an overlay
	// copies its base's along with the rows.
	idx atomic.Pointer[idxTable]
}

// smallShard is the most rows a flat shard holds without a membership
// table: find and insert scan its rows, which at this size costs no more
// than one hash probe, and the row after it builds the table through
// insert's growth branch.
const smallShard = 8

// newRelset returns an empty flat shard of the given epoch with room for
// hint rows: row capacity and, for a hint above smallShard, a membership
// table sized so hint inserts never grow it.
func newRelset(arity, hint int, epoch uint64) *relset {
	r := &relset{arity: int32(arity), epoch: epoch, rows: make([]uint32, 0, hint*arity)}
	if hint > smallShard {
		r.tab = grownTable(hint)
	}
	return r
}

// row returns row number n. Rows are immutable once inserted.
func (r *relset) row(n uint32) []uint32 {
	rows := r.rows
	if b := r.base; b != nil {
		if n < b.n {
			rows = b.rows
		} else {
			n -= b.n
		}
	}
	a := int(r.arity)
	i := int(n) * a
	return rows[i : i+a : i+a]
}

// flatRow returns row number n of a flat shard: the accessor of the
// membership table and the indexes, which only flat shards have.
func (r *relset) flatRow(n uint32) []uint32 {
	a := int(r.arity)
	i := int(n) * a
	return r.rows[i : i+a : i+a]
}

// find returns the row number of the tuple; h is hashVals(tup).
func (r *relset) find(tup []uint32, h uint32) (uint32, bool) {
	if r == nil {
		return 0, false
	}
	if r.base != nil {
		return r.findOverlay(tup, h)
	}
	if r.tab == nil {
		for n := uint32(0); n < r.n; n++ {
			if rowsEqual(r.flatRow(n), tup) {
				return n, true
			}
		}
		return 0, false
	}
	m := uint32(len(r.tab) - 1)
	for i := h & m; ; i = (i + 1) & m {
		e := r.tab[i]
		if e == 0 {
			return 0, false
		}
		if rowsEqual(r.flatRow(e-1), tup) {
			return e - 1, true
		}
	}
}

// findOverlay is find on an overlay: it probes the base's table, then
// scans the tail. The overlay paths of find, insert and bucket are
// functions of their own so the flat paths keep their size.
func (r *relset) findOverlay(tup []uint32, h uint32) (uint32, bool) {
	b := r.base
	if n, ok := b.find(tup, h); ok {
		return n, true
	}
	a := int(r.arity)
	for i := 0; i < len(r.rows); i += a {
		if rowsEqual(r.rows[i:i+a], tup) {
			return b.n + uint32(i/a), true
		}
	}
	return 0, false
}

// insert adds the tuple (h is hashVals(tup)), returning its row number
// and whether it was new. The caller must own the shard (it carries the
// caller's epoch); see Store.insertRow. On a flat shard one probe
// sequence serves both the membership test and the insertion, and every
// index built so far is maintained, so a lookup after an insert sees the
// new row exactly when a linear scan would. On an overlay the row joins
// the tail, and a tail reaching tailCap is flattened. A flat shard of
// fewer than smallShard rows without a table is scanned instead of
// probed. A duplicate allocates nothing; a new row costs amortized slice
// growth only.
func (r *relset) insert(tup []uint32, h uint32) (uint32, bool) {
	if r.base != nil {
		return r.insertOverlay(tup, h)
	}
	n := r.n
	if r.tab == nil && n < smallShard {
		if e, ok := r.find(tup, h); ok {
			return e, false
		}
	} else {
		if (int(n)+1)*4 > len(r.tab)*3 {
			r.rehash(2 * (int(n) + 1))
		}
		m := uint32(len(r.tab) - 1)
		i := h & m
		for ; r.tab[i] != 0; i = (i + 1) & m {
			if e := r.tab[i]; rowsEqual(r.flatRow(e-1), tup) {
				return e - 1, false
			}
		}
		r.tab[i] = n + 1
	}
	r.rows = append(r.rows, tup...)
	r.n++
	if tbl := r.idx.Load(); tbl != nil {
		for _, ix := range tbl.entries {
			ix.add(r, n)
		}
	}
	return n, true
}

// rehash rebuilds a flat shard's membership table with room for rows
// rows.
func (r *relset) rehash(rows int) {
	r.tab = grownTable(rows)
	m := uint32(len(r.tab) - 1)
	for n := uint32(0); n < r.n; n++ {
		i := hashVals(r.flatRow(n)) & m
		for r.tab[i] != 0 {
			i = (i + 1) & m
		}
		r.tab[i] = n + 1
	}
}

// insertOverlay is insert on an overlay: the row joins the tail, and a
// tail reaching tailCap is flattened.
func (r *relset) insertOverlay(tup []uint32, h uint32) (uint32, bool) {
	if n, ok := r.findOverlay(tup, h); ok {
		return n, false
	}
	n := r.n
	r.rows = append(r.rows, tup...)
	r.n++
	if r.n-r.base.n == tailCap {
		r.flatten()
	}
	return n, true
}

func (r *relset) size() int {
	if r == nil {
		return 0
	}
	return int(r.n)
}

// scan returns every row present now, in insertion order: a span over the
// flat rows (an overlay's base's), then an overlay's tail rows as a bit
// set — bit i is row base.n+i — which is 0 for a flat shard.
func (r *relset) scan() (rowSpan, uint64) {
	if r == nil || r.n == 0 {
		return rowSpan{}, 0
	}
	if b := r.base; b != nil {
		return rowSpan{last: b.n - 1, ok: true}, 1<<(r.n-b.n) - 1
	}
	return rowSpan{last: r.n - 1, ok: true}, 0
}

// bucket returns the rows whose masked columns equal key (the masked
// values packed in column order), in insertion order, split as scan
// splits them: the flat rows' index group, building the mask's index on
// first use, then an overlay's tail rows with that key. An overlay's index
// is its base's, so a build lands on the shared base and serves every
// lineage. A build is sized from prev (see idxTable.withMask): the shard
// of the same predicate one time point earlier, or nil. Safe for
// concurrent readers: the build installs an immutable table via CAS and
// retries on contention. Neither a hit nor a miss allocates once the
// index exists.
func (r *relset) bucket(mask uint32, key []uint32, prev *relset) (rowSpan, uint64) {
	if r == nil || r.n == 0 {
		return rowSpan{}, 0
	}
	if r.base != nil {
		return r.bucketOverlay(mask, key, prev)
	}
	for {
		tbl := r.idx.Load()
		if tbl != nil {
			for _, ix := range tbl.entries {
				if ix.mask != mask {
					continue
				}
				g, ok := ix.group(r, key, hashVals(key))
				if !ok {
					return rowSpan{}, 0
				}
				return rowSpan{cur: ix.first[g], last: ix.last[g], next: ix.next, ok: true}, 0
			}
		}
		// Not built yet: derive a new table from the current rows. On CAS
		// failure another goroutine installed a table first — loop and
		// look again (it may even have built this very mask).
		r.idx.CompareAndSwap(tbl, tbl.withMask(mask, r, prev))
	}
}

// bucketOverlay is bucket on an overlay: the base's index group, then
// the tail rows with the key.
func (r *relset) bucketOverlay(mask uint32, key []uint32, prev *relset) (rowSpan, uint64) {
	sp, _ := r.base.bucket(mask, key, prev)
	var tail uint64
	a := int(r.arity)
	for i, off := 0, 0; off < len(r.rows); i, off = i+1, off+a {
		if maskedEqual(r.rows[off:off+a], mask, key) {
			tail |= 1 << uint(i)
		}
	}
	return sp, tail
}

// tinyShard is the largest shard a fork copies flat instead of
// overlaying. An overlay keeps its base alive beside it; for a shard this
// small the base and the overlay's own struct retain more than a copy
// would (EXPERIMENTS.md E29), and the copy is as short as a tail.
const tinyShard = 4

// fork returns a copy-on-write version of a shard its writer does not
// own, carrying the writer's epoch: an overlay whose base is the shard
// itself or, when the shard is an overlay, the same base — so an overlay
// is never more than one level deep — and only the tail is copied; or,
// for a flat shard of at most tinyShard rows, a flat copy. The forked
// shard is not touched.
func (r *relset) fork(epoch uint64) *relset {
	if r.base == nil && r.n <= tinyShard {
		return r.flatCopy(int(r.n)+1, epoch)
	}
	c := &relset{arity: r.arity, n: r.n, epoch: epoch, fp: r.fp, base: r}
	if r.base != nil {
		c.base = r.base
		c.rows = append(make([]uint32, 0, len(r.rows)+int(r.arity)), r.rows...)
	}
	return c
}

// flatCopy deep-copies a flat shard into one of the given epoch with room
// for n rows: rows, membership table, fingerprint and every index it has
// built, so the copy is as warm as the original.
func (r *relset) flatCopy(n int, epoch uint64) *relset {
	c := &relset{
		arity: r.arity,
		n:     r.n,
		epoch: epoch,
		rows:  append(make([]uint32, 0, (n+n/8)*int(r.arity)), r.rows...),
		tab:   append([]uint32(nil), r.tab...),
		fp:    r.fp,
	}
	if tbl := r.idx.Load(); tbl != nil {
		ct := &idxTable{entries: make([]*colIndex, len(tbl.entries))}
		for i, ix := range tbl.entries {
			ct.entries[i] = ix.clone(n)
		}
		c.idx.Store(ct)
	}
	return c
}

// flatten turns a private overlay into a flat shard in place: a flat copy
// of the base with the tail rows inserted after. Row numbers do not move,
// and a join enumerating the overlay keeps the base and tail slices it
// took. At one O(shard) copy per tailCap rows written, per-row copying
// stays amortized O(1).
func (r *relset) flatten() {
	f, a := r.base.flatCopy(int(r.n), r.epoch), int(r.arity)
	for i := 0; i < len(r.rows); i += a {
		row := r.rows[i : i+a]
		f.insert(row, hashVals(row))
	}
	r.base, r.rows, r.tab = nil, f.rows, f.tab
	r.idx.Store(f.idx.Load())
}

// denseSlack bounds how far past (twice) the dense prefix of a predicate's
// time axis a shard may land and still extend the prefix (see
// predRel.set): generous enough that the facts of an ordinary database —
// asserted in any order — and rule heads a lookback ahead of the window
// all land in the prefix, at 8 KB of empty slots for a lone stray fact.
const denseSlack = 1024

// denseEnd returns the length of a dense time axis of length n after
// predRel.set stores time point t: the axis grows to t+1 when t lies
// within the slack past its end, and a point beyond lands in the overflow
// map.
func denseEnd(n, t int) int {
	if t >= n && t <= 2*n+denseSlack {
		return t + 1
	}
	return n
}

// predRel holds the shards and cardinality counters of one predicate.
// Temporal shards are indexed by time point: a dense prefix (the
// evaluated window grows it one state at a time) and, for a database
// fact far beyond it, a sparse overflow map — a unit file may name any
// time point, and a dense slot per time point up to it would let one
// fact allocate the address space.
type predRel struct {
	byTime []*relset
	far    map[int]*relset // time points beyond the dense prefix (or negative); nil when empty
	// epoch is the epoch of the store that may write byTime and far in
	// place: set copies them first for any other, so a clone writes only
	// the axes of the predicates it writes.
	epoch uint64
	nt    *relset // the relation of a non-temporal predicate
	// prop is the one shard of a temporal predicate of arity 0: it holds
	// the row () and is frozen (epoch 0), so every time point where the
	// proposition holds points at it and no write ever forks it.
	prop *relset
	// spare is the private flat shard of a state that closed as a repeat
	// of an earlier one (Store.closeState): no slot points at it any
	// more, and the next new temporal shard of the predicate is built in
	// its buffers. EnsureWindow drops it when the extension ends.
	spare *relset
	// db holds the database facts of a predicate that heads a rule, whose
	// shards mix them with derived rows: a temporal fact's time point in
	// column 0, then its arguments (Store.insertBase). A predicate no rule
	// derives has none; its shards are its database.
	db *relset
	// facts and states are the incrementally maintained cardinality
	// summary: total facts and, for temporal predicates, occupied time
	// points. They are the cost-model seed the join-order planner reads
	// (plan.go) and the totals behind the profiler's cardinality tables.
	facts  int
	states int
}

// newShard returns an empty temporal shard of the given epoch with room
// for hint rows (see newRelset): the predicate's spare, which carries the
// epoch already, emptied, when it has one.
func (pr *predRel) newShard(arity, hint int, epoch uint64) *relset {
	rs := pr.spare
	if rs == nil {
		return newRelset(arity, hint, epoch)
	}
	pr.spare = nil
	rs.n, rs.fp = 0, Fingerprint{}
	rs.rows = slices.Grow(rs.rows[:0], hint*arity)
	if hint > smallShard && len(rs.tab)*3 < hint*4 {
		rs.tab = grownTable(hint)
	} else {
		clear(rs.tab)
	}
	rs.idx.Store(nil)
	return rs
}

func (pr *predRel) get(t int) *relset {
	if uint(t) < uint(len(pr.byTime)) {
		return pr.byTime[t]
	}
	return pr.far[t]
}

// set stores the shard of time point t for the writer of the given
// epoch. A dense prefix that has to grow takes room up to the window
// (horizon) at once. It is the only writer of a shard into the axis, so
// an axis the writer does not own is copied here, before the first write,
// at the capacity growth would take: a copy and a growth are one
// allocation.
func (pr *predRel) set(t int, rs *relset, horizon int, epoch uint64) {
	n := len(pr.byTime)
	grow := denseEnd(n, t) > n
	if pr.epoch != epoch {
		room := n
		if grow {
			room = max(t, horizon) + 1
		}
		pr.byTime = append(make([]*relset, 0, room), pr.byTime...)
		pr.far = maps.Clone(pr.far)
		pr.epoch = epoch
	}
	if uint(t) >= uint(n) {
		if !grow {
			if pr.far == nil {
				pr.far = make(map[int]*relset)
			}
			pr.far[t] = rs
			return
		}
		pr.byTime = slices.Grow(pr.byTime, max(t, horizon)+1-n)
		for i := n; i <= t; i++ {
			pr.byTime = append(pr.byTime, pr.far[i])
			if len(pr.far) > 0 {
				delete(pr.far, i)
			}
		}
	}
	pr.byTime[t] = rs
}

// each calls f for every temporal shard of the predicate. Dense shards
// come in time order; overflow shards follow in map order, so f must not
// depend on the order.
func (pr *predRel) each(f func(t int, rs *relset)) {
	for t, rs := range pr.byTime {
		if rs != nil {
			f(t, rs)
		}
	}
	for t, rs := range pr.far {
		f(t, rs)
	}
}

// epochs hands out the epochs of copy-on-write ownership (see Store),
// each value once; 0 is never issued.
var epochs atomic.Uint64

func newEpoch() uint64 { return epochs.Add(1) }

// Store holds the facts derived so far: temporal relations indexed by
// predicate and time point, and non-temporal relations by predicate, as
// rows of symbol ids over the store's symbol table.
//
// Copy-on-write has one rule. Every store has an epoch, and every shard,
// time axis, class axis and symbol map, and its evaluator's counter
// records, carry the epoch of the store that made them. A writer changes an object in
// place only when the object carries the writer's own epoch; any other
// it copies or forks first. Clone gives both stores fresh epochs, so
// everything the two share is frozen to both without being written, and
// an epoch no store holds any more is never handed out again. Epoch 0 is
// no store's: shareState freezes a shard two time points share by
// setting it to 0.
type Store struct {
	// epoch is the store's copy-on-write epoch. Only the store's writer
	// reads it.
	epoch uint64
	// syms is the symbol and predicate table, shared with clones as a
	// frozen base plus a private tail (see symtab).
	syms symtab
	// rels is indexed by predicate id, one per interned signature.
	rels  []predRel
	count int
	// occ marks (one bit per symbol id) the symbols that occur in some
	// stored fact: the active domain. Rule constants are interned at
	// compile time but join the domain only when a fact mentions them.
	occ []uint64
	// consts caches the sorted active domain; a new occurrence drops it.
	// An atomic pointer because readers of a published snapshot fill it
	// lazily and concurrently (they all compute the same slice).
	consts atomic.Pointer[[]string]
	// rowBuf is Insert's scratch row (the store is single-writer).
	rowBuf []uint32
	// horizon is the last time point of the window being evaluated (set
	// by EnsureWindow): a dense time axis that grows is allocated up to
	// it at once, not one state at a time.
	horizon int
	// classes is the class axis of the closed time points (classAxis),
	// nil before one is assigned and after a write that may change a
	// closed state has made it stale: a stale axis is offered to no
	// reader (StateClasses) until openClasses assigns every class again.
	classes *classAxis
}

// classAxis is a store's state classes: the class of each closed time
// point 0..len(class)-1, dense from 0 in order of first appearance, and
// first, the first member of each class, so ascending; both are uint32
// like the store's rows. Equal ids are exactly equal states
// (StateEqual), never equal fingerprints alone.
// epoch is the epoch of the store that may write the axis in place (see
// Store); any other makes its own (openClasses).
type classAxis struct {
	class []uint32
	first []uint32
	epoch uint64
}

// NewStore returns an empty store.
func NewStore() *Store {
	e := newEpoch()
	return &Store{epoch: e, syms: newSymtab(e)}
}

// Clone returns an independent copy of the store: inserts into the clone
// are invisible to the original and vice versa. The copy is
// copy-on-write at shard (predicate×timestamp) granularity: both stores
// share every relset — rows, membership table, indexes, fingerprint —
// until one of them writes into it, and a write into a shard it does not
// own copies only that shard's short tail (relset.fork), never the rows
// or indexes of a shard of more than tinyShard rows. Each predicate's
// time axis is shared too, and copied by the first write to it on either
// side (predRel.set), and so is the class axis (openClasses). The symbol
// table is shared the same way: a clone copies its headers, and a new
// name on either side is appended past what the other holds (see
// symtab). Clone gives the clone and s fresh
// epochs (see Store), copies the predicate headers — no predicate holds a
// spare outside EnsureWindow — and writes nothing but the two store
// headers: O(predicates), independent of the number of facts and time
// points. Clone must be externally serialized against writes to s and
// against other clones of s (the evaluator's single-writer discipline);
// afterwards the two stores may be written from different goroutines.
//
//tddlint:resets rowBuf
func (s *Store) Clone() *Store {
	c := &Store{
		epoch:   newEpoch(),
		syms:    s.syms,
		rels:    slices.Clone(s.rels),
		count:   s.count,
		occ:     append([]uint64(nil), s.occ...),
		horizon: s.horizon,
		classes: s.classes,
	}
	c.consts.Store(s.consts.Load())
	s.epoch = newEpoch()
	return c
}

// intern returns the symbol id of a constant, adding it to the table
// when it is new. Write path only.
func (s *Store) intern(name string) uint32 {
	if id, ok := s.syms.symbolID(name); ok {
		return id
	}
	return s.syms.addSymbol(name, s.epoch)
}

// internPred returns the predicate id of a signature, adding it when it
// is new. Write path only.
func (s *Store) internPred(name string, arity int, temporal bool) uint32 {
	k := predKey{name: name, arity: arity, temporal: temporal}
	if id, ok := s.syms.predID(k); ok {
		return id
	}
	s.rels = append(s.rels, predRel{epoch: s.epoch})
	return s.syms.addPred(k, s.epoch)
}

// NoSymbol is the symbol id no stored row contains (the table reserves it
// for "unbound"): a reader that has to stand in for a constant the store
// has never seen uses it, and every probe with it misses.
const NoSymbol uint32 = 0

// PredID resolves a predicate signature to its id without interning: a
// signature the store has never seen has no facts. Together with SymbolID
// and HasRow it is the read surface of a reader that resolves names once
// and then probes on ids (internal/query).
func (s *Store) PredID(name string, arity int, temporal bool) (uint32, bool) {
	return s.syms.predID(predKey{name: name, arity: arity, temporal: temporal})
}

// SymbolID resolves a constant to its symbol id without interning.
func (s *Store) SymbolID(name string) (uint32, bool) {
	return s.syms.symbolID(name)
}

// HasRow reports whether the fact pred(t, row) is present (t is ignored
// for a non-temporal predicate). pred must come from PredID and row must
// have the arity it was resolved with. It allocates nothing.
func (s *Store) HasRow(pred uint32, t int, row []uint32) bool {
	_, ok := s.shard(pred, t).find(row, hashVals(row))
	return ok
}

// locate finds a stored fact — predicate id, time point (-1 for a
// non-temporal fact) and row number — without interning anything: a name
// the table has never seen means the fact cannot be present. Neither a
// hit nor a miss allocates (up to arity 8).
func (s *Store) locate(f ast.Fact) (dfact, bool) {
	pred, ok := s.PredID(f.Pred, len(f.Args), f.Temporal)
	if !ok {
		return dfact{}, false
	}
	var buf [8]uint32
	row := buf[:0]
	for _, a := range f.Args {
		id, ok := s.SymbolID(a)
		if !ok {
			return dfact{}, false
		}
		row = append(row, id)
	}
	d := dfact{pred: pred, time: -1}
	if f.Temporal {
		d.time = f.Time
	}
	d.row, ok = s.shard(pred, d.time).find(row, hashVals(row))
	return d, ok
}

// shard returns the relation holding the facts of pred at time t (t is
// ignored for a non-temporal predicate); nil if empty.
func (s *Store) shard(pred uint32, t int) *relset {
	if s.syms.pred(pred).temporal {
		return s.rels[pred].get(t)
	}
	return s.rels[pred].nt
}

// Insert adds a fact, reporting whether it was new. Inserting into a
// shard the store does not own first forks an overlay of it
// (copy-on-write); duplicate inserts never copy.
func (s *Store) Insert(f ast.Fact) bool { return s.insertBase(f, false) }

// insertBase is Insert of a database fact, reporting whether it was new
// to the database: Insert's answer for a predicate no rule derives, and
// for one that heads a rule (head) its db relset's, where the row is the
// fact's time point, if temporal, then its arguments. A fact at a closed
// time point makes the class axis stale. New and InsertBase refuse time
// points that do not fit a uint32.
func (s *Store) insertBase(f ast.Fact, head bool) bool {
	pred := s.internPred(f.Pred, len(f.Args), f.Temporal)
	row := s.rowBuf[:0]
	if f.Temporal {
		row = append(row, uint32(f.Time))
	}
	for _, a := range f.Args {
		row = append(row, s.intern(a))
	}
	s.rowBuf = row
	_, added := s.insertRow(pred, f.Time, row[len(row)-len(f.Args):])
	if f.Temporal && s.classes != nil && f.Time < len(s.classes.class) {
		s.classes = nil
	}
	if !head {
		return added
	}
	pr, h := &s.rels[pred], hashVals(row)
	switch {
	case pr.db == nil:
		pr.db = newRelset(len(row), 0, s.epoch)
	case pr.db.epoch != s.epoch:
		if _, ok := pr.db.find(row, h); ok {
			return false
		}
		pr.db = pr.db.fork(s.epoch)
	}
	_, added = pr.db.insert(row, h)
	return added
}

// reserve sizes, in a store that holds no fact yet, what the database
// facts of pred will occupy, so each is allocated once: a database shard
// with room for rows rows when the predicate heads a rule (rows > 0), and
// a dense time axis with room for axis slots.
func (s *Store) reserve(pred uint32, rows, axis int) {
	pr := &s.rels[pred]
	if rows > 0 {
		k := s.syms.pred(pred)
		width := k.arity
		if k.temporal {
			width++
		}
		pr.db = newRelset(width, rows, s.epoch)
	}
	if axis > 0 {
		pr.byTime = make([]*relset, 0, axis)
	}
}

// insertRow is Insert on interned ids — the evaluator's emit path. It
// returns the fact's row number in its shard and whether it was new.
func (s *Store) insertRow(pred uint32, t int, row []uint32) (uint32, bool) {
	pr := &s.rels[pred]
	temporal := s.syms.pred(pred).temporal
	rs := pr.nt
	if temporal {
		rs = pr.get(t)
	}
	h := hashVals(row)
	if rs == nil || rs.epoch != s.epoch {
		switch {
		case rs != nil:
			if n, ok := rs.find(row, h); ok {
				return n, false
			}
			rs = rs.fork(s.epoch)
		case !temporal:
			rs = newRelset(len(row), 0, s.epoch)
		case len(row) == 0:
			// A proposition: the shard is the predicate's one frozen
			// shard, its fingerprint the fact's, whatever t is.
			if pr.prop == nil {
				pr.prop = &relset{n: 1, fp: s.syms.factFingerprint(pred, row)}
			}
			pr.set(t, pr.prop, s.horizon, s.epoch)
			pr.states++
			pr.facts++
			s.count++
			return 0, true
		default:
			// Sized from the state before: past the base of a periodic
			// model it holds the same number of rows.
			rs = pr.newShard(len(row), pr.get(t-1).size(), s.epoch)
			pr.states++
		}
		if temporal {
			pr.set(t, rs, s.horizon, s.epoch)
		} else {
			pr.nt = rs
		}
	}
	n, added := rs.insert(row, h)
	if !added {
		return n, false
	}
	s.count++
	pr.facts++
	if temporal {
		rs.fp.add(s.syms.factFingerprint(pred, row))
	}
	for _, id := range row {
		w, b := int(id>>6), uint64(1)<<(id&63)
		for w >= len(s.occ) {
			s.occ = append(s.occ, 0)
		}
		if s.occ[w]&b == 0 {
			s.occ[w] |= b
			s.consts.Store(nil)
		}
	}
	return n, true
}

// fitState gives back what the closed state t reserved and did not use: a
// flat shard the store owns holding fewer than half the rows its capacity was
// sized for — from a larger state before it — is copied to its size, so
// slack never exceeds what growth by doubling leaves.
func (s *Store) fitState(t int) {
	for i := range s.rels {
		rs := s.rels[i].get(t)
		if rs == nil || rs.epoch != s.epoch || rs.base != nil || cap(rs.rows) <= 2*len(rs.rows)+int(rs.arity) {
			continue
		}
		rs.rows = append([]uint32(nil), rs.rows...)
		rs.tab = nil
		if rs.n > smallShard {
			rs.rehash(int(rs.n))
		}
	}
}

// openClasses readies the class axis for closing the states past 0..n-1
// up to m, and returns the table closeState looks a closing state up in:
// a class with each fingerprint. An axis the store does not own is
// copied, an owned one grows as a time axis does, and either way it has
// room for m+1 ids. When it holds the classes of 0..n-1, the table is
// built from the first members alone, O(classes); when it is stale or
// short, every class of 0..n-1 is assigned afresh.
func (s *Store) openClasses(n, m int) map[Fingerprint]uint32 {
	a := s.classes
	fresh := a != nil && len(a.class) >= n
	if a == nil || a.epoch != s.epoch {
		s.classes = &classAxis{class: make([]uint32, 0, m+1), epoch: s.epoch}
		if fresh {
			s.classes.class, s.classes.first = append(s.classes.class, a.class...), slices.Clone(a.first)
		}
		a = s.classes
	}
	a.class = slices.Grow(a.class, max(m+1-len(a.class), 0))
	seen := make(map[Fingerprint]uint32, len(a.first))
	if fresh {
		for c, f := range a.first {
			seen[s.StateFingerprint(int(f))] = uint32(c)
		}
		return seen
	}
	a.class, a.first = a.class[:0], a.first[:0]
	for t := 0; t < n; t++ {
		s.classify(t, seen)
	}
	return seen
}

// classify appends the class of state t, the next time point of the
// axis, and reports whether an earlier state has it. seen maps a
// fingerprint to a class that has it; a state is put in a class only
// when StateEqual confirms it equal to the class's first member, and one
// whose fingerprint's class is unequal (a collision) is compared with
// every class's first member before it gets a class of its own.
func (s *Store) classify(t int, seen map[Fingerprint]uint32) (uint32, bool) {
	a, fp := s.classes, s.StateFingerprint(t)
	c, ok := seen[fp]
	if ok && !s.StateEqual(t, int(a.first[c])) {
		i := slices.IndexFunc(a.first, func(f uint32) bool { return s.StateEqual(t, int(f)) })
		c, ok = uint32(i), i >= 0
	}
	if !ok {
		c = uint32(len(a.first))
		a.first = append(a.first, uint32(t))
		seen[fp] = c
	}
	a.class = append(a.class, c)
	return c, ok
}

// closeState finishes state t of an extension and assigns its class
// (classify, over openClasses' table). A state equal to an earlier one
// is stored as its class's first member's shards (shareState), and each
// private flat shard it was built in becomes its predicate's spare, the
// buffers of the next state. Any other state is fitted (fitState).
func (s *Store) closeState(t int, seen map[Fingerprint]uint32) {
	c, repeat := s.classify(t, seen)
	if !repeat {
		s.fitState(t)
		return
	}
	s.shareState(t, int(s.classes.first[c]), true)
}

// StateClasses returns the class of each time point 0..n-1 and the first
// member of each of their classes, ascending: states t1, t2 < n are
// equal exactly when class[t1] == class[t2], and first[class[t]] is the
// least time point whose state is t's. Both are nil when the store has
// not closed 0..n-1 or a write may have changed a closed state since
// its class was assigned. The slices are the store's, to be read only.
func (s *Store) StateClasses(n int) (class, first []uint32) {
	a := s.classes
	if a == nil || n > len(a.class) {
		return nil, nil
	}
	k, _ := slices.BinarySearch(a.first, uint32(n))
	return a.class[:n], a.first[:k]
}

// shareState stores state t as the shards of state f, which the caller
// has found equal to it: each temporal slot t is re-pointed at the shard
// of slot f, frozen (epoch 0) when the store owns it, so reads are
// unchanged and a later write to either state forks an overlay for its
// slot alone. As a guard a slot is re-pointed only when both shards have
// the same row count and fingerprint. With spare, a flat shard the store
// owns that the slot held becomes its predicate's spare: no slot points
// at it any more. Call it only while the evaluator is private to its
// writer, as it rewrites slots that readers read; a shard the store owns
// is then reachable from this store alone, so freezing it races with no
// other lineage.
func (s *Store) shareState(t, f int, spare bool) {
	for i := range s.rels {
		pr := &s.rels[i]
		rs, rep := pr.get(t), pr.get(f)
		if rs == rep || rs == nil || rep == nil || rs.n != rep.n || rs.fp != rep.fp {
			continue
		}
		if rep.epoch == s.epoch {
			rep.epoch = 0
		}
		if spare && rs.epoch == s.epoch && rs.base == nil {
			pr.spare = rs
		}
		pr.set(t, rep, s.horizon, s.epoch)
	}
}

// dropSpares lets the shards closeState kept for reuse go.
func (s *Store) dropSpares() {
	for i := range s.rels {
		s.rels[i].spare = nil
	}
}

// ShareRepeats stores each state of a model certified with period (b, p)
// once: for every t in [b+p, Window()], in ascending order, state t is
// stored as the shards of state t-p (shareState), so every state past the
// representatives is its representative's shards (the rewrite system W
// of Section 3.3, realized in storage). EnsureWindow already stores a
// state that repeats an earlier one as it when the state closes; what is
// left for ShareRepeats are the slots a write forked since — an ingest's
// delta, or an outer re-sweep. The certificate has made the two states
// equal, so no class changes; and since a class past b+p is its
// representative's, the store keeps the representatives' classes only,
// in storage of their size (a short axis is re-classed before its next
// use, see openClasses). Call it before the evaluator is published (see
// shareState).
func (e *Evaluator) ShareRepeats(b, p int) {
	for t := b + p; t <= e.evaluated; t++ {
		e.store.shareState(t, t-p, false)
	}
	if a := e.store.classes; a != nil && len(a.class) > b+p {
		k, _ := slices.BinarySearch(a.first, uint32(b+p))
		e.store.classes = &classAxis{class: slices.Clone(a.class[:b+p]), first: slices.Clone(a.first[:k]), epoch: e.store.epoch}
	}
}

// card returns the predicate's incremental cardinality summary: total
// facts and, for temporal predicates, occupied time points.
func (s *Store) card(pred uint32) (facts, states int) {
	return s.rels[pred].facts, s.rels[pred].states
}

// Has reports whether the fact is present. It never interns: asking
// about a name the store has never seen answers false without growing
// the (possibly shared) symbol table, and allocates nothing.
func (s *Store) Has(f ast.Fact) bool {
	_, ok := s.locate(f)
	return ok
}

// Len returns the total number of stored facts.
func (s *Store) Len() int { return s.count }

// at returns the temporal relation of pred at time t (nil if empty).
func (s *Store) at(pred uint32, t int) *relset { return s.rels[pred].get(t) }

// nt returns the non-temporal relation of pred (nil if empty).
func (s *Store) nt(pred uint32) *relset { return s.rels[pred].nt }

// StateSize returns the number of temporal tuples at time t.
func (s *Store) StateSize(t int) int {
	n := 0
	for i := range s.rels {
		n += s.rels[i].get(t).size()
	}
	return n
}

// StateFingerprint returns the fingerprint of the state L[t]: the sum of
// the fingerprints of its shards, each maintained on insert, so reading
// it costs one addition per predicate and no pass over the facts. Equal
// states have equal fingerprints — in any store, whatever the insertion
// or interning order; see Fingerprint for the converse.
func (s *Store) StateFingerprint(t int) Fingerprint {
	var fp Fingerprint
	for i := range s.rels {
		if rs := s.rels[i].get(t); rs != nil {
			fp.add(rs.fp)
		}
	}
	return fp
}

// StateEqual reports whether L[t1] and L[t2] are the same set of atoms,
// by exact comparison: per predicate, the two shards hold the same rows
// (sameRows). States stored once compare at one pointer comparison per
// predicate. It allocates nothing.
func (s *Store) StateEqual(t1, t2 int) bool {
	for i := range s.rels {
		if !sameRows(s.rels[i].get(t1), s.rels[i].get(t2)) {
			return false
		}
	}
	return true
}

// sameRows reports whether two shards (nil is empty) hold the same set of
// rows: at once when they are one shard, by one pass when both are flat
// and hold the same rows in the same order, and otherwise by looking each
// row of a up in b, of the same size.
func sameRows(a, b *relset) bool {
	n := a.size()
	if a == b || n == 0 || n != b.size() {
		return n == b.size()
	}
	if a.base == nil && b.base == nil && slices.Equal(a.rows, b.rows) {
		return true
	}
	for i := 0; i < n; i++ {
		row := a.row(uint32(i))
		if _, ok := b.find(row, hashVals(row)); !ok {
			return false
		}
	}
	return true
}

// StateKey returns a canonical rendering of the state L[t]: the set of
// atoms P(x̄) with P(t, x̄) in the store, as sorted text. Two time points
// — of one store or of two — have equal states iff their StateKeys are
// equal. It is rebuilt on every call and exists for the differential
// oracles that compare stores; everything on a hot path compares
// StateFingerprint (and confirms with StateEqual).
func (s *Store) StateKey(t int) string {
	var lines []string
	for i := range s.rels {
		rs := s.rels[i].get(t)
		for n := 0; n < rs.size(); n++ {
			lines = append(lines, s.syms.pred(uint32(i)).name+"\x01"+strings.Join(s.names(rs.row(uint32(n))), "\x00"))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\x02")
}

// names renders a row of symbol ids as constants.
func (s *Store) names(row []uint32) []string {
	out := make([]string, len(row))
	for i, id := range row {
		out[i] = s.syms.name(id)
	}
	return out
}

// appendFacts renders the rows of one shard of predicate pred as facts
// at time point t, or without a temporal argument when t is -1.
func (s *Store) appendFacts(out []ast.Fact, pred int, rs *relset, t int) []ast.Fact {
	for n := 0; n < rs.size(); n++ {
		out = append(out, ast.Fact{Pred: s.syms.pred(uint32(pred)).name, Temporal: t >= 0, Time: max(t, 0), Args: s.names(rs.row(uint32(n)))})
	}
	return out
}

// baseFacts reads the database back: the facts of the predicates keep
// accepts (nil accepts all), each once and in no particular order, and
// the constants of every database fact, sorted, marked by symbol id from
// the rows, so the facts of a predicate keep rejects are not rendered. A
// predicate that heads a rule (head) is read from its database shard,
// whose rows carry a temporal fact's time point in column 0
// (insertBase), and any other from its own shards, which hold nothing
// else.
func (s *Store) baseFacts(head map[string]bool, keep func(pred string) bool) ([]ast.Fact, []string) {
	var out []ast.Fact
	seen := make([]uint64, (s.syms.nsyms()+63)/64)
	for i := range s.rels {
		pr, k := &s.rels[i], s.syms.pred(uint32(i))
		kept := keep == nil || keep(k.name)
		fact := func(t int, args []uint32) {
			for _, id := range args {
				seen[id>>6] |= 1 << (id & 63)
			}
			if kept {
				out = append(out, ast.Fact{Pred: k.name, Temporal: t >= 0, Time: max(t, 0), Args: s.names(args)})
			}
		}
		if head[k.name] {
			for n := uint32(0); n < uint32(pr.db.size()); n++ {
				row, t := pr.db.row(n), -1
				if k.temporal {
					t = int(row[0])
				}
				fact(t, row[len(row)-k.arity:])
			}
			continue
		}
		rows := func(t int, rs *relset) {
			for n := uint32(0); n < uint32(rs.size()); n++ {
				fact(t, rs.row(n))
			}
		}
		rows(-1, pr.nt)
		pr.each(rows)
	}
	return out, s.sortedNames(seen)
}

// State returns the state L[t] as sorted facts with the temporal argument
// projected out (the paper's M[t]).
func (s *Store) State(t int) []ast.Fact { return s.stateFacts(t, -1) }

// Snapshot returns the snapshot L(t) as sorted temporal facts (the paper's
// M(t): tuples with their temporal argument).
func (s *Store) Snapshot(t int) []ast.Fact { return s.stateFacts(t, t) }

// stateFacts renders the state L[t] as sorted facts at time point at, or
// without a temporal argument when at is -1 (appendFacts).
func (s *Store) stateFacts(t, at int) []ast.Fact {
	var out []ast.Fact
	for i := range s.rels {
		out = s.appendFacts(out, i, s.rels[i].get(t), at)
	}
	ast.SortFacts(out)
	return out
}

// NonTemporalFacts returns the non-temporal part L_nt as sorted facts.
func (s *Store) NonTemporalFacts() []ast.Fact {
	var out []ast.Fact
	for i := range s.rels {
		out = s.appendFacts(out, i, s.rels[i].nt, -1)
	}
	ast.SortFacts(out)
	return out
}

// NonTemporalCount returns |L_nt|.
func (s *Store) NonTemporalCount() int {
	n := 0
	for i := range s.rels {
		n += s.rels[i].nt.size()
	}
	return n
}

// Constants returns all non-temporal constants occurring in the store,
// sorted. This is the active domain used for non-temporal quantification.
// It is served from the symbol table's occurrence marks and cached until
// a fact brings a new constant in; the returned slice is shared and must
// not be modified.
func (s *Store) Constants() []string {
	if c := s.consts.Load(); c != nil {
		return *c
	}
	out := s.sortedNames(s.occ)
	s.consts.Store(&out)
	return out
}

// sortedNames returns the constants whose symbol ids are set in the bit
// set ids (bit id&63 of word id>>6), sorted.
func (s *Store) sortedNames(ids []uint64) []string {
	out := make([]string, 0, s.syms.nsyms())
	for w, bits := range ids {
		for b := 0; bits != 0; b, bits = b+1, bits>>1 {
			if bits&1 != 0 {
				out = append(out, s.syms.name(uint32(w<<6|b)))
			}
		}
	}
	sort.Strings(out)
	return out
}
