package engine

import "sync/atomic"

// sharedLog is an append-only slice whose backing array is shared by a
// lineage of clones: the symbol table's constants, hashes and
// predicates. A clone copies the slice header, not the elements, so a
// fork costs O(1) whatever the log holds.
//
// Two clones of one parent hold the same prefix and may both append at
// the same position n. The first to claim n — a compare-and-swap on the
// claim counter every view of the array shares — writes in place; any
// other finds n taken and copies its prefix into a fresh array once,
// after which it appends in place again. Writes land only past every
// view's length, so readers of any clone, on any goroutine, read
// elements nobody writes.
type sharedLog[T any] struct {
	s     []T       // this lineage's elements; cap is the backing array's
	claim *logClaim // shared by every view of the backing array
}

// logClaim counts the elements of a backing array some lineage has
// written or claimed.
type logClaim struct{ n atomic.Int64 }

// newSharedLog wraps s as a log. Its capacity is cut to its length: the
// spare capacity of a caller's slice is the caller's to append into, so
// the first append copies.
func newSharedLog[T any](s []T) sharedLog[T] {
	c := &logClaim{}
	c.n.Store(int64(len(s)))
	return sharedLog[T]{s: s[:len(s):len(s)], claim: c}
}

// append adds v at the end of this lineage's view.
func (l *sharedLog[T]) append(v T) {
	n := len(l.s)
	if n < cap(l.s) && l.claim.n.CompareAndSwap(int64(n), int64(n+1)) {
		l.s = append(l.s, v)
		return
	}
	// Full, or slot n is taken: appending to a view with no spare
	// capacity copies into a new array of the usual growth.
	l.s = append(l.s[:n:n], v)
	l.claim = &logClaim{}
	l.claim.n.Store(int64(n + 1))
}
