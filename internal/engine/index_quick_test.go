package engine

// Property tests for the bound-column hash indexes and the incrementally
// maintained summaries (store.go): whatever interleaving of window growth,
// copy-on-write cloning, base insertion, and delta propagation produced a
// store, every index lookup must return exactly what a linear scan of the
// same relation returns — same rows, same insertion order — and the
// incremental cardinality counters the planner reads and the state
// fingerprints period detection reads must match a recount.

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"tdd/internal/ast"
)

// spanRows collects the row numbers a span enumerates, in order.
func spanRows(sp rowSpan) []uint32 {
	var out []uint32
	for more := sp.ok; more; more = sp.advance() {
		out = append(out, sp.cur)
	}
	return out
}

// bucketRows collects the row numbers rs.bucket(mask, key, nil) enumerates —
// rs.scan() for mask 0 — in order: the span, then an overlay's tail rows.
func bucketRows(rs *relset, mask uint32, key []uint32) []uint32 {
	sp, tail := rs.scan()
	if mask != 0 {
		sp, tail = rs.bucket(mask, key, nil)
	}
	out := spanRows(sp)
	for i := 0; tail != 0; i, tail = i+1, tail>>1 {
		if tail&1 != 0 {
			out = append(out, rs.base.n+uint32(i))
		}
	}
	return out
}

// maskedKey packs the masked columns of a row, in column order.
func maskedKey(row []uint32, mask uint32) []uint32 {
	var key []uint32
	for i, v := range row {
		if mask&(1<<uint(i)) != 0 {
			key = append(key, v)
		}
	}
	return key
}

// checkForm verifies the shape of a shard: a flat one holds all its rows
// and, past smallShard rows, a membership table; an overlay sits one
// level over a flat base of more than tinyShard rows that the overlay's
// writer cannot write (the two carry different epochs, unless both are
// frozen at 0), with a tail shorter than tailCap and no tables of its
// own.
func checkForm(where string, rs *relset) error {
	b := rs.base
	if b == nil {
		if len(rs.rows) != int(rs.n)*int(rs.arity) {
			return fmt.Errorf("%s: %d ids for %d rows of arity %d", where, len(rs.rows), rs.n, rs.arity)
		}
		if rs.tab == nil && rs.n > smallShard {
			return fmt.Errorf("%s: %d rows and no membership table (small-shard limit %d)", where, rs.n, smallShard)
		}
		return nil
	}
	if b.base != nil || (b.epoch == rs.epoch && b.epoch != 0) || b.n <= tinyShard || rs.tab != nil || rs.idx.Load() != nil {
		return fmt.Errorf("%s: overlay of epoch %d over a base that is flat %v, of epoch %d, %d rows; own tables %v %v",
			where, rs.epoch, b.base == nil, b.epoch, b.n, rs.tab != nil, rs.idx.Load() != nil)
	}
	if tail := int(rs.n - b.n); tail < 1 || tail >= tailCap || len(rs.rows) != tail*int(rs.arity) {
		return fmt.Errorf("%s: overlay tail of %d rows in %d ids of arity %d (cap %d)", where, tail, len(rs.rows), rs.arity, tailCap)
	}
	return nil
}

// checkShard verifies one shard against the linear-scan oracle: its
// shape (checkForm), and an overlay's base passes these checks itself;
// the membership probe finds exactly the stored rows; a scan visits every row
// in insertion order; for every column mask up to three columns every
// index lookup returns the rows a scan would, in insertion order; every
// index a flat shard already carries (built by a join, maintained by
// inserts, copied by a flatten) equals one rebuilt from the rows; and the
// maintained fingerprint equals a recomputation.
func checkShard(s *Store, where string, pred uint32, rs *relset) error {
	if rs == nil || rs.n == 0 {
		return nil
	}
	if err := checkForm(where, rs); err != nil {
		return err
	}
	if rs.base != nil {
		if err := checkShard(s, where+" base", pred, rs.base); err != nil {
			return err
		}
	}
	scan := bucketRows(rs, 0, nil)
	for i, n := range scan {
		if n != uint32(i) {
			return fmt.Errorf("%s: scan visits rows %v, want 0..%d in order", where, scan, rs.n-1)
		}
	}
	if len(scan) != int(rs.n) {
		return fmt.Errorf("%s: scan visits %d of %d rows", where, len(scan), rs.n)
	}
	var fp Fingerprint
	for n := 0; n < int(rs.n); n++ {
		row := rs.row(uint32(n))
		if got, ok := rs.find(row, hashVals(row)); !ok || got != uint32(n) {
			return fmt.Errorf("%s: membership table maps row %d to %d, %v", where, n, got, ok)
		}
		fp.add(s.syms.factFingerprint(pred, row))
	}
	if s.syms.pred(pred).temporal && fp != rs.fp {
		return fmt.Errorf("%s: maintained fingerprint %x != recomputed %x", where, rs.fp, fp)
	}
	if tbl := rs.idx.Load(); tbl != nil {
		for _, ix := range tbl.entries {
			fresh := (*idxTable)(nil).withMask(ix.mask, rs, nil).entries[0]
			if len(ix.next) != int(rs.n) || len(ix.first) != len(fresh.first) {
				return fmt.Errorf("%s mask %x: carried index covers %d rows in %d groups, rebuilt %d rows in %d groups",
					where, ix.mask, len(ix.next), len(ix.first), rs.n, len(fresh.first))
			}
			for g := range fresh.first {
				key := maskedKey(rs.row(fresh.first[g]), ix.mask)
				cg, ok := ix.group(rs, key, hashVals(key))
				if !ok {
					return fmt.Errorf("%s mask %x key %v: group missing from the carried index", where, ix.mask, key)
				}
				got := spanRows(rowSpan{cur: ix.first[cg], last: ix.last[cg], next: ix.next, ok: true})
				want := spanRows(rowSpan{cur: fresh.first[g], last: fresh.last[g], next: fresh.next, ok: true})
				if !slices.Equal(got, want) {
					return fmt.Errorf("%s mask %x key %v: carried index rows %v, rebuilt %v", where, ix.mask, key, got, want)
				}
			}
		}
	}
	arity := int(rs.arity)
	if arity > 3 {
		arity = 3
	}
	for mask := uint32(1); mask < 1<<uint(arity); mask++ {
		seen := make(map[string]bool)
		for n := uint32(0); n < rs.n; n++ {
			key := maskedKey(rs.row(n), mask)
			if k := fmt.Sprint(key); seen[k] {
				continue
			} else {
				seen[k] = true
			}
			var want []uint32
			for c := uint32(0); c < rs.n; c++ {
				if maskedEqual(rs.row(c), mask, key) {
					want = append(want, c)
				}
			}
			if got := bucketRows(rs, mask, key); !slices.Equal(got, want) {
				return fmt.Errorf("%s mask %x key %v: index rows %v, linear scan %v (order must match insertion)",
					where, mask, key, got, want)
			}
		}
		absent := make([]uint32, len(maskedKey(rs.row(0), mask)))
		for i := range absent {
			absent[i] = uint32(s.syms.nsyms()) + 7 // an id no symbol has
		}
		if got := bucketRows(rs, mask, absent); len(got) != 0 {
			return fmt.Errorf("%s mask %x: lookup of absent key returned %d rows", where, mask, len(got))
		}
	}
	return nil
}

// checkStoreIndexes verifies every shard of the store (checkShard),
// recounts the per-predicate cardinality counters the planner reads, and
// checks every state fingerprint against a store built from scratch out
// of the rendered state — other interning order, other insertion order.
func checkStoreIndexes(s *Store) error {
	occupied := make(map[int]bool)
	for i := range s.rels {
		pr := &s.rels[i]
		pred := uint32(i)
		name := s.syms.pred(pred).name
		facts, states := 0, 0
		var err error
		pr.each(func(tm int, rs *relset) {
			if e := checkShard(s, fmt.Sprintf("%s@%d", name, tm), pred, rs); e != nil && err == nil {
				err = e
			}
			facts += rs.size()
			states++
			occupied[tm] = true
		})
		if err != nil {
			return err
		}
		if e := checkShard(s, name, pred, pr.nt); e != nil {
			return e
		}
		facts += pr.nt.size()
		if f, st := s.card(pred); f != facts || st != states {
			return fmt.Errorf("%s: cardinality counters (facts=%d states=%d) != recount (facts=%d states=%d)",
				name, f, st, facts, states)
		}
	}
	for tm := range occupied {
		fresh := NewStore()
		fresh.Insert(ntfact("interned-first", "zz", "a3", "a1"))
		state := s.Snapshot(tm)
		for i := len(state) - 1; i >= 0; i-- {
			fresh.Insert(state[i])
		}
		if got, want := s.StateFingerprint(tm), fresh.StateFingerprint(tm); got != want {
			return fmt.Errorf("state %d: maintained fingerprint %x != from-scratch %x", tm, got, want)
		}
	}
	return nil
}

// Property: after any interleaving of EnsureWindow / Clone / InsertBase /
// PropagateDelta — across a tree of clones, each step and each clone
// taken on any earlier evaluator, so shared COW shards, sibling overlays
// of one shard, and delta-inserted tuples are all exercised — every index
// lookup equals a linear scan of the same relation, every carried index
// equals a rebuilt one, and every maintained fingerprint equals a
// recomputed one.
func TestIndexConsistencyUnderInterleavings(t *testing.T) {
	const src = `
p(T+1, X, Y) :- p(T, X, Z), e(Z, Y).
q(X, Y) :- e(X, Y), n(Y).
r(T+2, X) :- p(T, X, X), q(X, X).
p(0, a0, a0).
e(a0, a1).
e(a1, a0).
n(a0).
`
	name := func(i uint8) string { return fmt.Sprintf("a%d", i%4) }
	type op struct{ Kind, A, B, T, Who uint8 }
	f := func(ops []op) bool {
		e := mustEval(t, src)
		e.EnsureWindow(4)
		evs := []*Evaluator{e}
		for _, o := range ops {
			// Any earlier evaluator steps or forks, so siblings write into
			// the shards they share.
			cur := evs[int(o.Who)%len(evs)]
			switch o.Kind % 4 {
			case 0:
				if w := cur.Window(); w < 24 {
					cur.EnsureWindow(w + 1 + int(o.T%2))
				}
			case 1:
				evs = append(evs, cur.Clone())
			case 2:
				fct := ast.Fact{Pred: "e", Args: []string{name(o.A), name(o.B)}}
				if ok, err := cur.InsertBase(fct); err == nil && ok {
					cur.PropagateDelta([]ast.Fact{fct})
				}
			case 3:
				fct := ast.Fact{Pred: "p", Temporal: true, Time: int(o.T % 6), Args: []string{name(o.A), name(o.B)}}
				if ok, err := cur.InsertBase(fct); err == nil && ok {
					cur.PropagateDelta([]ast.Fact{fct})
				}
			}
		}
		for _, ev := range evs {
			if err := checkStoreIndexes(ev.store); err != nil {
				t.Log(err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: along any tree of store clones — each clone taken from any
// earlier store, the root included, so sibling forks write one shared
// shard and lineages write the time axes of predicates that other
// lineages have not written, with runs of writes long enough to pass
// tailCap and index builds on shards that are about to be forked or
// flattened — after every step each shard of the stepped store equals a
// flat rebuild of the rows its lineage inserted, in insertion order: the
// same rows under the same numbers, the same scan, the same rows from
// every bucket (every mask of the three columns, present and absent keys)
// and from find, and the same fingerprint. At the end every lineage, the
// root included, reads exactly its own rows.
func TestOverlayLineages(t *testing.T) {
	newRoot := func() *Store {
		s := NewStore()
		s.internPred("p", 3, true)
		s.internPred("r", 3, true)
		s.internPred("q", 3, false)
		for col, n := range []int{6, 6, 4} {
			for i := 0; i < n; i++ {
				s.intern(fmt.Sprintf("%c%d", 'a'+col, i))
			}
		}
		return s
	}
	tmpl := newRoot()
	var syms [3][]uint32 // column -> the constants it draws from
	for col, n := range []int{6, 6, 4} {
		for i := 0; i < n; i++ {
			id, _ := tmpl.SymbolID(fmt.Sprintf("%c%d", 'a'+col, i))
			syms[col] = append(syms[col], id)
		}
	}
	// The shards are p at times 0, 2, 600, 1500 and 5000, r at 1 and
	// 5000, and the non-temporal q. The axes start empty: 600 and 1500
	// land past the axis end, which grows to take them, and 5000 always
	// lands in the overflow map, as does 1500 while the axis is shorter
	// than 238; a later write to 1500 moves it into the grown axis.
	shards := []struct {
		name string
		t    int
	}{{"p", 0}, {"p", 2}, {"p", 600}, {"p", 1500}, {"p", 5000}, {"r", 1}, {"r", 5000}, {"q", -1}}
	locate := func(k int) (uint32, int) {
		pred, _ := tmpl.PredID(shards[k].name, 3, shards[k].t >= 0)
		return pred, shards[k].t
	}
	type lineage struct {
		s    *Store
		rows [8][][]uint32 // per shard, in insertion order
	}
	check := func(l *lineage) error {
		for k, want := range l.rows {
			pred, tm := locate(k)
			rs := l.s.shard(pred, tm)
			where := fmt.Sprintf("shard %d", k)
			if rs.size() != len(want) {
				return fmt.Errorf("%s: %d rows, lineage inserted %d", where, rs.size(), len(want))
			}
			if rs == nil {
				continue
			}
			if err := checkForm(where, rs); err != nil {
				return err
			}
			flat := newRelset(3, 0, 0)
			var fp Fingerprint
			for i, row := range want {
				flat.insert(row, hashVals(row))
				if got := rs.row(uint32(i)); !slices.Equal(got, row) {
					return fmt.Errorf("%s: row %d = %v, inserted %v", where, i, got, row)
				}
				if n, ok := rs.find(row, hashVals(row)); !ok || n != uint32(i) {
					return fmt.Errorf("%s: find(row %d) = %d, %v", where, i, n, ok)
				}
				fp.add(l.s.syms.factFingerprint(pred, row))
			}
			absent := []uint32{NoSymbol, NoSymbol, NoSymbol}
			if _, ok := rs.find(absent, hashVals(absent)); ok {
				return fmt.Errorf("%s: find of an absent row succeeded", where)
			}
			if tm >= 0 && fp != rs.fp {
				return fmt.Errorf("%s: fingerprint %x, rebuilt %x", where, rs.fp, fp)
			}
			if got, want := bucketRows(rs, 0, nil), bucketRows(flat, 0, nil); !slices.Equal(got, want) {
				return fmt.Errorf("%s: scan %v, flat rebuild %v", where, got, want)
			}
			for mask := uint32(1); mask < 8; mask++ {
				for _, row := range slices.Concat(want, [][]uint32{absent}) {
					key := maskedKey(row, mask)
					if got, want := bucketRows(rs, mask, key), bucketRows(flat, mask, key); !slices.Equal(got, want) {
						return fmt.Errorf("%s mask %x key %v: bucket %v, flat rebuild %v", where, mask, key, got, want)
					}
				}
			}
		}
		return nil
	}

	type op struct{ Kind, From, Shard, Seed, N uint8 }
	f := func(ops []op) bool {
		lins := []*lineage{{s: newRoot()}}
		for step, o := range ops {
			l := lins[int(o.From)%len(lins)]
			k := int(o.Shard) % len(shards)
			pred, tm := locate(k)
			switch o.Kind % 4 {
			case 0:
				c := &lineage{s: l.s.Clone()}
				for i, rows := range l.rows {
					c.rows[i] = slices.Clip(rows)
				}
				lins = append(lins, c)
				l = c
			case 1, 2:
				for i := 0; i < int(o.N)%48+1; i++ {
					h := hashVals([]uint32{uint32(o.Seed), uint32(i)})
					row := []uint32{syms[0][h%6], syms[1][h/6%6], syms[2][h/36%4]}
					fresh := !slices.ContainsFunc(l.rows[k], func(r []uint32) bool { return slices.Equal(r, row) })
					if _, added := l.s.insertRow(pred, tm, row); added != fresh {
						t.Logf("step %d: insert of %v reported new = %v, lineage says %v", step, row, added, fresh)
						return false
					}
					if fresh {
						l.rows[k] = append(l.rows[k], row)
					}
				}
			case 3:
				if rs := l.s.shard(pred, tm); rs != nil {
					mask := uint32(o.Seed)%7 + 1
					rs.bucket(mask, maskedKey(rs.row(0), mask), nil)
				}
			}
			if err := check(l); err != nil {
				t.Logf("step %d (%+v): %v", step, o, err)
				return false
			}
		}
		for i, l := range lins {
			err := check(l)
			if err == nil {
				err = checkStoreIndexes(l.s)
			}
			if err != nil {
				t.Logf("lineage %d at the end: %v", i, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
