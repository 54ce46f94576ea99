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

// checkShard verifies one shard against the linear-scan oracle: the
// membership table finds exactly the stored rows; for every column mask
// up to three columns every index lookup returns the rows a scan would,
// in insertion order; every index the shard already carries (built by a
// join, maintained by inserts, copied by a copy-on-write
// materialization) equals one rebuilt from the rows; and the maintained
// fingerprint equals a recomputation.
func checkShard(s *Store, where string, pred uint32, rs *relset) error {
	if rs == nil || rs.n == 0 {
		return nil
	}
	if len(rs.rows) != rs.n*rs.arity {
		return fmt.Errorf("%s: %d ids for %d rows of arity %d", where, len(rs.rows), rs.n, rs.arity)
	}
	var fp Fingerprint
	for n := 0; n < rs.n; n++ {
		row := rs.row(uint32(n))
		if got, ok := rs.find(row, hashVals(row)); !ok || got != uint32(n) {
			return fmt.Errorf("%s: membership table maps row %d to %d, %v", where, n, got, ok)
		}
		fp.add(s.syms.factFingerprint(pred, row))
	}
	if s.syms.preds[pred].temporal && fp != rs.fp {
		return fmt.Errorf("%s: maintained fingerprint %x != recomputed %x", where, rs.fp, fp)
	}
	if tbl := rs.idx.Load(); tbl != nil {
		for _, ix := range tbl.entries {
			fresh := (*idxTable)(nil).withMask(ix.mask, rs).entries[0]
			if len(ix.next) != rs.n || len(ix.first) != len(fresh.first) {
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
	arity := rs.arity
	if arity > 3 {
		arity = 3
	}
	for mask := uint32(1); mask < 1<<uint(arity); mask++ {
		seen := make(map[string]bool)
		for n := 0; n < rs.n; n++ {
			key := maskedKey(rs.row(uint32(n)), mask)
			if k := fmt.Sprint(key); seen[k] {
				continue
			} else {
				seen[k] = true
			}
			var want []uint32
			for c := 0; c < rs.n; c++ {
				if maskedEqual(rs.row(uint32(c)), mask, key) {
					want = append(want, uint32(c))
				}
			}
			if got := spanRows(rs.bucket(mask, key)); !slices.Equal(got, want) {
				return fmt.Errorf("%s mask %x key %v: index rows %v, linear scan %v (order must match insertion)",
					where, mask, key, got, want)
			}
		}
		absent := make([]uint32, len(maskedKey(rs.row(0), mask)))
		for i := range absent {
			absent[i] = uint32(len(s.syms.names)) + 7 // an id no symbol has
		}
		if got := spanRows(rs.bucket(mask, absent)); len(got) != 0 {
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
		name := s.syms.preds[i].name
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
// PropagateDelta — across the whole clone lineage, so shared COW shards,
// materialized copies (with the indexes they carried over), and
// delta-inserted tuples are all exercised — every index lookup equals a
// linear scan of the same relation, every carried index equals a rebuilt
// one, and every maintained fingerprint equals a recomputed one.
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
	type op struct{ Kind, A, B, T uint8 }
	f := func(ops []op) bool {
		e := mustEval(t, src)
		e.EnsureWindow(4)
		evs := []*Evaluator{e}
		for _, o := range ops {
			cur := evs[len(evs)-1]
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

// Property: the same holds under the nested-loop mode — the index
// structures are shared infrastructure, not mode-specific.
func TestIndexConsistencyAcrossModes(t *testing.T) {
	const src = `
p(T+1, X, Y) :- p(T, X, Z), e(Z, Y).
p(0, a0, a0).
e(a0, a1).
e(a1, a2).
e(a2, a0).
`
	for _, cfg := range []struct {
		name string
		mode JoinMode
	}{
		{"indexed", JoinIndexed},
		{"nested", JoinNestedLoop},
	} {
		e := mustEval(t, src)
		e.SetJoinMode(cfg.mode)
		e.EnsureWindow(16)
		f := ntfact("e", "a2", "a2")
		if ok, err := e.InsertBase(f); err != nil || !ok {
			t.Fatalf("%s: InsertBase = %v, %v", cfg.name, ok, err)
		}
		e.PropagateDelta([]ast.Fact{f})
		if err := checkStoreIndexes(e.store); err != nil {
			t.Errorf("%s: %v", cfg.name, err)
		}
	}
}
