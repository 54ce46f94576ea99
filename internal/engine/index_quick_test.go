package engine

// Property tests for the bound-column hash indexes (store.go): whatever
// interleaving of window growth, copy-on-write cloning, base insertion,
// and delta propagation produced a store, every index lookup must return
// exactly what a linear scan of the same relation returns — same tuples,
// same insertion order — and the incremental cardinality counters the
// planner reads must match a recount.

import (
	"fmt"
	"testing"
	"testing/quick"

	"tdd/internal/ast"
)

// checkStoreIndexes verifies every shard of the store against the
// linear-scan oracle, for every column mask up to three columns, and
// recounts the per-predicate cardinality counters.
func checkStoreIndexes(s *Store) error {
	check := func(where string, rs *relset) error {
		if rs == nil || len(rs.list) == 0 {
			return nil
		}
		arity := len(rs.list[0])
		if arity > 3 {
			arity = 3
		}
		for mask := uint32(1); mask < 1<<uint(arity); mask++ {
			seen := make(map[string]bool)
			for _, tup := range rs.list {
				key := appendMaskKey(nil, mask, tup)
				if seen[string(key)] {
					continue
				}
				seen[string(key)] = true
				var want [][]string
				for _, cand := range rs.list {
					if string(appendMaskKey(nil, mask, cand)) == string(key) {
						want = append(want, cand)
					}
				}
				got := rs.bucket(mask, key)
				if len(got) != len(want) {
					return fmt.Errorf("%s mask %x key %q: index has %d tuples, linear scan %d",
						where, mask, key, len(got), len(want))
				}
				for i := range got {
					if tupleKey(got[i]) != tupleKey(want[i]) {
						return fmt.Errorf("%s mask %x key %q: index[%d]=%v, scan[%d]=%v (order must match insertion)",
							where, mask, key, i, got[i], i, want[i])
					}
				}
			}
			if got := rs.bucket(mask, []byte("no-such-value\x00")); len(got) != 0 {
				return fmt.Errorf("%s mask %x: lookup of absent key returned %d tuples", where, mask, len(got))
			}
		}
		return nil
	}
	for pred, byTime := range s.temporal {
		facts, states := 0, 0
		for tm, rs := range byTime {
			if err := check(fmt.Sprintf("%s@%d", pred, tm), rs); err != nil {
				return err
			}
			facts += rs.size()
			states++
		}
		f, st := s.card(pred)
		if f != facts || st != states {
			return fmt.Errorf("%s: cardinality counters (facts=%d states=%d) != recount (facts=%d states=%d)",
				pred, f, st, facts, states)
		}
	}
	for pred, rs := range s.nonTemporal {
		if err := check(pred, rs); err != nil {
			return err
		}
		if f, _ := s.card(pred); f != rs.size() {
			return fmt.Errorf("%s: cardinality counter %d != recount %d", pred, f, rs.size())
		}
	}
	return nil
}

// Property: after any interleaving of EnsureWindow / Clone / InsertBase /
// PropagateDelta — across the whole clone lineage, so shared COW shards,
// materialized copies, and delta-inserted tuples are all exercised —
// every index lookup equals a linear scan of the same relation.
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
