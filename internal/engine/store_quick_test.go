package engine

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"tdd/internal/ast"
)

// Property: the store is an exact set — after inserting an arbitrary bag
// of facts, membership holds exactly for the inserted ones and Len counts
// the distinct ones.
func TestStoreIsAnExactSet(t *testing.T) {
	type probe struct {
		Pred     uint8
		Temporal bool
		Time     uint8
		A, B     uint8
	}
	f := func(bag []probe) bool {
		s := NewStore()
		want := map[string]bool{}
		for _, p := range bag {
			fact := ast.Fact{
				Pred:     fmt.Sprintf("p%d", p.Pred%4),
				Temporal: p.Temporal,
				Args:     []string{fmt.Sprintf("a%d", p.A%3), fmt.Sprintf("b%d", p.B%3)},
			}
			if p.Temporal {
				fact.Time = int(p.Time % 8)
			}
			added := s.Insert(fact)
			key := fact.String()
			if added == want[key] {
				return false // Insert must report new-ness exactly
			}
			want[key] = true
		}
		if s.Len() != len(want) {
			return false
		}
		for _, p := range bag {
			fact := ast.Fact{
				Pred:     fmt.Sprintf("p%d", p.Pred%4),
				Temporal: p.Temporal,
				Args:     []string{fmt.Sprintf("a%d", p.A%3), fmt.Sprintf("b%d", p.B%3)},
			}
			if p.Temporal {
				fact.Time = int(p.Time % 8)
			}
			if !s.Has(fact) {
				return false
			}
			// A near-miss must not be present unless separately inserted.
			miss := fact
			miss.Args = []string{"zz", "zz"}
			if s.Has(miss) && !want[miss.String()] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: StateKey is permutation-invariant — the canonical state
// depends only on the set of facts at a time point, not insertion order.
func TestStateKeyPermutationInvariant(t *testing.T) {
	f := func(perm []uint8) bool {
		facts := []ast.Fact{
			tfact("p", 3, "a"),
			tfact("p", 3, "b"),
			tfact("q", 3, "a", "b"),
			tfact("r", 3),
		}
		s1 := NewStore()
		for _, fa := range facts {
			s1.Insert(fa)
		}
		s2 := NewStore()
		// Insert in an order driven by the random permutation seed.
		order := []int{0, 1, 2, 3}
		for i, p := range perm {
			j := int(p) % len(order)
			k := i % len(order)
			order[j], order[k] = order[k], order[j]
		}
		for _, i := range order {
			s2.Insert(facts[i])
		}
		return s1.StateKey(3) == s2.StateKey(3) && s1.StateHash(3) == s2.StateHash(3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestStoreIterationOrderDeterministic is the regression test for the
// map-order bug: relset iteration (all, bucket, State, Snapshot) must
// follow insertion order, including after a copy-on-write materialize,
// so join enumeration and answer rendering cannot reshuffle between
// runs.
func TestStoreIterationOrderDeterministic(t *testing.T) {
	ins := [][]string{{"c", "1"}, {"a", "2"}, {"b", "3"}, {"a", "1"}, {"z", "0"}}
	collect := func(rs *relset) [][]string {
		var got [][]string
		rs.all(func(tup []string) bool { got = append(got, tup); return true })
		return got
	}

	rs := newRelset()
	for _, tup := range ins {
		rs.insert(tup)
	}
	if got := collect(rs); !reflect.DeepEqual(got, ins) {
		t.Fatalf("all() order = %v, want insertion order %v", got, ins)
	}
	if got := collect(rs.materialize()); !reflect.DeepEqual(got, ins) {
		t.Fatalf("materialized all() order = %v, want insertion order %v", got, ins)
	}

	s := NewStore()
	for _, tup := range ins {
		s.Insert(ast.Fact{Pred: "e", Args: tup})
	}
	// Writing through a clone materializes the shared shard; the order
	// must survive.
	c := s.Clone()
	c.Insert(ast.Fact{Pred: "e", Args: []string{"m", "9"}})
	var got [][]string
	c.nt("e").all(func(tup []string) bool { got = append(got, tup); return true })
	want := append(append([][]string{}, ins...), []string{"m", "9"})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-COW all() order = %v, want %v", got, want)
	}
}
