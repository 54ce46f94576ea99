package engine

import (
	"fmt"
	"testing"

	"tdd/internal/parser"
)

// Micro-benchmarks for the design choices DESIGN.md calls out: the
// bound-column indexes on relations, store insert/lookup on interned
// rows, state fingerprints, and copy-on-write forks.

func benchEval(b *testing.B, src string) *Evaluator {
	b.Helper()
	prog, db, err := parser.ParseUnit(src)
	if err != nil {
		b.Fatal(err)
	}
	e, err := New(prog, db)
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// chainGraph builds a reachability TDD over a long chain with shortcut
// edges — joins here are index-sensitive: edge(X, Y) binds Y, and the
// recursive literal path(K, Y, Z) hits the first-column index.
func chainGraph(n int) string {
	src := `
path(K, X, X) :- node(X), null(K).
path(K+1, X, Z) :- edge(X, Y), path(K, Y, Z).
null(0).
`
	for i := 0; i < n; i++ {
		src += fmt.Sprintf("node(n%d).\n", i)
		if i+1 < n {
			src += fmt.Sprintf("edge(n%d, n%d).\n", i, i+1)
		}
		if i+5 < n {
			src += fmt.Sprintf("edge(n%d, n%d).\n", i, i+5)
		}
	}
	return src
}

// BenchmarkJoinIndexed measures the evaluator on an index-friendly join
// order (the recursive literal's first argument is bound by the time it
// is matched).
func BenchmarkJoinIndexed(b *testing.B) {
	for _, n := range []int{20, 40, 80} {
		src := chainGraph(n)
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := benchEval(b, src)
				e.EnsureWindow(n)
			}
		})
	}
}

func BenchmarkStoreInsertLookup(b *testing.B) {
	b.Run("insert", func(b *testing.B) {
		s := NewStore()
		for i := 0; i < b.N; i++ {
			s.Insert(tfact("p", i%1000, "a", "b"))
		}
	})
	b.Run("hit", func(b *testing.B) {
		s := NewStore()
		for i := 0; i < 1000; i++ {
			s.Insert(tfact("p", i, "a", "b"))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Has(tfact("p", i%1000, "a", "b"))
		}
	})
	b.Run("miss", func(b *testing.B) {
		s := NewStore()
		for i := 0; i < 1000; i++ {
			s.Insert(tfact("p", i, "a", "b"))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Has(tfact("p", i%1000, "a", "c"))
		}
	})
}

// benchRows interns side constants and returns them: side*side distinct
// binary rows for the store benchmarks below.
func benchRows(s *Store, side int) []uint32 {
	ids := make([]uint32, side)
	for i := range ids {
		ids[i] = s.intern(fmt.Sprintf("c%d", i))
	}
	return ids
}

// BenchmarkStoreRows measures the evaluator-side write path on interned
// rows: new facts (amortized growth of rows, table and one maintained
// index), and the duplicate probe that dominates a fixpoint.
func BenchmarkStoreRows(b *testing.B) {
	const side = 64
	fill := func(s *Store, ids []uint32, p uint32) {
		row := make([]uint32, 2)
		for i := range ids {
			for j := range ids {
				row[0], row[1] = ids[i], ids[j]
				s.insertRow(p, 0, row)
			}
		}
	}
	b.Run("insert", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := NewStore()
			ids := benchRows(s, side)
			p := s.internPred("p", 2, true)
			s.insertRow(p, 0, ids[:2])
			s.at(p, 0).bucket(1, ids[:1], nil)
			fill(s, ids, p)
		}
	})
	b.Run("duplicate", func(b *testing.B) {
		s := NewStore()
		ids := benchRows(s, side)
		p := s.internPred("p", 2, true)
		fill(s, ids, p)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fill(s, ids, p)
		}
	})
}

// BenchmarkStateFingerprint reads the maintained fingerprint of a
// 400-fact state and, for scale, renders the same state's exact key.
func BenchmarkStateFingerprint(b *testing.B) {
	s := NewStore()
	for i := 0; i < 200; i++ {
		s.Insert(tfact("p", 7, fmt.Sprintf("c%d", i), "x"))
		s.Insert(tfact("q", 7, fmt.Sprintf("d%d", i)))
		s.Insert(tfact("p", 9, fmt.Sprintf("c%d", i), "x"))
		s.Insert(tfact("q", 9, fmt.Sprintf("d%d", i)))
	}
	b.Run("fingerprint", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if s.StateFingerprint(7) != s.StateFingerprint(9) {
				b.Fatal("equal states, different fingerprints")
			}
		}
	})
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !s.StateEqual(7, 9) {
				b.Fatal("equal states compare unequal")
			}
		}
	})
	b.Run("StateKey", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.StateKey(7)
		}
	})
}

// BenchmarkCloneThenWrite is one ingestion step seen from the store: fork
// a model of 64 states × 256 facts, insert one new fact into one state
// (forking an overlay of that shard), drop the fork.
func BenchmarkCloneThenWrite(b *testing.B) {
	s := NewStore()
	ids := benchRows(s, 16)
	p := s.internPred("p", 2, true)
	fresh := s.intern("fresh")
	row := make([]uint32, 2)
	for t := 0; t < 64; t++ {
		for i := range ids {
			for j := range ids {
				row[0], row[1] = ids[i], ids[j]
				s.insertRow(p, t, row)
			}
		}
		s.at(p, t).bucket(1, ids[:1], nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := s.Clone()
		row[0], row[1] = ids[i%16], fresh
		if _, added := c.insertRow(p, i%64, row); !added {
			b.Fatal("insert into the fork was a duplicate")
		}
	}
}
