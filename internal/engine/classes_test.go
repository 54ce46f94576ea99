package engine_test

// The state classes a store assigns as states close: exact, dense and
// kept fresh across re-sweeps and ingests. scripts/ci.sh names these
// tests explicitly.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"tdd/internal/ast"
	"tdd/internal/engine"
	"tdd/internal/parser"
	"tdd/internal/spec"
	"tdd/internal/workload"
)

// checkClasses requires the classes of time points 0..len(class)-1 to be
// exact — equal ids exactly where StateKey renders equal states, and each
// state StateEqual to its class's first member — and dense, with first
// the least member of each class.
func checkClasses(st *engine.Store, class, first []uint32) error {
	byKey := make(map[string]uint32)
	keyOf := make(map[uint32]string)
	next := 0
	for tm, c := range class {
		switch {
		case int(c) > next:
			return fmt.Errorf("state %d has class %d before class %d has a member", tm, c, next)
		case int(c) == next:
			if next >= len(first) || int(first[c]) != tm {
				return fmt.Errorf("class %d first appears at %d, but first lists %v", c, tm, first)
			}
			next++
		}
		k := st.StateKey(tm)
		if d, ok := byKey[k]; ok && d != c {
			return fmt.Errorf("state %d equals a state of class %d but has class %d", tm, d, c)
		}
		if o, ok := keyOf[c]; ok && o != k {
			return fmt.Errorf("state %d is in class %d with an unequal state", tm, c)
		}
		byKey[k], keyOf[c] = c, k
		if !st.StateEqual(tm, int(first[c])) {
			return fmt.Errorf("state %d is not StateEqual to its class's first member %d", tm, first[c])
		}
	}
	if next != len(first) {
		return fmt.Errorf("%d classes among %d time points, but first lists %d", next, len(class), len(first))
	}
	return nil
}

// checkOffered checks the classes the store offers for 0..n-1, if any,
// and reports whether it offered them.
func checkOffered(t *testing.T, what string, st *engine.Store, n int) bool {
	t.Helper()
	class, first := st.StateClasses(n)
	if class == nil {
		return false
	}
	if len(class) != n {
		t.Fatalf("%s: %d classes offered for %d time points", what, len(class), n)
	}
	if err := checkClasses(st, class, first); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	return true
}

// checkWindow re-classes the evaluator's window if it must and checks
// every class of it.
func checkWindow(t *testing.T, what string, e *engine.Evaluator) {
	t.Helper()
	if n := len(e.Classes()); n != e.Window()+1 {
		t.Fatalf("%s: Classes covers %d time points, window %d", what, n, e.Window())
	}
	if !checkOffered(t, what, e.Store(), e.Window()+1) {
		t.Fatalf("%s: no classes offered right after Classes", what)
	}
}

// partition renders which of the time points 0..n-1 hold equal states.
func partition(st *engine.Store, n int) string {
	first := make(map[string]int)
	out := make([]int, n)
	for tm := range out {
		k := st.StateKey(tm)
		if _, ok := first[k]; !ok {
			first[k] = tm
		}
		out[tm] = first[k]
	}
	return fmt.Sprint(out)
}

// ingestBatches draws up to three temporal and up to three non-temporal
// facts from the database's own, each with one argument swapped for
// another constant of the database and a temporal one moved to a random
// time point of the window 0..m.
func ingestBatches(db *ast.Database, m int, rng *rand.Rand) (temporal, nonTemporal []ast.Fact) {
	var consts []string
	for _, f := range db.Facts {
		consts = append(consts, f.Args...)
	}
	for _, i := range rng.Perm(len(db.Facts)) {
		g := db.Facts[i]
		g.Args = slices.Clone(g.Args)
		if len(g.Args) > 0 {
			g.Args[rng.Intn(len(g.Args))] = consts[rng.Intn(len(consts))]
		}
		switch {
		case g.Temporal && len(temporal) < 3:
			g.Time = rng.Intn(m + 1)
			temporal = append(temporal, g)
		case !g.Temporal && len(nonTemporal) < 3:
			nonTemporal = append(nonTemporal, g)
		}
	}
	return temporal, nonTemporal
}

// TestStateClassesExact: on the repeat batteries' programs (the ski
// model, reachability, a counter and the randgen corpus, whose
// NonTemporalHeads shape re-sweeps closed states) and on an 8-bit
// counter, the classes a certified specification offers for its
// representatives and the classes of its whole window are exact after
// the cold evaluation; and on a clone, after inserting temporal facts,
// after propagating them, after an ingest of non-temporal facts, whose
// every change to a state is propagation's, and after extending the
// window past the ingest, any classes the store still offers are exact.
// A stale axis must not be offered: the battery requires non-temporal
// ingests that changed which states are equal.
func TestStateClassesExact(t *testing.T) {
	progs := repeatPrograms(t)
	rules, facts := workload.Counter(8)
	prog, db, err := parser.ParseUnit(rules + facts)
	if err != nil {
		t.Fatal(err)
	}
	progs = append(progs, repeatProgram{name: "counter(8)", prog: prog, db: db})
	rng := rand.New(rand.NewSource(5))
	certified, swept, changed := 0, 0, 0
	for _, pg := range progs {
		e, err := engine.New(pg.prog.Clone(), pg.db.Clone())
		if err != nil {
			t.Fatalf("%s: %v", pg.name, err)
		}
		s, err := spec.Compute(e, 1<<12)
		if err != nil {
			if pg.optional {
				continue
			}
			t.Fatalf("%s: %v", pg.name, err)
		}
		certified++
		if e.Stats().Sweeps > 0 {
			swept++
		}
		n := s.NumRepresentatives()
		if !checkOffered(t, pg.name+", certified", e.Store(), n) {
			t.Fatalf("%s: a cold specification offers no classes", pg.name)
		}
		checkWindow(t, pg.name+", certified window", e)

		c, m := e.Clone(), e.Window()
		temporal, nonTemporal := ingestBatches(pg.db, m, rng)
		for i, batch := range [][]ast.Fact{temporal, nonTemporal} {
			what := fmt.Sprintf("%s, ingest %d %v", pg.name, i+1, batch)
			before := partition(c.Store(), n)
			checkWindow(t, what+" (before)", c)
			for _, f := range batch {
				if _, err := c.InsertBase(f); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
			}
			checkOffered(t, what+" (inserted)", c.Store(), n)
			c.PropagateDelta(batch)
			checkOffered(t, what, c.Store(), n)
			if i == 1 && partition(c.Store(), n) != before {
				changed++
			}
			checkWindow(t, what, c)
		}
		c.EnsureWindow(2 * m)
		checkOffered(t, pg.name+", extended after ingest", c.Store(), 2*m+1)
		checkWindow(t, pg.name+", extended after ingest", c)
	}
	t.Logf("%d programs certified, %d re-swept, %d non-temporal ingests changed which states are equal", certified, swept, changed)
	if certified < 200 || swept == 0 || changed == 0 {
		t.Errorf("%d certified, %d re-swept, %d changed by a non-temporal ingest: the battery checks too little", certified, swept, changed)
	}
}
