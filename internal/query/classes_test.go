package query

// Per-class evaluation and the folding of dead atoms, against the
// reference evaluator. scripts/ci.sh names these tests explicitly.

import (
	"slices"
	"testing"

	"tdd/internal/ast"
	"tdd/internal/baseline"
)

// agree requires Eval (closed) or Answers (open) to give what
// baseline.Answers gives for src in st.
func agree(t *testing.T, f fixture, st Structure, src string) {
	t.Helper()
	q := f.query(t, src)
	want := baseline.Answers(st, q)
	if ast.Closed(q) {
		got, err := Eval(st, q)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if got != (len(want) == 1) {
			t.Errorf("%s: Eval = %v, oracle %v", src, got, !got)
		}
		return
	}
	ans, err := Answers(st, q)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	if got := strs(ans); !slices.Equal(got, want) {
		t.Errorf("%s: answers %q, oracle %q", src, got, want)
	}
}

// classed requires the specification to offer classes, fewer than its
// representatives.
func classed(t *testing.T, f fixture) {
	t.Helper()
	class, first := f.s.StateClasses()
	if class == nil || len(first) >= len(class) {
		t.Fatalf("the specification offers %d classes for %d representatives; the test needs repeats", len(first), len(class))
	}
}

// offsetSrc has states 0..4, all {z} but state 3, which also holds
// plane(aspen): two classes, with first members 0 and 3. A variable read
// at offset 1 must be decided at every representative — at 2, where
// plane(T+1, aspen) holds — not at the first members alone.
const offsetSrc = `
z(T+1) :- z(T).
z(0).
plane(3, aspen).
resort(hunter).
`

// TestClassesOnlyAtOffsetZero: quantifiers and free temporal variables
// read at offset 0 are decided per class, and ones read at any other
// offset per representative, agreeing with the reference either way.
func TestClassesOnlyAtOffsetZero(t *testing.T) {
	f := setup(t, offsetSrc)
	classed(t, f)
	for _, src := range []string{
		"forall X (resort(X) | !exists T plane(T+1, X))",
		"exists T (z(T) & plane(T+1, aspen))",
		"forall T (z(T) & !plane(T+1, aspen))",
		"exists T plane(T, aspen)",
		"forall T (z(T) & !plane(T, aspen))",
		"plane(T+1, X)",
		"z(T) & !plane(T+1, aspen)",
		"z(T) & !plane(T, aspen)",
		"z(T) & exists S plane(S+1, aspen)",
		"plane(S+1, X) & z(T)",
	} {
		agree(t, f, f.s, src)
	}
}

// limitSrc alternates between {a, b, c} and {d} from time point 0, past
// a database fact at 1, so later representatives copy several answers.
const limitSrc = `
p(T+2, X) :- p(T, X).
p(0, a). p(0, b). p(0, c).
p(1, d).
`

// TestAnswersLimitPerClassPrefix: a per-class enumeration copies a first
// member's answers to the later members of its class, and a limited call
// is still a prefix of the unlimited one at every limit — with a free
// temporal and a non-temporal variable inside the per-class one, and
// with a shifted variable first, which is enumerated per representative.
func TestAnswersLimitPerClassPrefix(t *testing.T) {
	f := setup(t, limitSrc)
	classed(t, f)
	for _, src := range []string{"p(T, X)", "p(S, X) & p(T, Y)", "p(S+1, X) & p(T, X)", "p(T, X) & !p(T, a)"} {
		q := f.query(t, src)
		all, err := Answers(f.s, q)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := strs(all), baseline.Answers(f.s, q); !slices.Equal(got, want) {
			t.Fatalf("%s: answers %q, oracle %q", src, got, want)
		}
		for k := 1; k <= len(all); k++ {
			lim, err := AnswersLimit(f.s, q, k)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := strs(lim), strs(all[:k]); !slices.Equal(got, want) {
				t.Fatalf("%s: limit %d gives %q, want the prefix %q", src, k, got, want)
			}
		}
	}
}

// TestFoldDeadAtoms: an atom whose predicate or constant the store has
// never seen is false, and binding folds every subformula it decides —
// a quantifier over a constant body is that constant, ∃ false and ∀
// true over an empty domain. The evaluations agree with the reference,
// on a model with an empty constant domain and on the ski model, and a
// query the dead atoms decide is a constant at its root.
func TestFoldDeadAtoms(t *testing.T) {
	for _, tc := range []struct {
		src      string
		constant []string // decided by dead atoms alone
		other    []string
	}{
		{
			src: "even(T+2) :- even(T).\neven(0).\n",
			constant: []string{
				"forall X nosuch(X)", "exists X nosuch(X)", "exists X !nosuch(X)",
				"forall T nosuch(T)", "exists T !nosuch(T, aspen)", "!nosuch(3) & !(exists T nosuch(T))",
			},
			other: []string{"even(T) | nosuch(T)", "!nosuch(T)", "even(T) & forall X nosuch(X)", "nosuch(X)"},
		},
		{
			src: skiSrc,
			constant: []string{
				"exists T plane(T, nowhere)", "forall X (nosuch(X) | plane(3, nowhere))",
				"exists X nosuch(X)", "forall T (nosuch(T) | !plane(T, nowhere))", "!(exists T plane(T, nowhere))",
			},
			other: []string{
				"exists T (plane(T, nowhere) | winter(T))", "forall X (!resort(X) | exists T (plane(T, X) & !nosuch(T)))",
				"plane(T, X) & !plane(T, nowhere)", "plane(T, nowhere) | holiday(T)",
			},
		},
	} {
		f := setup(t, tc.src)
		for _, src := range append(slices.Clone(tc.constant), tc.other...) {
			agree(t, f, f.s, src)
		}
		for _, src := range tc.constant {
			c, err := Compile(f.query(t, src))
			if err != nil {
				t.Fatal(err)
			}
			r := c.prog.bind(f.s)
			if op := r.p.nodes[r.p.root].op; op != opTrue && op != opFalse {
				t.Errorf("%s: not folded to a constant", src)
			}
		}
	}
}
