package query

import (
	"slices"
	"testing"

	"tdd/internal/ast"
	"tdd/internal/baseline"
	"tdd/internal/parser"
)

// fuzzSeeds are the benchmark's eight warm_query texts (over this
// package's one-resort ski model) and the handwritten oracle queries.
var fuzzSeeds = []string{
	"plane(1000003, hunter)",
	"exists T (plane(T, hunter) & winter(T))",
	"exists T plane(T, nowhere)",
	"forall X (!resort(X) | exists T plane(T, X))",
	"exists X (resort(X) & !exists T plane(T, X))",
	"forall T (winter(T) | offseason(T))",
	"plane(T, hunter)",
	"plane(T, X)",
	"forall T (winter(T) | holiday(T) | offseason(T))",
	"!(winter(3) & holiday(3))",
	"exists X (resort(X) & !plane(1, X))",
	"forall T exists X (plane(T, X) | !plane(T, X))",
	"exists T (holiday(T) & (exists T (plane(T, hunter) & offseason(T))) & plane(T, hunter))",
	"exists X (resort(X) & forall X (resort(X) | !plane(0, X)))",
	"!nosuch(3, hunter)",
	"forall X (resort(X) | !exists T plane(T+1, X))",
	"resort(X) & !plane(0, X)",
	"winter(T) & exists T (holiday(T) & plane(T, X))",
}

// FuzzQueryEval: whatever parser.ParseQuery accepts compiles and
// evaluates without panicking, and agrees with the bottom-up oracle — as
// a truth value when closed, as an answer list (order included) when open
// — in the specification itself, which offers its state classes, and in
// the sliced structure, an embedding wrapper with a larger constant
// domain.
func FuzzQueryEval(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	fx := setup(f, skiSrc)
	if class, _ := fx.s.StateClasses(); class == nil {
		f.Fatal("the specification offers no state classes")
	}
	sts := structures(f, fx)
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 256 {
			t.Skip("oversized input")
		}
		q, err := parser.ParseQuery(src, fx.preds)
		if err != nil {
			return
		}
		// The oracle materializes every assignment of a subformula's free
		// variables: keep |domain|^variables small.
		tv, nv := ast.FreeVars(q)
		if binders(q)+len(tv)+len(nv) > 3 {
			t.Skip("too many variables for the oracle")
		}
		for _, name := range []string{"spec", "sliced"} {
			st := sts[name]
			want := baseline.Answers(st, q)
			if ast.Closed(q) {
				got, err := Eval(st, q)
				if err != nil {
					t.Fatalf("%s: %q: %v", name, src, err)
				}
				if got != (len(want) == 1) {
					t.Fatalf("%s: %q: eval=%v oracle=%v", name, src, got, !got)
				}
				continue
			}
			ans, err := Answers(st, q)
			if err != nil {
				t.Fatalf("%s: %q: %v", name, src, err)
			}
			if got := strs(ans); !slices.Equal(got, want) {
				t.Fatalf("%s: %q: answers %q, oracle %q", name, src, got, want)
			}
		}
	})
}

// binders counts the quantifiers of q.
func binders(q ast.Query) int {
	switch q := q.(type) {
	case ast.QNot:
		return binders(q.Sub)
	case ast.QAnd:
		return binders(q.Left) + binders(q.Right)
	case ast.QOr:
		return binders(q.Left) + binders(q.Right)
	case ast.QExists:
		return 1 + binders(q.Sub)
	case ast.QForall:
		return 1 + binders(q.Sub)
	}
	return 0
}
