package parser

import (
	"strings"
	"testing"

	"tdd/internal/ast"
)

func skiPreds(t *testing.T) map[string]ast.PredInfo {
	t.Helper()
	p, err := ParseProgram(skiSrc)
	if err != nil {
		t.Fatal(err)
	}
	return p.Preds
}

func TestParseQueryGroundAtom(t *testing.T) {
	q, err := ParseQuery("plane(10, hunter)", skiPreds(t))
	if err != nil {
		t.Fatal(err)
	}
	a, ok := q.(ast.QAtom)
	if !ok {
		t.Fatalf("query type %T", q)
	}
	if a.Atom.Time == nil || a.Atom.Time.Depth != 10 || a.Atom.Args[0] != ast.Const("hunter") {
		t.Errorf("atom = %v", a.Atom)
	}
	if !ast.Closed(q) {
		t.Error("ground atom should be closed")
	}
}

func TestParseQueryOpen(t *testing.T) {
	q, err := ParseQuery("plane(T, X)", skiPreds(t))
	if err != nil {
		t.Fatal(err)
	}
	tv, nv := ast.FreeVars(q)
	if len(tv) != 1 || tv[0] != "T" {
		t.Errorf("temporal free vars = %v", tv)
	}
	if len(nv) != 1 || nv[0] != "X" {
		t.Errorf("non-temporal free vars = %v", nv)
	}
}

func TestParseQueryConnectives(t *testing.T) {
	q, err := ParseQuery("exists T (plane(T, hunter) & winter(T))", skiPreds(t))
	if err != nil {
		t.Fatal(err)
	}
	ex, ok := q.(ast.QExists)
	if !ok || ex.Sort != ast.SortTemporal {
		t.Fatalf("query = %v (%T)", q, q)
	}
	if _, ok := ex.Sub.(ast.QAnd); !ok {
		t.Errorf("body = %T, want QAnd", ex.Sub)
	}
	if !ast.Closed(q) {
		t.Error("should be closed")
	}
}

func TestParseQueryForallNot(t *testing.T) {
	q, err := ParseQuery("forall X (!resort(X) | exists T plane(T, X))", skiPreds(t))
	if err != nil {
		t.Fatal(err)
	}
	fa, ok := q.(ast.QForall)
	if !ok || fa.Sort != ast.SortNonTemporal {
		t.Fatalf("query = %v", q)
	}
	or, ok := fa.Sub.(ast.QOr)
	if !ok {
		t.Fatalf("sub = %T", fa.Sub)
	}
	if _, ok := or.Left.(ast.QNot); !ok {
		t.Errorf("left = %T, want QNot", or.Left)
	}
}

func TestParseQueryKeywordConnectives(t *testing.T) {
	q, err := ParseQuery("plane(0, hunter) and not winter(0) or holiday(0)", skiPreds(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := q.(ast.QOr); !ok {
		t.Fatalf("or should bind loosest: %T", q)
	}
}

func TestParseQueryMultiVarQuantifier(t *testing.T) {
	q, err := ParseQuery("exists T, X plane(T, X)", skiPreds(t))
	if err != nil {
		t.Fatal(err)
	}
	outer, ok := q.(ast.QExists)
	if !ok || outer.Var != "T" || outer.Sort != ast.SortTemporal {
		t.Fatalf("outer = %v", q)
	}
	inner, ok := outer.Sub.(ast.QExists)
	if !ok || inner.Var != "X" || inner.Sort != ast.SortNonTemporal {
		t.Fatalf("inner = %v", outer.Sub)
	}
}

func TestParseQuerySortFromSignature(t *testing.T) {
	// Nothing in the query text says T is temporal; the signature does.
	q, err := ParseQuery("exists T plane(T, hunter)", skiPreds(t))
	if err != nil {
		t.Fatal(err)
	}
	if q.(ast.QExists).Sort != ast.SortTemporal {
		t.Error("T not inferred temporal from plane's signature")
	}
}

func TestParseQueryUnknownPredicate(t *testing.T) {
	// Unknown predicates are allowed (they are simply empty) and inferred
	// from the text.
	q, err := ParseQuery("mystery(3, a)", skiPreds(t))
	if err != nil {
		t.Fatal(err)
	}
	a := q.(ast.QAtom).Atom
	if a.Time == nil || a.Time.Depth != 3 {
		t.Errorf("mystery not inferred temporal: %v", a)
	}
}

func TestParseQueryErrors(t *testing.T) {
	preds := skiPreds(t)
	cases := []struct {
		src  string
		want string
	}{
		{"plane(10)", "declared with"},
		{"plane(10, hunter) &", "expected a query"},
		{"exists plane(0, hunter)", "expected variable"},
		{"exists Y plane(0, hunter)", "does not occur"},
		{"(plane(0, hunter)", "expected ')'"},
		{"plane(0, hunter) plane(1, hunter)", "unexpected"},
		{"exists T resort(T+1)", "declared @nontemporal"},
	}
	for _, c := range cases {
		_, err := ParseQuery(c.src, preds)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ParseQuery(%q) err = %v, want contains %q", c.src, err, c.want)
		}
	}
}

func TestQueryStringRoundTrip(t *testing.T) {
	preds := skiPreds(t)
	for _, src := range []string{
		"plane(10, hunter)",
		"exists T (plane(T, hunter) & winter(T))",
		"forall X (!resort(X) | exists T plane(T, X))",
		"!(winter(3) | holiday(3))",
	} {
		q, err := ParseQuery(src, preds)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		q2, err := ParseQuery(q.String(), preds)
		if err != nil {
			t.Fatalf("reparse %q: %v", q.String(), err)
		}
		if q.String() != q2.String() {
			t.Errorf("round trip: %q vs %q", q.String(), q2.String())
		}
	}
}
