package ast

import (
	"reflect"
	"testing"
)

// buildQ: exists T (plane(T,X) & !winter(T)) | resort(X)
func buildQ() Query {
	planeAtom := TemporalAtom("plane", TemporalTerm{Var: "T"}, Var("X"))
	winterAtom := TemporalAtom("winter", TemporalTerm{Var: "T"})
	resortAtom := NonTemporalAtom("resort", Var("X"))
	return QOr{
		Left: QExists{Var: "T", Sort: SortTemporal, Sub: QAnd{
			Left:  QAtom{Atom: planeAtom},
			Right: QNot{Sub: QAtom{Atom: winterAtom}},
		}},
		Right: QAtom{Atom: resortAtom},
	}
}

func TestFreeVars(t *testing.T) {
	q := buildQ()
	tv, nv := FreeVars(q)
	if len(tv) != 0 {
		t.Errorf("temporal free vars = %v, want none (T is bound)", tv)
	}
	if !reflect.DeepEqual(nv, []string{"X"}) {
		t.Errorf("non-temporal free vars = %v, want [X]", nv)
	}
	if Closed(q) {
		t.Error("query with free X reported closed")
	}
	closed := QForall{Var: "X", Sort: SortNonTemporal, Sub: q}
	if !Closed(closed) {
		t.Error("fully quantified query reported open")
	}
}

func TestFreeVarsShadowing(t *testing.T) {
	// exists X p(0, X) & q(X): the conjunct's X is free.
	q := QAnd{
		Left:  QExists{Var: "X", Sort: SortNonTemporal, Sub: QAtom{Atom: TemporalAtom("p", TemporalTerm{}, Var("X"))}},
		Right: QAtom{Atom: NonTemporalAtom("q", Var("X"))},
	}
	_, nv := FreeVars(q)
	if !reflect.DeepEqual(nv, []string{"X"}) {
		t.Errorf("free vars = %v, want [X]", nv)
	}
}

func TestQueryAtoms(t *testing.T) {
	atoms := QueryAtoms(buildQ())
	if len(atoms) != 3 {
		t.Fatalf("atoms = %v", atoms)
	}
	if atoms[0].Pred != "plane" || atoms[1].Pred != "winter" || atoms[2].Pred != "resort" {
		t.Errorf("atom order = %v", atoms)
	}
}

func TestQueryString(t *testing.T) {
	got := buildQ().String()
	want := "(exists T (plane(T, X) & (!winter(T)))) | resort(X)"
	if got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestSortString(t *testing.T) {
	if SortTemporal.String() != "temporal" || SortNonTemporal.String() != "non-temporal" {
		t.Error("Sort.String misrendered")
	}
}

func TestFormatAnswer(t *testing.T) {
	got := FormatAnswer(map[string]int{"T": 3, "S": 1}, map[string]string{"X": "hunter", "Y": "New York"})
	want := "S=1, T=3, X=hunter, Y='New York'"
	if got != want {
		t.Errorf("FormatAnswer = %q, want %q", got, want)
	}
	if got := FormatAnswer(nil, nil); got != "" {
		t.Errorf("empty answer = %q", got)
	}
}
