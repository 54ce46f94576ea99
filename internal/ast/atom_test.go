package ast

import "testing"

func TestAtomString(t *testing.T) {
	cases := []struct {
		atom Atom
		want string
	}{
		{TemporalAtom("plane", TemporalTerm{Var: "T", Depth: 7}, Var("X")), "plane(T+7, X)"},
		{TemporalAtom("even", TemporalTerm{Depth: 4}), "even(4)"},
		{NonTemporalAtom("resort", Const("hunter")), "resort(hunter)"},
		{NonTemporalAtom("halt"), "halt"},
		{NonTemporalAtom("edge", Var("X"), Var("Y")), "edge(X, Y)"},
	}
	for _, c := range cases {
		if got := c.atom.String(); got != c.want {
			t.Errorf("got %q, want %q", got, c.want)
		}
	}
}

func TestAtomGroundDepth(t *testing.T) {
	a := TemporalAtom("p", TemporalTerm{Depth: 3}, Const("a"))
	if !a.Ground() || a.Depth() != 3 {
		t.Errorf("ground temporal atom misclassified: ground=%v depth=%d", a.Ground(), a.Depth())
	}
	b := TemporalAtom("p", TemporalTerm{Var: "T"}, Const("a"))
	if b.Ground() {
		t.Error("atom with temporal variable reported ground")
	}
	c := NonTemporalAtom("r", Const("a"))
	if !c.Ground() || c.Depth() != -1 {
		t.Errorf("non-temporal atom misclassified: ground=%v depth=%d", c.Ground(), c.Depth())
	}
	d := NonTemporalAtom("r", Var("X"))
	if d.Ground() {
		t.Error("atom with variable reported ground")
	}
}

func TestAtomEqualClone(t *testing.T) {
	a := TemporalAtom("p", TemporalTerm{Var: "T", Depth: 1}, Var("X"), Const("c"))
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone not equal to original")
	}
	b.Time.Depth = 2
	if a.Equal(b) {
		t.Error("mutating clone's time affected equality check")
	}
	if a.Time.Depth != 1 {
		t.Error("clone shares Time pointer with original")
	}
	c := a.Clone()
	c.Args[0] = Const("d")
	if a.Args[0] != Var("X") {
		t.Error("clone shares Args with original")
	}
	if a.Equal(NonTemporalAtom("p", Var("X"), Const("c"))) {
		t.Error("temporal atom equal to non-temporal atom")
	}
}

func TestFactRoundTrip(t *testing.T) {
	a := TemporalAtom("plane", TemporalTerm{Depth: 12}, Const("hunter"))
	f := FactOf(a)
	if !f.Temporal || f.Time != 12 || f.Pred != "plane" || f.Args[0] != "hunter" {
		t.Fatalf("FactOf = %+v", f)
	}
	if !f.Atom().Equal(a) {
		t.Errorf("round trip mismatch: %v vs %v", f.Atom(), a)
	}
	n := NonTemporalAtom("resort", Const("hunter"))
	g := FactOf(n)
	if g.Temporal {
		t.Error("non-temporal fact marked temporal")
	}
	if !g.Atom().Equal(n) {
		t.Errorf("round trip mismatch: %v vs %v", g.Atom(), n)
	}
}

func TestFactOfPanicsOnNonGround(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FactOf(NonTemporalAtom("r", Var("X")))
}

func TestSortFacts(t *testing.T) {
	fs := []Fact{
		{Pred: "b", Temporal: true, Time: 2, Args: []string{"x"}},
		{Pred: "b", Temporal: true, Time: 1, Args: []string{"y"}},
		{Pred: "a", Temporal: false, Args: []string{"z"}},
		{Pred: "b", Temporal: true, Time: 1, Args: []string{"x"}},
	}
	SortFacts(fs)
	want := []string{"a(z)", "b(1, x)", "b(1, y)", "b(2, x)"}
	for i, f := range fs {
		if f.String() != want[i] {
			t.Errorf("fs[%d] = %s, want %s", i, f, want[i])
		}
	}
}
