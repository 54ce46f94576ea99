package inc

import (
	"testing"

	"tdd/internal/engine"
	"tdd/internal/parser"
	"tdd/internal/period"
	"tdd/internal/spec"
)

// specOf certifies a unit and returns its specification.
func specOf(t *testing.T, src string) *spec.Spec {
	t.Helper()
	prog, db, err := parser.ParseUnit(src)
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(prog, db)
	if err != nil {
		t.Fatal(err)
	}
	s, err := spec.Compute(e, testMaxWindow)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestApplyStartsFromOldPeriod: Apply certifies from the old period as a
// hint. On the cases a hint must survive — a batch that halves the period
// from below the old base, one whose period fails the hint and needs a
// larger window, wrong hints, and a batch that moves c past the old base
// — Apply's period, window, derived and firings equal Detect's on a clone
// of the same evaluator given the same batch, and those of Detect on a
// fresh evaluator of the fact union.
func TestApplyStartsFromOldPeriod(t *testing.T) {
	hint5 := specOf(t, "x(T+5) :- x(T).\nx(0).")
	hint4 := specOf(t, "x(T+4) :- x(T).\nx(0).")
	cases := []struct {
		name, rules, base, batch string
		old                      *spec.Spec // nil: the base's own specification
		want                     period.Period
	}{
		{"batch below the base shrinks p=2 to p=1", "p(T+2) :- p(T).", "p(0). q(5).", "p(1).", nil, period.Period{Base: 6, P: 1}},
		{"new period fails the hint and grows the window", "a(T+5) :- a(T).\nb(T+7) :- b(T).", "a(0).", "b(0).", nil, period.Period{Base: 1, P: 35}},
		{"hint 5 on a true period of 2", "even(T+2) :- even(T).", "even(0).", "tag(a).", hint5, period.Period{Base: 1, P: 2}},
		{"hint 4 on a true period of 2", "even(T+2) :- even(T).", "even(0).", "tag(a).", hint4, period.Period{Base: 1, P: 2}},
		{"batch moves c past the old base", "p(T+2) :- p(T).", "p(0).", "q(40).", nil, period.Period{Base: 41, P: 2}},
	}
	for _, tc := range cases {
		old := specOf(t, tc.rules+"\n"+tc.base)
		e := old.Evaluator()
		if tc.old != nil {
			old = tc.old
		}
		batch, err := parser.ParseDatabase(tc.batch)
		if err != nil {
			t.Fatal(err)
		}
		plain := e.Clone()
		got, _, err := Apply(e, old, testMaxWindow, batch.Facts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if _, err := Insert(plain, batch.Facts); err != nil {
			t.Fatal(err)
		}
		ref, _, err := period.Detect(plain, testMaxWindow)
		if err != nil {
			t.Fatal(err)
		}
		fresh := specOf(t, tc.rules+"\n"+tc.base+"\n"+tc.batch)
		type outcome struct {
			P                        period.Period
			Window, Derived, Firings int
		}
		of := func(p period.Period, e *engine.Evaluator) outcome {
			st := e.Stats()
			return outcome{p, e.Window(), st.Derived, st.Firings}
		}
		g, r, f := of(got.Period, e), of(ref, plain), of(fresh.Period, fresh.Evaluator())
		if g != r || g != f || g.P != tc.want {
			t.Errorf("%s: Apply %+v, Detect on the same evaluator %+v, fresh %+v; want period %v", tc.name, g, r, f, tc.want)
		}
	}
}
