package spec

import (
	"strings"
	"testing"

	"tdd/internal/ast"
	"tdd/internal/engine"
	"tdd/internal/parser"
)

func mustSpec(t testing.TB, src string) *Spec {
	t.Helper()
	prog, db, err := parser.ParseUnit(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	e, err := engine.New(prog, db)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	s, err := Compute(e, 1<<20)
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	return s
}

func tfact(pred string, time int, args ...string) ast.Fact {
	return ast.Fact{Pred: pred, Temporal: true, Time: time, Args: args}
}

func TestEvenSpec(t *testing.T) {
	// The paper's worked example: even(T+2) :- even(T). even(0).
	// Our minimal base is 1 (we require the base beyond the database
	// depth), so T = {0, 1, 2} and W = {3 -> 1}; the paper's hand-built
	// T = {0, 1}, W = {2 -> 0} is the same model rendered with base 0.
	s := mustSpec(t, "even(T+2) :- even(T).\neven(0).")
	if s.Period.P != 2 {
		t.Fatalf("period = %v", s.Period)
	}
	// Query even(4): rewrite to representative, find it in B.
	if !s.HoldsFact(tfact("even", 4)) {
		t.Error("even(4) should hold")
	}
	// Query even(3): rewrites to even(1), not in B.
	if s.HoldsFact(tfact("even", 3)) {
		t.Error("even(3) should not hold")
	}
	if !s.HoldsFact(tfact("even", 1000000)) {
		t.Error("even(1000000) should hold")
	}
	if s.HoldsFact(tfact("even", 999999)) {
		t.Error("even(999999) should not hold")
	}
}

func TestRewriteNormalForms(t *testing.T) {
	s := mustSpec(t, "even(T+2) :- even(T).\neven(0).")
	reps := s.Representatives()
	if len(reps) != s.NumRepresentatives() {
		t.Fatal("representative count mismatch")
	}
	for _, r := range reps {
		if s.Rewrite(r) != r {
			t.Errorf("representative %d not a normal form", r)
		}
	}
	for _, tt := range []int{0, 1, 5, 17, 100, 12345} {
		r := s.Rewrite(tt)
		if r >= s.NumRepresentatives() {
			t.Errorf("Rewrite(%d) = %d not a representative", tt, r)
		}
		if s.Rewrite(r) != r {
			t.Errorf("Rewrite not idempotent at %d", tt)
		}
	}
}

func TestPrimaryDatabase(t *testing.T) {
	s := mustSpec(t, "even(T+2) :- even(T).\neven(0).\nlabel(x).")
	b := s.PrimaryDatabase()
	// B: label(x), even(0), even(2) (representatives are 0,1,2).
	want := []string{"label(x)", "even(0, )", "even(2, )"}
	_ = want
	if len(b) != 3 {
		t.Fatalf("B = %v", b)
	}
	if b[0].Pred != "label" {
		t.Errorf("non-temporal part first, got %v", b[0])
	}
	reps, facts := s.Size()
	if reps != 3 || facts != 3 {
		t.Errorf("Size = (%d, %d), want (3, 3)", reps, facts)
	}
}

func TestSpecString(t *testing.T) {
	s := mustSpec(t, "even(T+2) :- even(T).\neven(0).")
	out := s.String()
	for _, want := range []string{"T = {0..2}", "W = {3 -> 1}", "even(0)", "even(2)"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q:\n%s", want, out)
		}
	}
}
