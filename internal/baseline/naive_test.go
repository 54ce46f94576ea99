package baseline

import (
	"testing"

	"tdd/internal/ast"
	"tdd/internal/parser"
)

func TestNaiveTPStats(t *testing.T) {
	prog, db, err := parser.ParseUnit("even(T+2) :- even(T).\neven(0).")
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := NaiveTP(prog, db, 10)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Derived != 5 {
		t.Errorf("Derived = %d, want 5", stats.Derived)
	}
	// Naive iteration re-derives: far more firings than derivations.
	if stats.Firings <= stats.Derived {
		t.Errorf("Firings = %d, expected rederivation overhead above %d", stats.Firings, stats.Derived)
	}
	if stats.Iterations < 6 {
		t.Errorf("Iterations = %d, expected at least 6 (5 derivation rounds + fixpoint check)", stats.Iterations)
	}
}

func TestNaiveTPValidation(t *testing.T) {
	prog, db, err := parser.ParseUnit("p(T, X) :- q(T+1, X).\nq(0, a).")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := NaiveTP(prog, db, 5); err == nil {
		t.Error("non-forward program accepted")
	}
}

func TestNaiveTPGroundFactsBeyondWindow(t *testing.T) {
	prog, db, err := parser.ParseUnit("p(T+1) :- p(T).\np(0).\nq(40).")
	if err != nil {
		t.Fatal(err)
	}
	store, _, err := NaiveTP(prog, db, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !store.Has(ast.Fact{Pred: "q", Temporal: true, Time: 40}) {
		t.Error("database fact beyond the window lost")
	}
	if !store.Has(ast.Fact{Pred: "p", Temporal: true, Time: 10}) {
		t.Error("p(10) missing")
	}
	if store.Has(ast.Fact{Pred: "p", Temporal: true, Time: 11}) {
		t.Error("p(11) derived beyond the window")
	}
}
