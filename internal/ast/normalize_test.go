package ast

import (
	"strings"
	"testing"
)

func TestReduceTimeOnly(t *testing.T) {
	// p(T+1,X) :- p(T,X), r(X,W), q(T,W).   (W not in head)
	p, err := NewProgram([]Rule{{
		Head: TemporalAtom("p", tvar("T", 1), Var("X")),
		Body: []Atom{
			TemporalAtom("p", tvar("T", 0), Var("X")),
			NonTemporalAtom("r", Var("X"), Var("W")),
			TemporalAtom("q", tvar("T", 0), Var("W")),
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	red, err := ReduceTimeOnly(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(red.Rules) != 2 {
		t.Fatalf("rules after reduction: %v", red.Rules)
	}
	for _, r := range red.Rules {
		if r.TimeOnly() && !r.Reduced() {
			t.Errorf("time-only rule not reduced: %s", r)
		}
		if err := ValidateRule(r); err != nil {
			t.Errorf("reduced rule invalid: %v", err)
		}
		if err := ValidateForward(r); err != nil {
			t.Errorf("reduced rule not forward: %v", err)
		}
	}
}

func TestReduceTimeOnlyLeavesReducedAlone(t *testing.T) {
	p := skiProgram(t)
	red, err := ReduceTimeOnly(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(red.Rules) != len(p.Rules) {
		t.Errorf("reduction changed an already-reduced program: %d vs %d rules", len(red.Rules), len(p.Rules))
	}
}

func TestReduceTimeOnlyNonTemporalAux(t *testing.T) {
	// All moved literals non-temporal: the auxiliary predicate is
	// non-temporal.
	p, err := NewProgram([]Rule{{
		Head: TemporalAtom("p", tvar("T", 1), Var("X")),
		Body: []Atom{
			TemporalAtom("p", tvar("T", 0), Var("X")),
			NonTemporalAtom("r", Var("X"), Var("W")),
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	red, err := ReduceTimeOnly(p)
	if err != nil {
		t.Fatal(err)
	}
	var aux *PredInfo
	for name, info := range red.Preds {
		if strings.HasPrefix(name, "aux$") {
			i := info
			aux = &i
		}
	}
	if aux == nil {
		t.Fatal("no auxiliary predicate created")
	}
	if aux.Temporal {
		t.Errorf("auxiliary predicate should be non-temporal: %v", aux)
	}
	if aux.Arity != 1 {
		t.Errorf("auxiliary arity = %d, want 1 (just X)", aux.Arity)
	}
}
