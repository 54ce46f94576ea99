package tdd_test

// The public slice report. That a cold DB's sliced asks agree with the
// full model is FuzzModel's check (internal/server/model_test.go): every
// cold closed ask there is judged by naive T_P over the whole program.

import (
	"strings"
	"testing"

	"tdd"
)

// TestSliceForReportsProperSlices spot-checks the public slice report on
// a program built to have separable components.
func TestSliceForReportsProperSlices(t *testing.T) {
	db, err := tdd.OpenUnit(`
a(T+1) :- a(T).
b(T+2) :- b(T), a(T).
c(T+3) :- c(T).
a(0). b(0). c(0).
`)
	if err != nil {
		t.Fatal(err)
	}
	info, err := db.SliceFor("exists T a(T)")
	if err != nil {
		t.Fatal(err)
	}
	if !info.Proper || info.Rules != 1 || len(info.Preds) != 1 {
		t.Fatalf("a slice: %+v", info)
	}
	info, err = db.SliceFor("exists T b(T)")
	if err != nil {
		t.Fatal(err)
	}
	if !info.Proper || info.Rules != 2 {
		t.Fatalf("b slice: %+v", info)
	}
	info, err = db.SliceFor("exists T (a(T) & b(T) & c(T))")
	if err != nil {
		t.Fatal(err)
	}
	if info.Proper {
		t.Fatalf("a∧b∧c slice should be the whole program: %+v", info)
	}
	// The graph renders and mentions every predicate.
	g := db.Graph()
	for _, p := range []string{"a", "b", "c"} {
		if !strings.Contains(g, p) {
			t.Fatalf("Graph() missing %s:\n%s", p, g)
		}
	}
}
