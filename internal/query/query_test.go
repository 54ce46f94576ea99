package query

import (
	"errors"
	"testing"

	"tdd/internal/ast"
	"tdd/internal/engine"
	"tdd/internal/parser"
	"tdd/internal/spec"
)

const skiSrc = `
plane(T+7, X) :- plane(T, X), resort(X), offseason(T).
plane(T+2, X) :- plane(T, X), resort(X), winter(T).
plane(T+1, X) :- plane(T, X), resort(X), holiday(T).
offseason(T+10) :- offseason(T).
winter(T+10) :- winter(T).
holiday(T+10) :- holiday(T).
winter(0). winter(1). winter(2). winter(3).
offseason(4). offseason(5). offseason(6). offseason(7). offseason(8). offseason(9).
holiday(1).
resort(hunter).
plane(0, hunter).
`

type fixture struct {
	s     *spec.Spec
	preds map[string]ast.PredInfo
	eval  *engine.Evaluator
}

func setup(t testing.TB, src string) fixture {
	t.Helper()
	prog, db, err := parser.ParseUnit(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	e, err := engine.New(prog, db)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	s, err := spec.Compute(e, 1<<20)
	if err != nil {
		t.Fatalf("spec: %v", err)
	}
	preds := make(map[string]ast.PredInfo)
	for k, v := range prog.Preds {
		preds[k] = v
	}
	for k, v := range db.Preds {
		preds[k] = v
	}
	return fixture{s: s, preds: preds, eval: e}
}

func (f fixture) query(t testing.TB, src string) ast.Query {
	t.Helper()
	q, err := parser.ParseQuery(src, f.preds)
	if err != nil {
		t.Fatalf("ParseQuery(%q): %v", src, err)
	}
	return q
}

func TestEvalGroundAtoms(t *testing.T) {
	f := setup(t, skiSrc)
	cases := map[string]bool{
		"plane(0, hunter)":    true,
		"plane(2, hunter)":    true,
		"plane(3, hunter)":    false,
		"plane(1000, hunter)": false,
		"resort(hunter)":      true,
		"resort(aspen)":       false,
		"winter(21)":          true,
		"winter(25)":          false,
	}
	for src, want := range cases {
		got, err := Eval(f.s, f.query(t, src))
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if got != want {
			t.Errorf("%q = %v, want %v", src, got, want)
		}
	}
}

func TestEvalConnectives(t *testing.T) {
	f := setup(t, skiSrc)
	cases := map[string]bool{
		"plane(0, hunter) & winter(0)":                     true,
		"plane(0, hunter) & winter(5)":                     false,
		"plane(3, hunter) | plane(4, hunter)":              true,
		"!plane(3, hunter)":                                true,
		"!(plane(0, hunter) & winter(0))":                  false,
		"exists T (plane(T, hunter) & winter(T))":          true,
		"exists T (plane(T, hunter) & holiday(T))":         true,
		"exists X (resort(X) & plane(0, X))":               true,
		"forall T (winter(T) | holiday(T) | offseason(T))": true,
		"forall T winter(T)":                               false,
		"forall X (!resort(X) | exists T plane(T, X))":     true,
	}
	for src, want := range cases {
		got, err := Eval(f.s, f.query(t, src))
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if got != want {
			t.Errorf("%q = %v, want %v", src, got, want)
		}
	}
}

func TestEvalOpenQueryRejected(t *testing.T) {
	f := setup(t, skiSrc)
	_, err := Eval(f.s, f.query(t, "plane(T, hunter)"))
	if !errors.Is(err, ErrOpenQuery) {
		t.Errorf("err = %v, want ErrOpenQuery", err)
	}
}

func TestAnswersOpenTemporal(t *testing.T) {
	// The paper's even example: answers to even(X) are X=0 plus the
	// rewrite rule — here, representatives {0, 2} of T = {0, 1, 2}.
	f := setup(t, "even(T+2) :- even(T).\neven(0).")
	ans, err := Answers(f.s, f.query(t, "even(T)"))
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	for _, a := range ans {
		got = append(got, a.Temporal["T"])
	}
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("answers = %v, want [0 2]", got)
	}
}

func TestAnswersMixedSorts(t *testing.T) {
	f := setup(t, skiSrc)
	ans, err := Answers(f.s, f.query(t, "plane(T, X) & holiday(T)"))
	if err != nil {
		t.Fatal(err)
	}
	// Within representatives, planes on holidays: day 11 is holiday
	// (11 mod 10 = 1) and has a plane; day 1 is a holiday without one.
	for _, a := range ans {
		if a.NonTemporal["X"] != "hunter" {
			t.Errorf("unexpected resort %v", a)
		}
		tm := a.Temporal["T"]
		if tm%10 != 1 {
			t.Errorf("answer T=%d is not a holiday", tm)
		}
	}
	if len(ans) == 0 {
		t.Error("expected at least one answer")
	}
}

func TestAnswersClosedQuery(t *testing.T) {
	f := setup(t, skiSrc)
	ans, err := Answers(f.s, f.query(t, "plane(0, hunter)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 1 || len(ans[0].Temporal) != 0 || len(ans[0].NonTemporal) != 0 {
		t.Errorf("answers = %v, want one empty answer", ans)
	}
	ans, err = Answers(f.s, f.query(t, "plane(3, hunter)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 0 {
		t.Errorf("answers = %v, want none", ans)
	}
}

func TestAnswerString(t *testing.T) {
	a := Answer{Temporal: map[string]int{"T": 11}, NonTemporal: map[string]string{"X": "hunter"}}
	if got := a.String(); got != "T=11, X=hunter" {
		t.Errorf("String = %q", got)
	}
}

func TestWindowGroundAtoms(t *testing.T) {
	f := setup(t, "even(T+2) :- even(T).\neven(0).")
	w := Window{Eval: f.eval, M: 50}
	got, err := Eval(w, f.query(t, "even(40)"))
	if err != nil || !got {
		t.Errorf("even(40) over window = %v, %v", got, err)
	}
	// Beyond the window the baseline (unsoundly, by design) answers no.
	got, err = Eval(w, f.query(t, "even(60)"))
	if err != nil || got {
		t.Errorf("even(60) over window = %v, %v (expected false beyond M)", got, err)
	}
}

func TestWindowDomains(t *testing.T) {
	f := setup(t, skiSrc)
	w := Window{Eval: f.eval, M: 5}
	if w.TimePoints() != 6 {
		t.Errorf("TimePoints = %d", w.TimePoints())
	}
	if rep, ok := w.NormalizeTime(5); rep != 5 || !ok {
		t.Errorf("NormalizeTime(5) = %d, %v", rep, ok)
	}
	if _, ok := w.NormalizeTime(6); ok {
		t.Error("NormalizeTime(6) inside a window of 0..5")
	}
	cd := w.ConstantDomain()
	if len(cd) != 1 || cd[0] != "hunter" {
		t.Errorf("ConstantDomain = %v", cd)
	}
}

func TestAnswersLimit(t *testing.T) {
	f := setup(t, skiSrc)
	all, err := Answers(f.s, f.query(t, "winter(T)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(all) < 4 {
		t.Fatalf("expected several winter representatives, got %d", len(all))
	}
	two, err := AnswersLimit(f.s, f.query(t, "winter(T)"), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(two) != 2 {
		t.Fatalf("limited answers = %d, want 2", len(two))
	}
	// Limit larger than the answer count returns everything.
	many, err := AnswersLimit(f.s, f.query(t, "winter(T)"), len(all)+100)
	if err != nil {
		t.Fatal(err)
	}
	if len(many) != len(all) {
		t.Errorf("over-limit answers = %d, want %d", len(many), len(all))
	}
	// The prefix matches the unlimited enumeration order.
	for i := range two {
		if two[i].Temporal["T"] != all[i].Temporal["T"] {
			t.Errorf("limited answer %d diverges: %v vs %v", i, two[i], all[i])
		}
	}
}
