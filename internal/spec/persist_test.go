package spec

import (
	"strings"
	"testing"

	"tdd/internal/ast"
	"tdd/internal/parser"
	"tdd/internal/query"
)

const persistSki = `
plane(T+7, X) :- plane(T, X), resort(X), offseason(T).
plane(T+2, X) :- plane(T, X), resort(X), winter(T).
offseason(T+9) :- offseason(T).
winter(T+9) :- winter(T).
winter(0..2).
offseason(3..8).
resort(hunter).
plane(0, hunter).
`

// export computes the specification of a unit and serializes it with the
// unit's signatures (program and database).
func export(t testing.TB, src string) (*Spec, []byte) {
	t.Helper()
	s := mustSpec(t, src)
	preds := make(map[string]ast.PredInfo)
	for k, v := range s.Evaluator().Program().Preds {
		preds[k] = v
	}
	for k, v := range s.Evaluator().Database().Preds {
		preds[k] = v
	}
	data, err := s.Export(preds)
	if err != nil {
		t.Fatal(err)
	}
	return s, data
}

func exportImport(t *testing.T, src string) (*Spec, *Loaded) {
	t.Helper()
	s, data := export(t, src)
	l, err := Import(data)
	if err != nil {
		t.Fatal(err)
	}
	return s, l
}

func TestExportImportRoundTrip(t *testing.T) {
	s, l := exportImport(t, persistSki)
	if l.Period != s.Period {
		t.Fatalf("period %v vs %v", l.Period, s.Period)
	}
	// Every ground atomic query agrees between the live spec and the
	// loaded one, far beyond the representative window.
	for tm := 0; tm <= 3*(s.Period.Base+s.Period.P); tm++ {
		f := tfact("plane", tm, "hunter")
		if s.HoldsFact(f) != l.HoldsFact(f) {
			t.Fatalf("disagreement at plane(%d, hunter)", tm)
		}
		g := ast.Fact{Pred: "winter", Temporal: true, Time: tm}
		if s.HoldsFact(g) != l.HoldsFact(g) {
			t.Fatalf("disagreement at winter(%d)", tm)
		}
	}
	// Non-temporal part survives too.
	if !l.HoldsFact(ast.Fact{Pred: "resort", Args: []string{"hunter"}}) {
		t.Error("resort(hunter) lost")
	}
}

func TestLoadedAnswersQueries(t *testing.T) {
	_, l := exportImport(t, persistSki)
	q, err := parser.ParseQuery("exists T (plane(T, hunter) & winter(T))", l.Preds())
	if err != nil {
		t.Fatal(err)
	}
	got, err := query.Eval(l, q)
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Error("expected a winter plane day")
	}
	open, err := parser.ParseQuery("plane(T, X)", l.Preds())
	if err != nil {
		t.Fatal(err)
	}
	ans, err := query.Answers(l, open)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) == 0 {
		t.Error("no answers from loaded specification")
	}
	for _, a := range ans {
		if a.NonTemporal["X"] != "hunter" {
			t.Errorf("unexpected answer %v", a)
		}
	}
}

func TestImportRejectsGarbage(t *testing.T) {
	// with wraps one fact in an otherwise well-formed specification that
	// declares p/1 temporal and r/1 non-temporal.
	with := func(fact string) string {
		return `{"version": 1, "base": 1, "period": 2, "preds": {
			"p": {"Name": "p", "Temporal": true, "Arity": 1},
			"r": {"Name": "r", "Temporal": false, "Arity": 1}},
			"facts": [{"Pred": "r", "Args": ["a"]}, ` + fact + `]}`
	}
	if _, err := Import([]byte(with(`{"Pred": "p", "Temporal": true, "Time": 2, "Args": ["a"]}`))); err != nil {
		t.Fatalf("well-formed specification rejected: %v", err)
	}
	cases := []struct{ name, data, want string }{
		{"not json", "{", ""},
		{"bad version", `{"version": 99, "base": 1, "period": 2}`, "version"},
		{"zero period", `{"version": 1, "base": 1, "period": 0}`, "malformed period"},
		{"negative base", `{"version": 1, "base": -1, "period": 2}`, "malformed period"},
		{"overflowing period", `{"version": 1, "base": 9223372036854775807, "period": 2}`, "malformed period"},
		{"fact beyond |T|", with(`{"Pred": "p", "Temporal": true, "Time": 9, "Args": ["a"]}`), "fact 1 (p(9, a)): time 9 beyond"},
		{"negative time", with(`{"Pred": "p", "Temporal": true, "Time": -1, "Args": ["a"]}`), "fact 1 (p(-1, a)): negative time"},
		{"undeclared predicate", with(`{"Pred": "q", "Args": ["zzz"]}`), `fact 1 (q(zzz)): predicate "q" is not declared`},
		{"wrong arity", with(`{"Pred": "p", "Temporal": true, "Time": 0, "Args": ["a", "b"]}`), "fact 1 (p(0, a, b)): contradicts the declared signature p/1 (temporal)"},
		{"wrong sort", with(`{"Pred": "r", "Temporal": true, "Time": 0, "Args": ["a"]}`), "fact 1 (r(0, a)): contradicts the declared signature r/1 (non-temporal)"},
		{"empty constant", with(`{"Pred": "r", "Args": [""]}`), "argument 1 is the empty constant"},
	}
	for _, c := range cases {
		_, err := Import([]byte(c.data))
		if err == nil {
			t.Errorf("%s: accepted", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not say %q", c.name, err, c.want)
		}
	}
}

func TestExportIsReadableJSON(t *testing.T) {
	s := mustSpec(t, "even(T+2) :- even(T).\neven(0).")
	data, err := s.Export(map[string]ast.PredInfo{"even": {Name: "even", Temporal: true}})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"version"`, `"base"`, `"period"`, `"even"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("missing %s in export:\n%s", want, data)
		}
	}
}
