package lint

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"tdd/internal/ast"
	"tdd/internal/randgen"
)

// TestSortConflictCode covers TDL105, which no textual program can reach
// (the parser's sort resolution rejects every surface form as TDL100
// first): a programmatically built rule whose time variable doubles as a
// data argument.
func TestSortConflictCode(t *testing.T) {
	r := ast.Rule{
		Head: ast.TemporalAtom("p", ast.TemporalTerm{Var: "T", Depth: 1}, ast.Var("T")),
		Body: []ast.Atom{ast.TemporalAtom("p", ast.TemporalTerm{Var: "T"}, ast.Var("X"))},
	}
	prog := &ast.Program{Rules: []ast.Rule{r}}
	res := Run(prog, nil, Options{})
	found := false
	for _, d := range res.Diagnostics {
		if d.Code == "TDL105" {
			found = true
			if d.Severity != Error {
				t.Errorf("TDL105 severity = %v, want error", d.Severity)
			}
		}
	}
	if !found {
		t.Fatalf("no TDL105 diagnostic in %+v", res.Diagnostics)
	}
}

const dirtyUnit = "p(T+1) :- p(T), q(T).\np(0).\ne(a).\n"

func codes(res Result) []string {
	var out []string
	for _, d := range res.Diagnostics {
		out = append(out, d.Code)
	}
	return out
}

func TestSuppressListedCodes(t *testing.T) {
	src := "% tddlint:ignore TDL001 TDL003\n" + dirtyUnit
	res := RunSource(src, Options{})
	for _, d := range res.Diagnostics {
		if d.Code == "TDL001" || d.Code == "TDL003" {
			t.Errorf("suppressed code %s still reported", d.Code)
		}
	}
	// The unused-predicate finding was not listed and must survive.
	if got := codes(res); len(got) != 1 || got[0] != "TDL002" {
		t.Errorf("codes = %v, want [TDL002]", got)
	}
	if res.Suppressed != 2 {
		t.Errorf("Suppressed = %d, want 2", res.Suppressed)
	}
}

func TestSuppressBareIgnoresAllCodesOnLine(t *testing.T) {
	// A bare marker (no codes) on the rule's own line silences everything
	// anchored there — but not the findings on other lines.
	src := "p(T+1) :- p(T), q(T). % tddlint:ignore\np(0).\ne(a).\n"
	res := RunSource(src, Options{})
	if got := codes(res); len(got) != 1 || got[0] != "TDL002" {
		t.Errorf("codes = %v, want [TDL002]", got)
	}
}

func TestSuppressParseError(t *testing.T) {
	// The unclosed atom is reported at end of input (line 3), so the
	// marker sits on line 2: a suppression covers its own and the next
	// line.
	src := "p(T+1) :- p(T\n% tddlint:ignore TDL100\n"
	res := RunSource(src, Options{})
	if len(res.Diagnostics) != 0 {
		t.Errorf("diagnostics = %v, want none (TDL100 suppressed)", res.Diagnostics)
	}
	if res.Suppressed != 1 {
		t.Errorf("Suppressed = %d, want 1", res.Suppressed)
	}
}

func TestSuppressRequiresCommentContext(t *testing.T) {
	// The marker only counts inside a comment; a plain mention in a
	// different line's text must not silence anything. (Constants cannot
	// spell the marker in valid programs, so fabricate the context by
	// putting the marker on a line that is not a comment — the scanner
	// requires '%' or "//" before it.)
	res := RunSource(dirtyUnit, Options{})
	if len(res.Diagnostics) != 3 {
		t.Fatalf("baseline should have 3 findings, got %v", res.Diagnostics)
	}
}

func TestSeverityJSONRoundTrip(t *testing.T) {
	for _, s := range []Severity{Info, Warning, Error} {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var back Severity
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if back != s {
			t.Errorf("round trip %v -> %s -> %v", s, b, back)
		}
	}
	var bad Severity
	if err := json.Unmarshal([]byte(`"loud"`), &bad); err == nil {
		t.Error("unknown severity name should not unmarshal")
	}
}

func TestResultHelpers(t *testing.T) {
	res := Result{Diagnostics: []Diagnostic{
		{Code: "TDL101", Severity: Error, RuleIdx: 0},
		{Code: "TDL003", Severity: Warning, RuleIdx: 2, DeleteSafe: true},
		{Code: "TDL005", Severity: Warning, RuleIdx: 1, DeleteSafe: true},
		{Code: "TDL002", Severity: Info, RuleIdx: -1},
	}}
	e, w, i := res.Counts()
	if e != 1 || w != 2 || i != 1 {
		t.Errorf("Counts = %d,%d,%d want 1,2,1", e, w, i)
	}
	if res.Warnings() != 3 {
		t.Errorf("Warnings = %d, want 3 (errors count)", res.Warnings())
	}
	if got := res.DeleteSafeRules(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("DeleteSafeRules = %v, want [1 2]", got)
	}
}

func TestFormatPrefixesName(t *testing.T) {
	res := RunSource("p(T+1) :- p(T\n", Options{})
	out := res.Format("bad.tdd")
	if !strings.HasPrefix(out, "bad.tdd:") || !strings.Contains(out, "TDL100") {
		t.Errorf("Format = %q", out)
	}
}

// TestLintNeverErrorsOnEmpty locks the contract that every input yields a
// Result: empty source, nil program, nil database.
func TestLintNeverErrorsOnEmpty(t *testing.T) {
	if got := RunSource("", Options{}); len(got.Diagnostics) != 0 {
		t.Errorf("empty source: %v", got.Diagnostics)
	}
	if got := Run(nil, nil, Options{}); len(got.Diagnostics) != 0 {
		t.Errorf("nil program: %v", got.Diagnostics)
	}
}

// TestLintDeterministic lints each of 300 random programs eight times and
// demands identical results. The delete-safety guard picks which flagged
// rule to withdraw among equally deep heads; picking by map order made
// the DeleteSafe flags of a third of these programs change between runs.
func TestLintDeterministic(t *testing.T) {
	opts := randgen.Default()
	opts.Facts = 2
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randgen.New(rng, opts)
		prog, err := g.Program(rng)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		db, err := g.Database(rng)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		first := Run(prog, db, Options{})
		for i := 1; i < 8; i++ {
			if got := Run(prog, db, Options{}); !reflect.DeepEqual(got, first) {
				t.Fatalf("seed %d: run %d differs from run 0 (delete-safe rules %v, then %v):\n%s\nvs\n%s\nprogram:\n%s",
					seed, i, first.DeleteSafeRules(), got.DeleteSafeRules(), got.Format(""), first.Format(""), prog)
			}
		}
	}
}
