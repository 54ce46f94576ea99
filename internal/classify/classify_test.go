package classify

import (
	"reflect"
	"strings"
	"testing"

	"tdd/internal/ast"
	"tdd/internal/parser"
	"tdd/internal/period"
	"tdd/internal/progan"
)

func mustProg(t *testing.T, src string) *ast.Program {
	t.Helper()
	p, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return p
}

const skiRules = `
plane(T+7, X) :- plane(T, X), resort(X), offseason(T).
plane(T+2, X) :- plane(T, X), resort(X), winter(T).
plane(T+1, X) :- plane(T, X), resort(X), holiday(T).
offseason(T+365) :- offseason(T).
winter(T+365) :- winter(T).
holiday(T+365) :- holiday(T).
`

const pathRules = `
path(K, X, X) :- node(X), null(K).
path(K+1, X, Z) :- edge(X, Y), path(K, Y, Z).
path(K+1, X, Y) :- path(K, X, Y).
`

func TestDepGraphAndSCC(t *testing.T) {
	p := mustProg(t, `
a(X) :- b(X), c(X).
b(X) :- a(X).
c(X) :- d(X).
c(X) :- c(X).
`)
	if succ := progan.Analyze(p, nil).Pred("a").Uses; !reflect.DeepEqual(succ, []string{"b", "c"}) {
		t.Errorf("succ(a) = %v", succ)
	}
	if big := MutualSCCs(p); len(big) != 1 || !reflect.DeepEqual(big[0], []string{"a", "b"}) {
		t.Errorf("big SCCs = %v", big)
	}
	if MutualRecursionFree(p) {
		t.Error("a<->b mutual recursion not detected")
	}
}

func TestSCCOrderCalleesFirst(t *testing.T) {
	p := mustProg(t, `
a(X) :- b(X).
b(X) :- c(X).
c(X) :- d(X).
`)
	pos := map[string]int{}
	for i, comp := range progan.Analyze(p, nil).SCCs {
		pos[comp.Preds[0]] = i
	}
	if !(pos["d"] < pos["c"] && pos["c"] < pos["b"] && pos["b"] < pos["a"]) {
		t.Errorf("SCC order not callees-first: %v", pos)
	}
}

func TestLevels(t *testing.T) {
	p := mustProg(t, skiRules)
	levels, ok := Levels(p)
	if !ok {
		t.Fatal("ski rules reported mutually recursive")
	}
	if levels["resort"] != 0 || levels["winter"] != 1 || levels["plane"] != 2 {
		t.Errorf("levels = %v", levels)
	}
	if _, ok := Levels(mustProg(t, "a(X) :- b(X).\nb(X) :- a(X).")); ok {
		t.Error("Levels accepted mutual recursion")
	}
}

func TestInflationaryPath(t *testing.T) {
	// The graph example is inflationary thanks to its copy rule.
	ok, err := Inflationary(mustProg(t, pathRules))
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("path program should be inflationary")
	}
}

func TestInflationarySkiIsNot(t *testing.T) {
	// The paper: the ski rules are not inflationary — take a database with
	// planes but empty seasons.
	ok, witness, err := InflationaryWitness(mustProg(t, skiRules))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("ski rules should not be inflationary")
	}
	if witness != "offseason" && witness != "plane" && witness != "winter" && witness != "holiday" {
		t.Errorf("witness = %q", witness)
	}
}

func TestInflationaryDropCopyRule(t *testing.T) {
	// Without the copy rule, path is not inflationary.
	src := `
path(K, X, X) :- node(X), null(K).
path(K+1, X, Z) :- edge(X, Y), path(K, Y, Z).
`
	ok, witness, err := InflationaryWitness(mustProg(t, src))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("copy-free path program should not be inflationary")
	}
	if witness != "path" {
		t.Errorf("witness = %q, want path", witness)
	}
}

func TestInflationaryMultiPredicate(t *testing.T) {
	// Both derived temporal predicates must satisfy the condition.
	src := `
p(T+1, X) :- p(T, X).
q(T+1, X) :- q(T, X), gate(X).
`
	ok, witness, err := InflationaryWitness(mustProg(t, src))
	if err != nil {
		t.Fatal(err)
	}
	if ok || witness != "q" {
		t.Errorf("ok=%v witness=%q, want false/q", ok, witness)
	}
}

func TestInflationaryRejectsConstants(t *testing.T) {
	src := "p(T+1, X) :- p(T, X), flag(X, on).\n"
	if _, err := Inflationary(mustProg(t, src)); err == nil {
		t.Error("rule constants accepted by the inflationary test")
	}
}

func TestInflationaryNonTemporalDerivedIgnored(t *testing.T) {
	src := `
p(T+1, X) :- p(T, X).
ever(X) :- p(T, X).
`
	ok, err := Inflationary(mustProg(t, src))
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("non-temporal derived predicate should not block the test")
	}
}

func TestKindOf(t *testing.T) {
	p := mustProg(t, skiRules+pathRules+`
happy(T, X) :- happy(T, Y), friend(X, Y).
base(X) :- node(X).
`)
	kinds := map[string]RuleKind{}
	for _, r := range p.Rules {
		kinds[r.String()] = KindOf(r)
	}
	checks := map[string]RuleKind{
		"plane(T+7, X) :- plane(T, X), resort(X), offseason(T).": KindTimeOnly,
		"offseason(T+365) :- offseason(T).":                      KindTimeOnly,
		"path(K, X, X) :- node(X), null(K).":                     KindNonRecursive,
		"path(K+1, X, Z) :- edge(X, Y), path(K, Y, Z).":          KindOther,
		"path(K+1, X, Y) :- path(K, X, Y).":                      KindTimeOnly,
		"happy(T, X) :- happy(T, Y), friend(X, Y).":              KindDataOnly,
		"base(X) :- node(X).":                                    KindNonRecursive,
	}
	for rule, want := range checks {
		got, ok := kinds[rule]
		if !ok {
			t.Fatalf("rule %q not found in %v", rule, kinds)
		}
		if got != want {
			t.Errorf("KindOf(%s) = %v, want %v", rule, got, want)
		}
	}
}

func TestMultiSeparable(t *testing.T) {
	ok, reason := MultiSeparable(mustProg(t, skiRules))
	if !ok {
		t.Errorf("ski rules should be multi-separable: %s", reason)
	}
	ok, reason = MultiSeparable(mustProg(t, pathRules))
	if ok {
		t.Error("path rules should not be multi-separable")
	}
	if !strings.Contains(reason, "neither time-only nor data-only") {
		t.Errorf("reason = %q", reason)
	}
	ok, reason = MultiSeparable(mustProg(t, "a(T+1, X) :- b(T, X).\nb(T+1, X) :- a(T, X)."))
	if ok {
		t.Error("mutually recursive rules should not be multi-separable")
	}
	if !strings.Contains(reason, "mutual recursion") {
		t.Errorf("reason = %q", reason)
	}
}

func TestSeparableStricter(t *testing.T) {
	// Paper: the ski example is multi-separable but NOT separable.
	ok, reason := Separable(mustProg(t, skiRules))
	if ok {
		t.Error("ski rules should not be separable in the sense of [7]")
	}
	if !strings.Contains(reason, "temporal body literals") {
		t.Errorf("reason = %q", reason)
	}
	// A single-temporal-literal program is separable.
	ok, _ = Separable(mustProg(t, "even(T+2) :- even(T)."))
	if !ok {
		t.Error("even program should be separable")
	}
}

func TestIPeriodEven(t *testing.T) {
	ip, err := IPeriod(mustProg(t, "even(T+2) :- even(T)."), nil)
	if err != nil {
		t.Fatal(err)
	}
	if ip.P != 2 {
		t.Errorf("I-period = %v, want p=2", ip)
	}
}

func TestIPeriodLcm(t *testing.T) {
	src := `
a(T+2) :- a(T).
b(T+3) :- b(T).
`
	ip, err := IPeriod(mustProg(t, src), nil)
	if err != nil {
		t.Fatal(err)
	}
	if ip.P != 6 {
		t.Errorf("I-period = %v, want p=6 (lcm of 2 and 3)", ip)
	}
}

func TestIPeriodDatabaseIndependence(t *testing.T) {
	// A scaled-down ski program (year length 3, jumps +2/+3) keeps the
	// Theorem 6.3 atom space tractable: g = 3, so the space is
	// plane x3 + winter x3 + offseason x3 + resort = 10 atoms.
	prog := mustProg(t, `
plane(T+3, X) :- plane(T, X), resort(X), offseason(T).
plane(T+2, X) :- plane(T, X), resort(X), winter(T).
offseason(T+3) :- offseason(T).
winter(T+3) :- winter(T).
`)
	ip, err := IPeriod(prog, &IPeriodOptions{MaxAtoms: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Verify the claimed I-period against several concrete databases,
	// including phase-rich ones (winter at every residue) that defeat
	// time-0-only skeleton seeding.
	for _, dbSrc := range []string{
		"plane(0, hunter). resort(hunter). winter(0).",
		"plane(3, hunter). plane(9, aspen). resort(hunter). resort(aspen). winter(0). offseason(2). offseason(4).",
		"resort(hunter).", // no planes at all
		"plane(0, hunter). plane(1, aspen). resort(aspen). winter(0). winter(1). winter(2).",
		"plane(0, a). plane(1, a). resort(a). winter(0). offseason(1). offseason(2).",
	} {
		db, err := parser.ParseDatabase(dbSrc)
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyIPeriod(prog, db, ip, 1<<16); err != nil {
			t.Errorf("database %q: %v", dbSrc, err)
		}
	}
}

// TestIPeriodSkeletonsSpanTermDepth is randgen Default() seed 478. Its
// deepest temporal term, p2(T+2, X), has depth 2 while the certificate
// width (period.Lookback) is 1: skeletons seeded only at time 0 never hold
// p0(1), so the construction claimed a base one state short of the
// model's (b = 4 with c = 2).
func TestIPeriodSkeletonsSpanTermDepth(t *testing.T) {
	prog := mustProg(t, `
p0(T+2) :- p2(T+1, W), p2(T+2, X), e1(X).
p0(T) :- p2(T, W).
p1(T+2) :- p0(T+1), e0(X), e1(Y).
p0(T) :- p2(T, X), e0(X).
p1(T+1) :- p0(T+1), p2(T, Y), e1(X).
`)
	ip, err := IPeriod(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	db, err := parser.ParseDatabase("e0(c0). e0(c2). e1(c0). p0(0). p0(2). p1(0). p1(1). p2(2, c1).")
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyIPeriod(prog, db, ip, 1<<16); err != nil {
		t.Fatalf("I-period %v: %v", ip, err)
	}
}

func TestIPeriodRejects(t *testing.T) {
	if _, err := IPeriod(mustProg(t, pathRules), nil); err == nil {
		t.Error("IPeriod accepted a non-multi-separable program")
	}
	if _, err := IPeriod(mustProg(t, "p(T+1, X) :- p(T, X), flag(X, on)."), nil); err == nil {
		t.Error("IPeriod accepted rule constants")
	}
	big := `
p(T+1, X, Y, Z) :- p(T, X, Y, Z), e(X, Y), e(Y, Z).
`
	if _, err := IPeriod(mustProg(t, big), &IPeriodOptions{MaxAtoms: 8}); err == nil {
		t.Error("IPeriod accepted an atom space above the cap")
	}
}

func TestCombineAndLcm(t *testing.T) {
	got, err := Combine(pp(3, 4), pp(5, 6))
	if err != nil {
		t.Fatal(err)
	}
	if got.Base != 5 || got.P != 12 {
		t.Errorf("Combine = %v", got)
	}
	if _, err := lcm(1<<30, (1<<30)+1); err == nil {
		t.Error("lcm overflow not detected")
	}
}

func TestTemporalize(t *testing.T) {
	src := `
a(X, Z) :- p(X, Y), a(Y, Z).
a(X, Y) :- p(X, Y).
`
	tp, err := Temporalize(mustProg(t, src))
	if err != nil {
		t.Fatal(err)
	}
	// 2 counting rules + 2 copy rules (a, p).
	if len(tp.Rules) != 4 {
		t.Fatalf("rules = %v", tp.Rules)
	}
	want := "a(T+1, X, Z) :- p(T, X, Y), a(T, Y, Z)."
	if got := tp.Rules[0].String(); got != want {
		t.Errorf("rule 0 = %q, want %q", got, want)
	}
	if err := ast.ValidateProgram(tp); err != nil {
		t.Errorf("temporalized program invalid: %v", err)
	}
	// Database transform.
	db, err := parser.ParseDatabase("p(x, y). p(y, z).")
	if err != nil {
		t.Fatal(err)
	}
	tdb, err := TemporalizeDB(db)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range tdb.Facts {
		if !f.Temporal || f.Time != 0 {
			t.Errorf("fact %v not at time 0", f)
		}
	}
	// Rejects temporal inputs.
	if _, err := Temporalize(mustProg(t, "q(T+1) :- q(T).")); err == nil {
		t.Error("Temporalize accepted a temporal program")
	}
	if _, err := TemporalizeDB(tdb); err == nil {
		t.Error("TemporalizeDB accepted a temporal database")
	}
}

func TestTemporalizeBoundedIsIPeriodic(t *testing.T) {
	// Transitive closure over a fixed chain: the temporalized program's
	// least model stabilizes after the closure completes (period 1).
	src := `
a(X, Z) :- p(X, Y), a(Y, Z).
a(X, Y) :- p(X, Y).
`
	tp, err := Temporalize(mustProg(t, src))
	if err != nil {
		t.Fatal(err)
	}
	db, err := parser.ParseDatabase("p(x, y). p(y, z). p(z, w).")
	if err != nil {
		t.Fatal(err)
	}
	tdb, err := TemporalizeDB(db)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyIPeriod(tp, tdb, pp(6, 1), 1<<12); err != nil {
		t.Errorf("temporalized closure not periodic with p=1: %v", err)
	}
}

func TestAnalyzeReports(t *testing.T) {
	rep := Analyze(mustProg(t, skiRules), AnalyzeOptions{})
	if !rep.Valid || !rep.MultiSeparable || rep.Inflationary || rep.Separable {
		t.Errorf("ski report = %+v", rep)
	}
	if !rep.Tractable() {
		t.Error("ski rules should be tractable")
	}
	out := rep.String()
	for _, want := range []string{"multi-separable:", "yes", "inflationary:", "no (witness:"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}

	rep2 := Analyze(mustProg(t, pathRules), AnalyzeOptions{})
	if !rep2.Inflationary || rep2.MultiSeparable {
		t.Errorf("path report = %+v", rep2)
	}
	if !rep2.Tractable() {
		t.Error("path rules should be tractable (inflationary)")
	}

	rep3 := Analyze(mustProg(t, "even(T+2) :- even(T)."), AnalyzeOptions{ComputeIPeriod: true})
	if rep3.IPeriod == nil || rep3.IPeriod.P != 2 {
		t.Errorf("even I-period = %v (%s)", rep3.IPeriod, rep3.IPeriodErr)
	}

	rep4 := Analyze(mustProg(t, "p(T, X) :- q(T+1, X)."), AnalyzeOptions{})
	if rep4.Valid {
		t.Error("non-forward program reported valid")
	}
	if !strings.Contains(rep4.String(), "invalid") {
		t.Error("invalid report misrendered")
	}
}

// pp is a shorthand period constructor for tests.
func pp(base, p int) period.Period { return period.Period{Base: base, P: p} }
