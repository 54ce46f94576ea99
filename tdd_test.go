package tdd

import (
	"strings"
	"testing"
)

const skiUnit = `
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

func TestOpenAndAsk(t *testing.T) {
	db, err := OpenUnit(skiUnit)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]bool{
		"plane(0, hunter)":                         true,
		"plane(3, hunter)":                         false,
		"exists T (plane(T, hunter) & holiday(T))": true,
		"!plane(5, hunter)":                        true,
	}
	for q, want := range cases {
		got, err := db.Ask(q)
		if err != nil {
			t.Fatalf("Ask(%q): %v", q, err)
		}
		if got != want {
			t.Errorf("Ask(%q) = %v, want %v", q, got, want)
		}
	}
}

func TestOpenSeparateSources(t *testing.T) {
	db, err := Open("even(T+2) :- even(T).", "even(0).")
	if err != nil {
		t.Fatal(err)
	}
	got, err := db.HoldsAt("even", 123456)
	if err != nil || !got {
		t.Errorf("even(123456) = %v, %v", got, err)
	}
	got, err = db.HoldsAt("even", 123457)
	if err != nil || got {
		t.Errorf("even(123457) = %v, %v", got, err)
	}
}

func TestAskRejectsOpenQuery(t *testing.T) {
	db, err := OpenUnit(skiUnit)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Ask("plane(T, hunter)"); err == nil || !strings.Contains(err.Error(), "open query") {
		t.Errorf("err = %v", err)
	}
}

func TestAnswersAndFormat(t *testing.T) {
	db, err := Open("even(T+2) :- even(T).", "even(0).")
	if err != nil {
		t.Fatal(err)
	}
	ans, err := db.Answers("even(T)")
	if err != nil {
		t.Fatal(err)
	}
	if got := FormatAnswers(ans); got != "T=0\nT=2\n" {
		t.Errorf("answers = %q", got)
	}
	// Closed true query yields a single "yes".
	ans, err = db.Answers("even(0)")
	if err != nil {
		t.Fatal(err)
	}
	if got := FormatAnswers(ans); got != "yes\n" {
		t.Errorf("closed answers = %q", got)
	}
}

func TestHolds(t *testing.T) {
	db, err := OpenUnit(skiUnit)
	if err != nil {
		t.Fatal(err)
	}
	got, err := db.Holds("resort", "hunter")
	if err != nil || !got {
		t.Errorf("resort(hunter) = %v, %v", got, err)
	}
	got, err = db.Holds("resort", "aspen")
	if err != nil || got {
		t.Errorf("resort(aspen) = %v, %v", got, err)
	}
}

func TestPeriodSpecificationWork(t *testing.T) {
	db, err := OpenUnit(skiUnit)
	if err != nil {
		t.Fatal(err)
	}
	p, err := db.Period()
	if err != nil {
		t.Fatal(err)
	}
	if p.P != 10 {
		t.Errorf("period = %v", p)
	}
	specStr, err := db.Specification()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(specStr, "W = {") {
		t.Errorf("specification missing rewrite rule:\n%s", specStr)
	}
	work, err := db.Work()
	if err != nil || work.Representatives == 0 || work.Facts == 0 || work.Period != p ||
		!strings.Contains(work.String(), "period=") {
		t.Errorf("work = %q, %v", work, err)
	}
}

func TestStateAt(t *testing.T) {
	db, err := OpenUnit(skiUnit)
	if err != nil {
		t.Fatal(err)
	}
	s0, err := db.StateAt(0)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(s0, " ")
	if !strings.Contains(joined, "plane(hunter)") || !strings.Contains(joined, "winter") {
		t.Errorf("StateAt(0) = %v", s0)
	}
	// Deep states resolve through the rewrite rule.
	deep, err := db.StateAt(1000000)
	if err != nil {
		t.Fatal(err)
	}
	same, err := db.StateAt(1000010)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(deep, "|") != strings.Join(same, "|") {
		t.Errorf("states 10^6 and 10^6+10 differ: %v vs %v", deep, same)
	}
}

func TestClassifyMethodsAndFunction(t *testing.T) {
	db, err := OpenUnit(skiUnit)
	if err != nil {
		t.Fatal(err)
	}
	rep := db.Classify(false)
	if !rep.MultiSeparable || rep.Inflationary {
		t.Errorf("report = %+v", rep)
	}
	rep2, err := Classify("even(T+2) :- even(T).", true)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.IPeriod == nil || rep2.IPeriod.P != 2 {
		t.Errorf("I-period = %v (%s)", rep2.IPeriod, rep2.IPeriodErr)
	}
}

// TestRulesFactsRoundTrip: Rules and Facts reopen the same model, split or
// as one unit — including sorts the text alone would re-infer otherwise.
// Facts renders each database fact once: a repeated fact, or one a rule
// also derives, renders as in the unit without the repetition (dedup).
func TestRulesFactsRoundTrip(t *testing.T) {
	for _, tc := range []struct{ unit, dedup string }{
		{unit: skiUnit},
		{unit: "r(T) :- p(T). p(3)."},
		{unit: "@nontemporal score. best(J) :- score(10, J). score(10, john)."},
		{unit: "alert(T+1, S) :- alert(T, S), fragile(S).\n@nontemporal score.\nalert(0, api). fragile(api). score(10, alice)."},
		{unit: "r(T) :- p(T). p(1). p(1). r(1). best(j) :- score(j). score(j). best(j). score(j).",
			dedup: "r(T) :- p(T). p(1). r(1). best(j) :- score(j). score(j). best(j)."},
	} {
		unit := tc.unit
		db, err := OpenUnit(unit)
		if err != nil {
			t.Fatal(err)
		}
		if tc.dedup != "" {
			once, err := OpenUnit(tc.dedup)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := db.Facts(), once.Facts(); got != want {
				t.Errorf("%q: Facts() =\n%swant\n%s", unit, got, want)
			}
		}
		want, err := db.ModelFingerprint()
		if err != nil {
			t.Fatal(err)
		}
		split, err := Open(db.Rules(), db.Facts())
		if err != nil {
			t.Fatalf("%q: Open(Rules, Facts): %v", unit, err)
		}
		joined, err := OpenUnit(db.Rules() + db.Facts())
		if err != nil {
			t.Fatalf("%q: OpenUnit(Rules+Facts): %v", unit, err)
		}
		for _, re := range []*DB{split, joined} {
			if got, err := re.ModelFingerprint(); err != nil || got != want {
				t.Errorf("%q: reopened model %s (%v), want %s\n%s%s", unit, got, err, want, db.Rules(), db.Facts())
			}
		}
	}
}

func TestWithMaxWindow(t *testing.T) {
	db, err := OpenUnit("a(T+2) :- a(T).\nb(T+3) :- b(T).\nc(T+5) :- c(T).\na(0). b(0). c(0).", WithMaxWindow(16))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Period(); err == nil {
		t.Error("expected window-budget error")
	}
}

// TestLintNeverFiresPreconditions: DB.Lint reports no TDL004 (never
// fires) without database facts or without a period certified within
// WithMaxWindow. Lint is handed the database's signatures, not its
// facts, so neither case may fall back to certifying a factless model.
func TestLintNeverFiresPreconditions(t *testing.T) {
	for _, tc := range []struct {
		name, unit string
		opts       []Option
	}{
		{"empty database", "p(T+1) :- p(T).\nq(T) :- p(T), r(T).\n", nil},
		{"period over the window budget",
			"a(T+2) :- a(T).\nb(T+3) :- b(T).\nc(T+5) :- c(T).\nq(T) :- a(T), r(T).\na(0). b(0). c(0). r(1).",
			[]Option{WithMaxWindow(16)}},
	} {
		db, err := OpenUnit(tc.unit, tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range db.Lint("").Diagnostics {
			if d.Code == "TDL004" {
				t.Errorf("%s: %s", tc.name, d.Message)
			}
		}
	}
}

func TestOpenErrors(t *testing.T) {
	if _, err := OpenUnit("p(T, X) :- q(T+1, X).\nq(0, a)."); err == nil {
		t.Error("non-forward program accepted")
	}
	if _, err := OpenUnit("p("); err == nil {
		t.Error("syntax error accepted")
	}
	if _, err := Open("even(T+2) :- even(T).\neven(0).", ""); err == nil {
		t.Error("fact in rule source accepted")
	}
}

// TestAssertParsesAgainstKnownSorts asserts batches whose text alone
// would infer a different sort than the database already knows: best(10)
// reads as temporal on its own, and best(n1) then has a constant in the
// temporal position. Parsed against the known signatures, both are plain
// facts of the non-temporal best, and a known temporal predicate still
// refuses a fact without a time point. A sort directive or an interval in
// the batch leaves a known sort as it is, as the fact path always has.
func TestAssertParsesAgainstKnownSorts(t *testing.T) {
	db, err := OpenUnit("@nontemporal best.\ntop(X) :- best(X).\nbest(7).\nseen(0, a).")
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Assert("best(10). best(n1).")
	if err != nil {
		t.Fatalf("Assert: %v", err)
	}
	if res.NewFacts != 2 {
		t.Errorf("NewFacts = %d, want 2", res.NewFacts)
	}
	for _, c := range []string{"10", "n1", "7"} {
		if ok, err := db.Holds("top", c); err != nil || !ok {
			t.Errorf("top(%s) = %v, %v; want true", c, ok, err)
		}
	}
	if _, err := db.Assert("seen(b)."); err == nil {
		t.Error("a fact of the temporal seen without a time point was accepted")
	}
	// A batch's directive or interval does not re-sort a known predicate:
	// the batch reads as facts of the non-temporal best, as it always has.
	if _, err := db.Assert("@temporal best.\nbest(3).\nbest(20..21)."); err != nil {
		t.Fatalf("Assert: %v", err)
	}
	for _, c := range []string{"3", "20", "21"} {
		if ok, err := db.Holds("top", c); err != nil || !ok {
			t.Errorf("top(%s) = %v, %v; want true", c, ok, err)
		}
	}
}

func TestAnswersLimitPublic(t *testing.T) {
	db, err := OpenUnit(skiUnit)
	if err != nil {
		t.Fatal(err)
	}
	all, err := db.Answers("winter(T)")
	if err != nil {
		t.Fatal(err)
	}
	limited, err := db.AnswersLimit("winter(T)", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(limited) != 3 || len(all) <= 3 {
		t.Errorf("limited = %d (all = %d), want 3 < all", len(limited), len(all))
	}
}

func TestExplainPublic(t *testing.T) {
	db, err := OpenUnit(skiUnit, WithProvenance())
	if err != nil {
		t.Fatal(err)
	}
	out, err := db.Explain("plane(4, hunter)", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"plane(4, hunter)", "[by plane(T+2, X)", "plane(0, hunter)   [database fact]", "winter(0)   [database fact]"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// Deep query: rewritten to a representative first.
	deep, err := db.Explain("plane(1000002, hunter)", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(deep, "rewrites to time") {
		t.Errorf("deep explain missing rewrite note:\n%s", deep)
	}
	// Errors.
	if _, err := db.Explain("plane(T, hunter)", 0); err == nil {
		t.Error("non-ground query explained")
	}
	if _, err := db.Explain("plane(3, hunter)", 0); err == nil {
		t.Error("false fact explained")
	}
	plain, err := OpenUnit(skiUnit)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Explain("plane(4, hunter)", 0); err == nil {
		t.Error("Explain without WithProvenance succeeded")
	}
}

// An Assert clones the engine; the clone keeps recording derivations
// whether the batch is propagated through a certified model or left for
// the next query to certify.
func TestExplainAfterAssert(t *testing.T) {
	for _, certified := range []bool{true, false} {
		db, err := OpenUnit(skiUnit, WithProvenance())
		if err != nil {
			t.Fatal(err)
		}
		if certified {
			if _, err := db.Period(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := db.Assert("resort(thredbo). plane(0, thredbo)."); err != nil {
			t.Fatal(err)
		}
		out, err := db.Explain("plane(2, thredbo)", 0)
		if err != nil || !strings.Contains(out, "plane(0, thredbo)   [database fact]") {
			t.Errorf("certified=%v: Explain after Assert = %v\n%s", certified, err, out)
		}
	}
}

func TestExportImportSpecPublic(t *testing.T) {
	db, err := OpenUnit(skiUnit)
	if err != nil {
		t.Fatal(err)
	}
	data, err := db.ExportSpec()
	if err != nil {
		t.Fatal(err)
	}
	sdb, err := ImportSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if p, _ := db.Period(); sdb.Period() != p {
		t.Errorf("period %v vs %v", sdb.Period(), p)
	}
	for _, q := range []string{
		"plane(0, hunter)",
		"plane(3, hunter)",
		"plane(1000002, hunter)",
		"exists T (plane(T, hunter) & holiday(T))",
		"forall X (!resort(X) | exists T plane(T, X))",
	} {
		want, err := db.Ask(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sdb.Ask(q)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%q: loaded=%v live=%v", q, got, want)
		}
	}
	wantAns, _ := db.Answers("plane(T, hunter) & winter(T)")
	gotAns, err := sdb.Answers("plane(T, hunter) & winter(T)")
	if err != nil {
		t.Fatal(err)
	}
	if FormatAnswers(gotAns) != FormatAnswers(wantAns) {
		t.Errorf("answers differ:\n%s\nvs\n%s", FormatAnswers(gotAns), FormatAnswers(wantAns))
	}
	holds, err := sdb.HoldsAt("plane", 22, "hunter")
	if err != nil || !holds {
		t.Errorf("HoldsAt = %v, %v", holds, err)
	}
	res, err := sdb.Holds("resort", "hunter")
	if err != nil || !res {
		t.Errorf("Holds = %v, %v", res, err)
	}
	if _, err := sdb.Ask("plane(T, hunter)"); err == nil {
		t.Error("open query accepted by Ask")
	}
	if _, err := ImportSpec([]byte("{")); err == nil {
		t.Error("garbage imported")
	}
}

// TestAllocBudgetEngineStats: EngineStats, which every cold bench op
// reads, agrees with EngineDetail and allocates nothing.
func TestAllocBudgetEngineStats(t *testing.T) {
	db, err := OpenUnit(skiUnit)
	if _, err2 := db.Period(); err != nil || err2 != nil {
		t.Fatal(err, err2)
	}
	d, f, s := db.EngineStats()
	if e := db.EngineDetail(); d != e.Derived || f != e.Firings || s != e.Sweeps || f == 0 {
		t.Fatalf("EngineStats = %d, %d, %d; EngineDetail = %d, %d, %d", d, f, s, e.Derived, e.Firings, e.Sweeps)
	}
	if n := testing.AllocsPerRun(100, func() { db.EngineStats() }); n != 0 {
		t.Errorf("EngineStats allocates %.0f objects, want 0", n)
	}
}
