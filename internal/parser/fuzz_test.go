package parser

import (
	"slices"
	"strings"
	"testing"

	"tdd/internal/ast"
)

// fuzzSeeds is a corpus covering every surface feature the unit syntax
// has: temporal recursion, interval facts, sort directives, quoted
// constants, zero-arity predicates, comments, and the example programs
// shipped under examples/.
var fuzzSeeds = []string{
	// examples/quickstart
	"even(T+2) :- even(T).\neven(0).\n",
	// examples/skiresort (the paper's Example 2.1, interval form)
	`
	plane(T+7, X) :- plane(T, X), resort(X), offseason(T).
	plane(T+2, X) :- plane(T, X), resort(X), winter(T).
	plane(T+1, X) :- plane(T, X), resort(X), holiday(T).
	offseason(T+365) :- offseason(T).
	winter(T+365) :- winter(T).
	holiday(T+365) :- holiday(T).
	winter(0..90).
	offseason(91..364).
	resort(hunter). resort(aspen).
	plane(12, hunter).
	holiday(5). holiday(12).
	`,
	// examples/reachability
	`
	path(K, X, X) :- node(X), null(K).
	path(K+1, X, Z) :- edge(X, Y), path(K, Y, Z).
	path(K+1, X, Y) :- path(K, X, Y).
	null(0).
	node(a). node(b). node(c). node(d). node(e).
	edge(a, b). edge(b, c). edge(c, d). edge(d, e).
	edge(e, a). edge(b, e).
	`,
	// examples/itinerary
	`
	sails(T+2, harbor, isle)  :- sails(T, harbor, isle).
	sails(T+3, isle, cove)    :- sails(T, isle, cove).
	sails(T+7, cove, port)    :- sails(T, cove, port).
	at(T+1, X) :- at(T, X).
	at(T+1, Y) :- at(T, X), sails(T, X, Y).
	sails(0, harbor, isle).
	sails(1, isle, cove).
	sails(2, cove, port).
	at(0, harbor).
	`,
	// examples/monitoring
	`
	check(T+7, S) :- check(T, S), service(S).
	alert(T, S) :- check(T, S), fragile(S).
	alert(T+1, S) :- alert(T, S).
	paged(T, E) :- alert(T, S), oncall(E, S).
	everflagged(S) :- alert(T, S).
	service(api). check(0, api).
	fragile(api). oncall(alice, api).
	`,
	// examples/counter (workload.Counter shape, 2 bits)
	`
	tick(T+1) :- tick(T).
	one(T+1, B) :- zero(T, B), carry(T, B).
	zero(T+1, B) :- one(T, B), carry(T, B).
	one(T+1, B) :- one(T, B), nocarry(T, B).
	tick(0). zero(0, b0). zero(0, b1).
	`,
	// Sort directives and numeric non-temporal columns.
	"@nontemporal score.\n@temporal up.\nscore(10, john).\nup(3).\nbest(J) :- score(10, J).\n",
	// Quoted constants, with a space, a doubled quote and a backslash.
	"p('fg fg').\nq('it''s', 'a\\\\b').\nr(X) :- q(X, Y).\n",
	// Zero-arity predicates and facts.
	"go :- ready.\nready.\n",
	// Interval abbreviation, singleton and empty-ish edges.
	"up(3..3).\nup(0..5).\n",
	// Things that must error but not crash.
	"p(",
	"p(0..999999999).",
	"p(-1).",
	"@bogus p.\n",
	"p(T+2) :- q(T), p(T, T).",
	// A quoted constant with a leading digit must print quoted again.
	"a('0000A','0000').\n",
	// All-digit constants that do not scan back as themselves bare: a
	// leading zero, and a value past the lexer's integer bound.
	"a('007').\n",
	"a('10000000000').\n",
}

// FuzzParseUnit asserts two properties on arbitrary unit sources:
//
//  1. ParseUnit never panics and never allocates unboundedly (the
//     interval-expansion cap): it either errors or returns a unit.
//  2. Accepted units round-trip: Render, which pins with a directive
//     every sort the plain text would re-infer differently, reparses to
//     the same clause counts, the same predicate signatures and the same
//     facts, constant for constant.
func FuzzParseUnit(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4<<10 {
			t.Skip("oversized input")
		}
		prog, db, err := ParseUnit(src)
		if err != nil {
			return
		}
		out := Render(prog, db)
		prog2, db2, err := ParseUnit(out)
		if err != nil {
			t.Fatalf("round-trip rejected:\n%s\nerror: %v\noriginal:\n%s", out, err, src)
		}
		if len(prog2.Rules) != len(prog.Rules) || len(db2.Facts) != len(db.Facts) {
			t.Fatalf("round-trip %d rules, %d facts -> %d, %d:\n%s", len(prog.Rules), len(db.Facts), len(prog2.Rules), len(db2.Facts), out)
		}
		facts, facts2 := slices.Clone(db.Facts), slices.Clone(db2.Facts)
		ast.SortFacts(facts)
		ast.SortFacts(facts2)
		for i, f := range facts {
			g := facts2[i]
			if f.Pred != g.Pred || f.Temporal != g.Temporal || f.Time != g.Time || !slices.Equal(f.Args, g.Args) {
				t.Fatalf("round-trip fact %#v -> %#v:\n%s", f, g, out)
			}
		}
		for name, pi := range prog.Preds {
			pi2, ok := prog2.Preds[name]
			if !ok || pi2.Temporal != pi.Temporal || pi2.Arity != pi.Arity {
				t.Fatalf("round-trip signature %s: %+v -> %+v (ok=%v)", name, pi, pi2, ok)
			}
		}
		for name, pi := range db.Preds {
			pi2, ok := db2.Preds[name]
			if !ok || pi2.Temporal != pi.Temporal || pi2.Arity != pi.Arity {
				t.Fatalf("round-trip db signature %s: %+v -> %+v (ok=%v)", name, pi, pi2, ok)
			}
		}
	})
}

// TestIntervalExpansionCap pins the cumulative interval-expansion bound:
// a unit may not expand to more than maxIntervalPoints facts via
// intervals, however the intervals are split.
func TestIntervalExpansionCap(t *testing.T) {
	if _, _, err := ParseUnit("p(0..999999999)."); err == nil {
		t.Fatal("giant interval accepted")
	}
	// Many small intervals summing past the cap are rejected too.
	var b strings.Builder
	for i := 0; i < 3; i++ {
		b.WriteString("p(0..524287).\n") // 3 × 2^19 > 2^20
	}
	if _, _, err := ParseUnit(b.String()); err == nil {
		t.Fatal("cumulative interval expansion accepted")
	}
	// The cap leaves legitimate units untouched.
	if _, _, err := ParseUnit("p(0..1000).\nq(5..5)."); err != nil {
		t.Fatal(err)
	}
}
