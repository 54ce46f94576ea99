// Package workload generates the parametric program/database families the
// experiment harness (EXPERIMENTS.md) and benchmarks are run on:
//
//   - Ski — the paper's Section 2 travel-agent example, scaled: year
//     length, number of resorts, and number of seed flights are
//     parameters. Multi-separable, I-periodic with period = year length.
//   - Reachability — the paper's Section 2 graph example on seeded random
//     graphs. Inflationary: period 1, base bounded by the state size.
//   - Counter — a fixed rule set simulating an n-bit binary counter whose
//     least model has period 2^n in the database size: the empirical
//     witness for the PSPACE-hardness results (Theorems 3.2/3.3).
//   - Cycles — k independent cycles with chosen step sizes; the model's
//     period is their lcm, giving programs whose period is exponential in
//     the *program* size.
package workload

import (
	"fmt"
	"math/rand"
	"strings"
)

// SkiParams scales the travel-agent example.
type SkiParams struct {
	YearLen  int // days per year (the paper's 365)
	Resorts  int // number of resort constants
	Planes   int // number of seed flights, spread over resorts and days
	Holidays int // number of holiday days per year
	// ResortFirst emits the plane-rule bodies in generate-then-filter
	// order — resort(X), offseason(T), plane(T, X) — instead of the
	// hand-optimized plane-first order. The model is identical; a
	// source-order evaluator now enumerates every resort per rule per
	// sweep, while a join-order planner recovers the plane-first plan
	// from cardinalities. internal/engine's TestPlannerIsOrderInsensitive
	// evaluates both orders.
	ResortFirst bool
	Seed        int64
}

// Ski generates the scaled travel-agent TDD. Winter occupies the first 40%
// of the year, off-season the rest; flights jump +7 in the off-season, +2
// in winter, +1 on holidays.
func Ski(p SkiParams) (rules, facts string) {
	if p.YearLen < 10 {
		p.YearLen = 10
	}
	if p.Resorts < 1 {
		p.Resorts = 1
	}
	if p.Planes < 1 {
		p.Planes = 1
	}
	if p.ResortFirst {
		rules = `plane(T+7, X) :- resort(X), offseason(T), plane(T, X).
plane(T+2, X) :- resort(X), winter(T), plane(T, X).
plane(T+1, X) :- resort(X), holiday(T), plane(T, X).
`
	} else {
		rules = `plane(T+7, X) :- plane(T, X), resort(X), offseason(T).
plane(T+2, X) :- plane(T, X), resort(X), winter(T).
plane(T+1, X) :- plane(T, X), resort(X), holiday(T).
`
	}
	rules += fmt.Sprintf(`offseason(T+%d) :- offseason(T).
winter(T+%d) :- winter(T).
holiday(T+%d) :- holiday(T).
`, p.YearLen, p.YearLen, p.YearLen)

	rng := rand.New(rand.NewSource(p.Seed))
	var b strings.Builder
	winterEnd := p.YearLen * 4 / 10
	for d := 0; d < p.YearLen; d++ {
		if d < winterEnd {
			fmt.Fprintf(&b, "winter(%d).\n", d)
		} else {
			fmt.Fprintf(&b, "offseason(%d).\n", d)
		}
	}
	for h := 0; h < p.Holidays; h++ {
		fmt.Fprintf(&b, "holiday(%d).\n", rng.Intn(p.YearLen))
	}
	for r := 0; r < p.Resorts; r++ {
		fmt.Fprintf(&b, "resort(r%d).\n", r)
	}
	for i := 0; i < p.Planes; i++ {
		fmt.Fprintf(&b, "plane(%d, r%d).\n", rng.Intn(p.YearLen), rng.Intn(p.Resorts))
	}
	return rules, b.String()
}

// ReachParams scales the graph example.
type ReachParams struct {
	Nodes int
	Edges int
	// PathFirst emits the recursive body as path(K, Y, Z), edge(X, Y):
	// same model, but a source-order evaluator scans every path tuple and
	// then — with edge's first column X still unbound — every edge per
	// tuple, an O(|path| · |edge|) cross-product per state. A planner
	// restores edge-first from cardinalities; a second-column index makes
	// even the path-first order stream. internal/engine's
	// TestPlannerIsOrderInsensitive evaluates both orders.
	PathFirst bool
	Seed      int64
}

// Reachability generates the bounded-path TDD of Section 2 over a seeded
// random directed graph.
func Reachability(p ReachParams) (rules, facts string) {
	if p.PathFirst {
		rules = `path(K, X, X) :- node(X), null(K).
path(K+1, X, Z) :- path(K, Y, Z), edge(X, Y).
path(K+1, X, Y) :- path(K, X, Y).
`
	} else {
		rules = `path(K, X, X) :- node(X), null(K).
path(K+1, X, Z) :- edge(X, Y), path(K, Y, Z).
path(K+1, X, Y) :- path(K, X, Y).
`
	}
	rng := rand.New(rand.NewSource(p.Seed))
	var b strings.Builder
	b.WriteString("null(0).\n")
	for i := 0; i < p.Nodes; i++ {
		fmt.Fprintf(&b, "node(n%d).\n", i)
	}
	seen := make(map[[2]int]bool)
	for len(seen) < p.Edges {
		u, v := rng.Intn(p.Nodes), rng.Intn(p.Nodes)
		if u == v || seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		fmt.Fprintf(&b, "edge(n%d, n%d).\n", u, v)
	}
	return rules, b.String()
}

// Chain generates the bounded-path TDD over a directed chain
// n0 -> n1 -> ... -> n(nodes-1), split for incremental ingestion: facts
// holds the nodes and the first edge, stream holds the remaining edges one
// fact source per edge, in chain order. Asserting the stream step by step
// keeps lengthening the longest path — each step genuinely perturbs the
// model's tail, so the workload exercises re-certification, not just delta
// joins. It is the benchmark workload of BenchmarkAssertVsReopen.
func Chain(nodes int) (rules, facts string, stream []string) {
	rules = `path(K, X, X) :- node(X), null(K).
path(K+1, X, Z) :- edge(X, Y), path(K, Y, Z).
path(K+1, X, Y) :- path(K, X, Y).
`
	var b strings.Builder
	b.WriteString("null(0).\n")
	for i := 0; i < nodes; i++ {
		fmt.Fprintf(&b, "node(n%d).\n", i)
	}
	if nodes > 1 {
		b.WriteString("edge(n0, n1).\n")
	}
	for i := 1; i+1 < nodes; i++ {
		stream = append(stream, fmt.Sprintf("edge(n%d, n%d).\n", i, i+1))
	}
	return rules, b.String(), stream
}

// Distractor generates the relevance-slicing showcase: a small relevant
// chain —
//
//	q(T+2, X) :- q(T, X), rel(X).
//
// whose backward slice has period 2 and a handful of facts, drowned in k
// independent distractor cycles dK(T+step, X) :- dK(T, X), junk(X), each
// carrying every junk constant forward. The cycles never feed q, but the
// FULL model's period is lcm(2, steps) — with the default steps 3, 5, 7
// that is 210 — and every one of its states holds k·junk distractor
// facts. A query about q pays all of that on the full path and none of it
// on the sliced path, which is the point: the gap between the two is
// pure, provably irrelevant work. Used by BenchmarkSlicedAsk and
// experiment E19.
func Distractor(steps []int, junk int) (rules, facts string) {
	if len(steps) == 0 {
		steps = []int{3, 5, 7}
	}
	if junk < 1 {
		junk = 1
	}
	var rb, fb strings.Builder
	// c0 is seeded (q holds at every even time); c1 is relevant but never
	// seeded, so `exists T q(T, c1)` has no witness and an existential ask
	// about it must scan the full temporal domain — the worst case the
	// slice shrinks.
	rb.WriteString("q(T+2, X) :- q(T, X), rel(X).\n")
	fb.WriteString("rel(c0).\nrel(c1).\nq(0, c0).\n")
	for i, s := range steps {
		fmt.Fprintf(&rb, "d%d(T+%d, X) :- d%d(T, X), junk(X).\n", i, s, i)
	}
	for j := 0; j < junk; j++ {
		fmt.Fprintf(&fb, "junk(j%d).\n", j)
		for i := range steps {
			fmt.Fprintf(&fb, "d%d(0, j%d).\n", i, j)
		}
	}
	return rb.String(), fb.String()
}

// CounterRules is the fixed rule set of the exponential-period family: an
// n-bit binary counter clocked by tick. Bit values are carried as the
// complementary predicates one/zero; the carry chain is computed within
// each state by the data-only rules. The rules are mutually recursive
// (one -> carry -> one), so the program is correctly classified outside
// the multi-separable class — Theorem 3.1's exponential bound is tight on
// this family.
const CounterRules = `tick(T+1) :- tick(T).
carry(T, X) :- tick(T), first(X).
carry(T, Y) :- succ(X, Y), carry(T, X), one(T, X).
nocarry(T, Y) :- succ(X, Y), zero(T, X).
nocarry(T, Y) :- succ(X, Y), nocarry(T, X).
one(T+1, X) :- zero(T, X), carry(T, X).
one(T+1, X) :- one(T, X), nocarry(T, X).
zero(T+1, X) :- one(T, X), carry(T, X).
zero(T+1, X) :- zero(T, X), nocarry(T, X).
`

// Counter generates the n-bit counter database: bits b0 (least
// significant) through b(n-1), all initially zero. The least model's
// states encode t mod 2^n, so its minimal period is exactly 2^n — linear
// database growth, exponential period.
func Counter(bits int) (rules, facts string) {
	var b strings.Builder
	b.WriteString("tick(0).\nfirst(b0).\n")
	for i := 0; i < bits; i++ {
		fmt.Fprintf(&b, "zero(0, b%d).\n", i)
	}
	for i := 0; i+1 < bits; i++ {
		fmt.Fprintf(&b, "succ(b%d, b%d).\n", i, i+1)
	}
	return CounterRules, b.String()
}

// Cycles generates k independent cycle predicates with the given step
// sizes; the model's period is lcm(steps). With the first k primes as
// steps the period is exponential in the program size.
func Cycles(steps []int) (rules, facts string) {
	var rb, fb strings.Builder
	for i, s := range steps {
		fmt.Fprintf(&rb, "cyc%d(T+%d) :- cyc%d(T).\n", i, s, i)
		fmt.Fprintf(&fb, "cyc%d(0).\n", i)
	}
	return rb.String(), fb.String()
}

// Primes returns the first n primes, for use with Cycles.
func Primes(n int) []int {
	var out []int
	for c := 2; len(out) < n; c++ {
		prime := true
		for _, p := range out {
			if p*p > c {
				break
			}
			if c%p == 0 {
				prime = false
				break
			}
		}
		if prime {
			out = append(out, c)
		}
	}
	return out
}
