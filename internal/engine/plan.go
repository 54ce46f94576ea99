package engine

// Join-order planning. Each compiled rule body is evaluated as a chain of
// streaming index probes: at every position the planner picks the body
// literal with the smallest estimated enumeration cost given the columns
// already bound, and the join loop (eval.go, shared by delta.go) then
// iterates only the matching index bucket (for a literal bound on every
// column, looks its one row up) instead of the full relation.
//
// Determinism contract: a plan is a pure function of the compiled rule
// and the store's per-predicate cardinality counters (store.card). Plans
// are recomputed at every fixpoint entry (EnsureWindow, PropagateDelta)
// from the store content alone, so two evaluators holding the same
// content — repeated runs, or a clone and a from-scratch build of the same
// snapshot — choose the same orders, derive facts in the same order, and
// report bit-identical Stats/profile counters.
// The cost model is integer arithmetic only (no floats, no clock, no
// randomness; internal/gocheck's TestFixpointImports bans the clock and
// random imports in this package).

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"tdd/internal/progan"
)

// planStep is one position in a join plan: which body literal to match
// next and which of its columns are bound by then (the index mask); a
// member step's are all of its 1 to 32 columns, and the join looks its
// one row up in the membership table (relset.find), not an index bucket.
// A relation access counts into the literal's cell of the rule's counter
// record (litCtr): a probe when the mask is set, else a scan.
type planStep struct {
	lit    int
	mask   uint32
	member bool
}

// joinPlan is the ordered body of one rule (delta plans omit the pinned
// literal, which is bound before the join starts).
type joinPlan struct {
	steps []planStep
}

// planJoins (re)computes every rule's join plan and delta plans from the
// current cardinality counters. Called at each fixpoint entry; see the
// determinism contract above.
func (e *Evaluator) planJoins() {
	if e.bounds == nil {
		e.bounds = progan.ComputeBounds(e.prog, e.Database())
	}
	if len(e.en.vals) < e.maxSlots {
		e.en.vals = make([]uint32, e.maxSlots)
	}
	e.plans = make([]joinPlan, len(e.rules))
	e.deltaPlans = make([][]joinPlan, len(e.rules))
	for i := range e.rules {
		r := &e.rules[i]
		e.plans[i] = e.planRule(r, -1)
		dp := make([]joinPlan, len(r.body))
		for pin := range r.body {
			dp[pin] = e.planRule(r, pin)
		}
		e.deltaPlans[i] = dp
	}
}

// planRule orders the body of r (with literal pin pre-bound; -1 for
// none): it greedily picks the cheapest remaining literal under the cost
// estimate, ties resolved to the earliest source position, and probes it
// through the index on every column bound by then, or for membership when
// that is all of them.
func (e *Evaluator) planRule(r *crule, pin int) joinPlan {
	bound := make([]bool, r.nslots)
	if pin >= 0 {
		for _, c := range r.bodyC[pin] {
			if c.slot >= 0 {
				bound[c.slot] = true
			}
		}
	}
	remaining := make([]int, 0, len(r.body))
	for li := range r.body {
		if li != pin {
			remaining = append(remaining, li)
		}
	}
	plan := joinPlan{steps: make([]planStep, 0, len(remaining))}
	for len(remaining) > 0 {
		pick, best := 0, uint64(0)
		for k, li := range remaining {
			cost := e.estCost(r, li, bound)
			if k == 0 || cost < best {
				best, pick = cost, k
			}
		}
		li := remaining[pick]
		remaining = append(remaining[:pick], remaining[pick+1:]...)
		mask, n := boundMask(r.bodyC[li], bound)
		plan.steps = append(plan.steps, planStep{lit: li, mask: mask, member: n > 0 && n == len(r.bodyC[li])})
		for _, c := range r.bodyC[li] {
			if c.slot >= 0 {
				bound[c.slot] = true
			}
		}
	}
	return plan
}

// boundMask returns the mask of columns determined under the bound set
// (constants and already-bound variables) and how many they are. Columns
// beyond 32 are never masked (they are matched by the scan filter).
func boundMask(pat []carg, bound []bool) (mask uint32, n int) {
	for i, c := range pat {
		if i >= 32 {
			break
		}
		if c.slot < 0 || bound[c.slot] {
			mask |= 1 << uint(i)
			n++
		}
	}
	return mask, n
}

// estCost estimates how many tuples matching literal li the join loop
// will enumerate, given the bound set. The base is the store's live
// cardinality: total facts for a non-temporal predicate, average facts
// per occupied time point for a temporal one (the per-predicate tables
// the profiler also reports, maintained incrementally by the store). Each
// bound column shrinks the estimate by the base's bit-length scaled to
// the fraction of columns bound — a selectivity proxy that needs no value
// statistics and no floating point: a fully bound literal costs 0 (a
// member step's one lookup), an unbound one costs the full base.
func (e *Evaluator) estCost(r *crule, li int, bound []bool) uint64 {
	a := &r.body[li]
	facts, states := e.store.card(r.bodyP[li])
	base := facts
	if a.Time != nil && states > 0 {
		base = (facts + states - 1) / states
	}
	if base <= 0 {
		// An empty relation of a derived predicate is not cheap: the plan
		// persists for the whole fixpoint entry, during which the
		// relation can grow to the order of the database (typical at the
		// first entry, before anything is derived). Assume
		// database-sized rather than free; a truly empty EDB relation
		// still costs 0 (scanning it first aborts the join immediately).
		// The static bounds sharpen both ends: a provably empty predicate
		// stays empty for the whole entry (cost 0), and a cold derived
		// relation can never outgrow the base facts backward-reachable
		// from it (its support seed).
		if !e.derived[a.Pred] || e.bounds.Empty[a.Pred] {
			return 0
		}
		base = e.store.count
		if s, ok := e.bounds.Support(a.Pred, e.dbCount); ok && s < base {
			base = s
		}
		if base <= 0 {
			return 0
		}
	}
	arity := len(a.Args)
	if arity == 0 {
		return 1
	}
	_, nb := boundMask(r.bodyC[li], bound)
	if nb >= arity {
		return 0
	}
	shift := bits.Len(uint(base)) * nb / arity
	cost := uint64(base) >> uint(shift)
	if cost == 0 {
		cost = 1
	}
	return cost
}

// dbCount returns the number of database facts of the named predicate,
// read from the store (Store.insertBase): the count support seeds sum.
func (e *Evaluator) dbCount(pred string) int {
	info := e.preds[pred]
	id, ok := e.store.PredID(pred, info.Arity, info.Temporal)
	if !ok {
		return 0
	}
	if e.derived[pred] {
		return e.store.rels[id].db.size()
	}
	return e.store.rels[id].facts
}

// PlanFingerprint recomputes the join plans from the current cardinality
// counters and returns a digest of every choice the planner made: per
// rule, the literal order and index masks of the main plan and of each
// delta plan. Two evaluators over the same program and store content —
// regardless of clone lineage or repetition — produce the same
// fingerprint; tests pin this (plans are a pure function of rule +
// cardinality snapshot).
func (e *Evaluator) PlanFingerprint() string {
	e.planJoins()
	var b strings.Builder
	writePlan := func(p *joinPlan) {
		for si := range p.steps {
			st := &p.steps[si]
			fmt.Fprintf(&b, " %d/%x", st.lit, st.mask)
		}
	}
	for i := range e.rules {
		fmt.Fprintf(&b, "rule %d:", i)
		writePlan(&e.plans[i])
		for pin := range e.deltaPlans[i] {
			fmt.Fprintf(&b, " |pin %d:", pin)
			writePlan(&e.deltaPlans[i][pin])
		}
		b.WriteByte('\n')
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:8])
}

// PlanText renders the current plans in readable form (for tests and
// debugging): one line per rule, literals in execution order with their
// index masks, or "member" for a step that tests one row for membership.
func (e *Evaluator) PlanText() string {
	e.planJoins()
	var lines []string
	for i := range e.rules {
		var parts []string
		for _, st := range e.plans[i].steps {
			how := fmt.Sprintf("mask=%x", st.mask)
			if st.member {
				how = "member"
			}
			parts = append(parts, fmt.Sprintf("%s[%d %s]", e.rules[i].body[st.lit].Pred, st.lit, how))
		}
		lines = append(lines, fmt.Sprintf("%s :: %s", e.rules[i].src.String(), strings.Join(parts, " ⋈ ")))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
