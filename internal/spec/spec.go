// Package spec implements relational specifications (Section 3.3): finite
// representations S = (T, B, W) of the possibly infinite least model of a
// temporal deductive database.
//
//   - T is the finite set of representative ground temporal terms
//     {0, 1, ..., b+p-1} where (b, p) is a (minimal) verified period of the
//     least model;
//   - B, the primary database, is the union of the model's snapshots at the
//     representative terms together with its non-temporal part;
//   - W is the single ground rewrite rule  b+p -> b, applied as
//     t -> t-p while t >= b+p, whose normal forms are exactly T.
//
// Every temporal query is invariant with respect to relational
// specifications (Proposition 3.1), so a query over the infinite model can
// be answered over B after rewriting ground temporal terms to their
// representatives.
//
// W is also realized in storage. The evaluator stores a state that
// closes equal to an earlier one as that state's shards, so a state past
// b+p is its representative's shards before the period is certified;
// engine.Evaluator.ShareRepeats re-shares the ones a write has forked
// since. Past b+p the model holds one pointer per predicate and time
// point, and the facts it stores are B's.
//
// The store also numbers the distinct states as they close, and a
// specification offers those classes for T (StateClasses): by
// Proposition 3.1 a query's value at a representative is a function of
// its state, so a temporal quantifier whose body reads its variable at
// offset 0 need visit one representative per class.
package spec

import (
	"fmt"
	"strings"

	"tdd/internal/ast"
	"tdd/internal/engine"
	"tdd/internal/period"
)

// Spec is a computed relational specification.
type Spec struct {
	// Period is the verified period (b, p); the rewrite system W contains
	// the single rule Base+P -> Base.
	Period period.Period
	eval   *engine.Evaluator
}

// Compute evaluates the TDD far enough to certify a minimal period and
// returns the relational specification. maxWindow bounds the evaluation
// window; see period.Detect. When the evaluator carries a trace, the two
// phases are recorded as certify-period (with the engine's fixpoint
// spans nested inside) and spec-construct.
func Compute(e *engine.Evaluator, maxWindow int) (*Spec, error) {
	return ComputeFrom(e, maxWindow, 0)
}

// ComputeFrom is Compute with a period hint (see period.DetectFrom): the
// specification is Compute's, found with less scanning when the hint is
// good.
func ComputeFrom(e *engine.Evaluator, maxWindow, hint int) (*Spec, error) {
	tr := e.Trace()
	sp := tr.Begin("certify-period")
	p, st, err := period.DetectFrom(e, maxWindow, hint)
	if err != nil {
		sp.End()
		return nil, err
	}
	sp.Add("window", int64(st.Window))
	sp.Add("grown", int64(st.Grown))
	sp.Add("exact_fallback", int64(st.ExactFallbacks))
	sp.Add("base", int64(p.Base))
	sp.Add("p", int64(p.P))
	sp.End()
	sp = tr.Begin("spec-construct")
	defer sp.End()
	sp.Add("representatives", int64(p.Base+p.P))
	e.ShareRepeats(p.Base, p.P)
	return &Spec{Period: p, eval: e}, nil
}

// Rewrite returns the canonical representative of the ground temporal term
// t: W is applied until no rewriting is applicable.
func (s *Spec) Rewrite(t int) int { return s.Period.Canonical(t) }

// Representatives returns T, the representative terms 0..b+p-1.
func (s *Spec) Representatives() []int {
	out := make([]int, s.Period.Base+s.Period.P)
	for i := range out {
		out[i] = i
	}
	return out
}

// NumRepresentatives returns |T| = b + p.
func (s *Spec) NumRepresentatives() int { return s.Period.Base + s.Period.P }

// HoldsFact answers a ground atomic query: the temporal argument is
// rewritten to its representative and looked up in the primary database.
// Non-temporal atoms are looked up in the non-temporal part.
func (s *Spec) HoldsFact(f ast.Fact) bool {
	if f.Temporal {
		f.Time = s.Rewrite(f.Time)
	}
	return s.eval.Holds(f)
}

// Store, TimePoints, NormalizeTime, ConstantDomain and StateClasses make
// the specification a query.Structure: the facts are the evaluator's
// store (the window already covers the representatives), temporal
// quantifiers range over the representatives (Section 3.3), a ground
// temporal term is answered at its normal form under W, and the store's
// state classes tell which representatives hold equal states.
func (s *Spec) Store() *engine.Store { return s.eval.Store() }

// TimePoints returns |T|; see Store.
func (s *Spec) TimePoints() int { return s.NumRepresentatives() }

// NormalizeTime rewrites t to its representative; see Store.
func (s *Spec) NormalizeTime(t int) (int, bool) { return s.Period.Canonical(t), true }

// ConstantDomain returns the active domain of non-temporal constants.
func (s *Spec) ConstantDomain() []string { return s.eval.Store().Constants() }

// StateClasses returns the state class of each representative and the
// first representative of each class (engine.Store.StateClasses), or nil
// when a write since the classes were assigned has made them stale.
func (s *Spec) StateClasses() (class, first []uint32) {
	return s.eval.Store().StateClasses(s.NumRepresentatives())
}

// PrimaryDatabase returns B as sorted facts: snapshots at every
// representative plus the non-temporal part.
func (s *Spec) PrimaryDatabase() []ast.Fact {
	var out []ast.Fact
	out = append(out, s.eval.Store().NonTemporalFacts()...)
	for _, t := range s.Representatives() {
		out = append(out, s.eval.Store().Snapshot(t)...)
	}
	ast.SortFacts(out)
	return out
}

// Size returns (|T|, |B|): the paper's measure of specification size.
func (s *Spec) Size() (reps, facts int) {
	reps = s.NumRepresentatives()
	facts = s.eval.Store().NonTemporalCount()
	for _, t := range s.Representatives() {
		facts += s.eval.Store().StateSize(t)
	}
	return reps, facts
}

// String renders the specification in the paper's (T, B, W) notation.
func (s *Spec) String() string {
	var b strings.Builder
	reps, facts := s.Size()
	fmt.Fprintf(&b, "T = {0..%d}  (%d representative terms)\n", reps-1, reps)
	fmt.Fprintf(&b, "W = {%d -> %d}\n", reps, s.Period.Base)
	fmt.Fprintf(&b, "B = (%d facts)\n", facts)
	for _, f := range s.PrimaryDatabase() {
		fmt.Fprintf(&b, "  %s.\n", f)
	}
	return b.String()
}

// Evaluator exposes the underlying evaluator (window already covers the
// representatives).
func (s *Spec) Evaluator() *engine.Evaluator { return s.eval }
