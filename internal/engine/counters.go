package engine

import (
	"math/bits"
	"slices"

	"tdd/internal/obs"
)

// RuleStat is the per-rule slice of the work counters: how often one rule
// fired (successful body instantiations) and how many new facts it
// derived. The slice order matches the program's rule order.
type RuleStat struct {
	Rule    string `json:"rule"`
	Firings int    `json:"firings"`
	Derived int    `json:"derived"`
}

// IndexStat counts join-side relation accesses for one body predicate:
// Probes are lookups with some column bound — bucket lookups through a
// bound-column index, and membership probes of a literal bound on every
// column — and Scans are full relation iterations (no column bound).
// Exposed through Stats.Index.
type IndexStat struct {
	Probes int64 `json:"probes"`
	Scans  int64 `json:"scans"`
}

// Stats is a snapshot of the work counters for experiments, tests, and
// telemetry: the aggregate counters, the per-rule table behind ?trace=1,
// and the join-side index counters. Per-sweep, per-extension and
// per-timestamp detail is carried by the sweep, fixpoint and
// delta-propagate spans of an attached trace, not here.
type Stats struct {
	// Derived counts facts added beyond the database.
	Derived int
	// Firings counts successful rule-body instantiations (including those
	// that rederive an existing fact).
	Firings int
	// Sweeps counts full passes over the window (the outer fixpoint driven
	// by derived non-temporal facts re-sweeps).
	Sweeps int
	// Rules holds per-rule firing and derivation counts, parallel to the
	// program's rule order.
	Rules []RuleStat
	// Index counts join-side relation accesses per body predicate: index
	// and membership probes vs full scans (see IndexStat, plan.go). Like
	// every other counter it is bit-identical across repeated runs.
	Index map[string]*IndexStat
}

// litCtr counts one body literal's relation accesses through the join
// plans: full scans (a step with mask 0) and probes, index bucket and
// membership alike.
type litCtr struct{ scans, probes int64 }

// stratum is one rule's profile within one timestamp stratum: its
// invocations, its join wall time, and the work done since the entry's
// clock started, not yet converted to time (see counters.flush).
type stratum struct{ calls, ns, pending int64 }

// litCell accumulates one body literal's profiled scan counters within
// one stratum.
type litCell struct {
	scanned int64 // tuples visited from the relation set
	matched int64 // visits that unified with the pattern
}

// ruleRec is one rule's counter record in its evaluator's block.
type ruleRec struct {
	firings int
	derived int
	lits    []litCtr // parallel to the rule body
	// strata and cells are the profiler's: cells holds each stratum's
	// literal scan counters, len(lits) per stratum.
	strata []stratum
	cells  []litCell
	// epoch is the store epoch of the evaluator that may write the record
	// (see Store): any other copies it first (counters.own).
	epoch uint64
}

// strataCells readies stratum b and returns its literal cells. Growing
// moves the cells: the slice is good until the next call.
func (rec *ruleRec) strataCells(b int) []litCell {
	n := len(rec.lits)
	for len(rec.strata) <= b {
		rec.strata = append(rec.strata, stratum{})
		rec.cells = append(rec.cells, make([]litCell, n)...)
	}
	return rec.cells[b*n : (b+1)*n]
}

// counters is an evaluator's one counter block: every count the engine
// keeps — the aggregate Stats, the per-rule table behind ?trace=1, the
// plan steps' index probes and scans, and the join profiler's cells — is
// written here by that evaluator alone, and Stats and ProfileSnapshot are
// views of it. Clone hands the clone its parent's records copy-on-write,
// under the store's epoch rule (see Store): the records carry the
// evaluator's store epoch, which a clone changes on both sides, so both
// copy a record before their first write to it. A clone pays only for
// the rules its delta fires, and neither side writes what the other
// reads.
type counters struct {
	sweeps  int
	rules   []*ruleRec // by rule index
	profile bool       // EnableProfile: invocations count into strata
	// last is the clock at the start of the current fixpoint entry, and
	// work the sum of its strata's pending work.
	last int64
	work int64
}

// own returns rule i's record for the writer of the given epoch,
// replacing a record of another epoch by a copy of this one first.
func (c *counters) own(i int, epoch uint64) *ruleRec {
	rec := c.rules[i]
	if rec.epoch != epoch {
		cp := *rec
		cp.epoch = epoch
		cp.lits, cp.strata, cp.cells = slices.Clone(rec.lits), slices.Clone(rec.strata), slices.Clone(rec.cells)
		rec = &cp
		c.rules[i] = rec
	}
	return rec
}

// totals sums the rules' firings and derivations.
func (c *counters) totals() (firings, derived int) {
	for _, rec := range c.rules {
		firings += rec.firings
		derived += rec.derived
	}
	return firings, derived
}

// enter starts one profiled invocation of the rule whose record is
// en.rec, at the binding en.time: its join steps count into en.cells.
func (c *counters) enter(en *env) {
	en.bucket = stratumOf(en.time)
	en.cells = en.rec.strataCells(en.bucket)
	en.work = 0
}

// exit ends the invocation: it counts the call and books its work (one
// unit plus the rows it scanned and matched) against the clock reading
// that ends the fixpoint entry.
func (c *counters) exit(en *env) {
	s := &en.rec.strata[en.bucket]
	s.calls++
	s.pending += 1 + en.work
	c.work += 1 + en.work
}

// start reads the clock at the start of a fixpoint entry when profiling.
func (c *counters) start() {
	if c.profile {
		c.last = obs.ClockNS()
	}
}

// flush ends a fixpoint entry: it reads the clock and splits the time
// since start over the strata with pending work, in proportion to it (the
// last one takes the rounding remainder, so nothing is lost). Only this
// entry's writes left work pending, so every stratum written here is in
// a record the block owns.
func (c *counters) flush() {
	if c.work == 0 {
		return
	}
	elapsed := obs.ClockNS() - c.last
	rest := elapsed
	var last *stratum
	for _, rec := range c.rules {
		for i := range rec.strata {
			if s := &rec.strata[i]; s.pending > 0 {
				// pending <= work, so the quotient fits in a word.
				hi, lo := bits.Mul64(uint64(elapsed), uint64(s.pending))
				q, _ := bits.Div64(hi, lo, uint64(c.work))
				s.ns += int64(q)
				rest -= int64(q)
				s.pending = 0
				last = s
			}
		}
	}
	last.ns += rest
	c.work = 0
}

// EnableProfile turns the join profiler on: from the next invocation on,
// each rule's record also counts per timestamp stratum.
func (e *Evaluator) EnableProfile() { e.ctr.profile = true }

// Stats returns a snapshot of the work counters, built from the counter
// block; the evaluator keeps counting into its own records.
func (e *Evaluator) Stats() Stats {
	s := Stats{Sweeps: e.ctr.sweeps, Rules: make([]RuleStat, len(e.rules)), Index: make(map[string]*IndexStat)}
	for i, rec := range e.ctr.rules {
		r := &e.rules[i]
		s.Rules[i] = RuleStat{Rule: r.text, Firings: rec.firings, Derived: rec.derived}
		s.Firings += rec.firings
		s.Derived += rec.derived
		for li, lc := range rec.lits {
			ix := s.Index[r.body[li].Pred]
			if ix == nil {
				ix = &IndexStat{}
				s.Index[r.body[li].Pred] = ix
			}
			ix.Probes += lc.probes
			ix.Scans += lc.scans
		}
	}
	return s
}

// Totals returns Stats' aggregate counters read in place, without the
// per-rule and per-index tables: it allocates nothing.
func (e *Evaluator) Totals() (derived, firings, sweeps int) {
	firings, derived = e.ctr.totals()
	return derived, firings, e.ctr.sweeps
}

// RuleFirings returns rule i's successful body instantiations so far,
// read in place: Stats().Rules[i].Firings without the snapshot.
func (e *Evaluator) RuleFirings(i int) int { return e.ctr.rules[i].firings }
