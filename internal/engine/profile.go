package engine

// tddprof: the operator-level join profiler. Where the trace layer
// (internal/obs) stops at the fixpoint phase, the profiler attributes
// evaluation cost *inside* rule bodies: per (rule, body-literal
// position) it counts tuples scanned and bindings matched, bucketed by
// timestamp stratum, and measures per-rule join wall time; alongside it
// captures per-predicate per-state cardinality tables from the store.
// Together these are the cost-model inputs join ordering needs
// (ROADMAP item 1): selectivity = matched/scanned per literal,
// cardinality per predicate per stratum.
//
// The profile is a view of the evaluator's counter block (counters.go):
// its cells sit in each rule's record beside the firing and index
// counters, so a profile belongs to one evaluator's lineage and a clone's
// work never shows in its parent's. When profiling is off the join loop
// pays one flag test per hook site. When on, the per-tuple cost is one
// register increment, flushed to the literal's stratum cell once per
// scan, and an invocation (fireRule / fireDelta) costs a few more adds:
// on interned rows an invocation is a few hundred nanoseconds — delta
// propagation fires one per derived fact — so reading the clock around
// each would cost more than the join it times. The clock is read at the
// two ends of a fixpoint entry (EnsureWindow, PropagateDelta) and the
// interval is split over the (rule, stratum) cells the entry touched by
// the work each did (rows scanned plus bindings matched, plus one per
// invocation); per-literal times are then attributed from the rule's
// time proportionally to scan volume. Every nanosecond of the entry is
// charged to some rule, so the rule times add up to the fixpoint entry,
// and the scan/match counters are a function of the store content alone,
// bit-identical across repeated runs, exactly like Stats.

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"tdd/internal/obs"
)

// stratumOf buckets a timestamp into its power-of-two stratum: t=0 is
// bucket 0, and bucket b >= 1 covers [2^(b-1), 2^b). Exact per-state
// tables would be unbounded in the window; the certified model repeats
// past base+period anyway, so log-spaced strata retain the shape
// (startup vs. steady-state cost) at a fixed size.
func stratumOf(t int) int {
	if t <= 0 {
		return 0
	}
	return bits.Len(uint(t))
}

// stratumBounds returns the inclusive timestamp range of bucket b.
func stratumBounds(b int) (lo, hi int) {
	if b <= 0 {
		return 0, 0
	}
	return 1 << (b - 1), 1<<b - 1
}

// --- snapshot (EXPLAIN ANALYZE) ---------------------------------------

// LitStratumJSON is one literal's scan counters within one timestamp
// stratum.
type LitStratumJSON struct {
	Lo      int   `json:"lo"`
	Hi      int   `json:"hi"`
	Scanned int64 `json:"scanned"`
	Matched int64 `json:"matched"`
}

// LiteralProfileJSON is one body literal's row of the EXPLAIN ANALYZE
// tree. Us is the rule's measured join time attributed to this literal
// proportionally to its share of tuples scanned.
type LiteralProfileJSON struct {
	Pos         int              `json:"pos"`
	Literal     string           `json:"literal"`
	Scanned     int64            `json:"scanned"`
	Matched     int64            `json:"matched"`
	Selectivity float64          `json:"selectivity"`
	Us          int64            `json:"us"`
	Strata      []LitStratumJSON `json:"strata,omitempty"`
}

// RuleStratumJSON is one rule's invocation count and join time within
// one timestamp stratum.
type RuleStratumJSON struct {
	Lo    int   `json:"lo"`
	Hi    int   `json:"hi"`
	Calls int64 `json:"calls"`
	Us    int64 `json:"us"`
}

// RuleProfileJSON is one rule's node of the EXPLAIN ANALYZE tree.
type RuleProfileJSON struct {
	Rule     string               `json:"rule"`
	Calls    int64                `json:"calls"`
	Us       int64                `json:"us"`
	Literals []LiteralProfileJSON `json:"literals"`
	Strata   []RuleStratumJSON    `json:"strata,omitempty"`
}

// CardStratumJSON is one predicate's fact count within one timestamp
// stratum.
type CardStratumJSON struct {
	Lo    int   `json:"lo"`
	Hi    int   `json:"hi"`
	Facts int64 `json:"facts"`
}

// PredCardJSON is one predicate's cardinality table: total facts,
// distinct occupied states, and the per-stratum distribution (temporal
// predicates only).
type PredCardJSON struct {
	Pred     string            `json:"pred"`
	Temporal bool              `json:"temporal"`
	Facts    int64             `json:"facts"`
	States   int               `json:"states,omitempty"`
	MaxT     int               `json:"max_t,omitempty"`
	Strata   []CardStratumJSON `json:"strata,omitempty"`
}

// DominantJSON names the single most expensive (rule, literal) join of
// the profile — the headline of the EXPLAIN ANALYZE output.
type DominantJSON struct {
	Rule    string `json:"rule"`
	Pos     int    `json:"pos"`
	Literal string `json:"literal"`
	Us      int64  `json:"us"`
	Scanned int64  `json:"scanned"`
}

// ProfileJSON is the wire/report form of a profile snapshot: the
// EXPLAIN ANALYZE tree (rules descending by join time) plus the
// per-predicate cardinality tables.
type ProfileJSON struct {
	Window        int               `json:"window"`
	JoinUs        int64             `json:"join_us"`
	Dominant      *DominantJSON     `json:"dominant,omitempty"`
	Rules         []RuleProfileJSON `json:"rules"`
	Cardinalities []PredCardJSON    `json:"cardinalities"`
}

// ProfileSnapshot renders the profile from the counter block, with
// cardinalities from the evaluator's current store. Nil when profiling is
// disabled.
func (e *Evaluator) ProfileSnapshot() *ProfileJSON {
	if !e.ctr.profile {
		return nil
	}
	out := &ProfileJSON{Window: e.evaluated}
	for ri, rec := range e.ctr.rules {
		if len(rec.strata) == 0 {
			continue
		}
		r := &e.rules[ri]
		rp := RuleProfileJSON{Rule: r.text}
		for bu, c := range rec.strata {
			if c.calls == 0 && c.ns == 0 {
				continue
			}
			lo, hi := stratumBounds(bu)
			rp.Calls += c.calls
			rp.Us += c.ns / 1e3
			rp.Strata = append(rp.Strata, RuleStratumJSON{Lo: lo, Hi: hi, Calls: c.calls, Us: c.ns / 1e3})
		}
		var totalScanned int64
		n := len(r.body)
		for li := range r.body {
			lp := LiteralProfileJSON{Pos: li, Literal: r.body[li].String()}
			for bu := range rec.strata {
				c := rec.cells[bu*n+li]
				if c.scanned == 0 && c.matched == 0 {
					continue
				}
				lo, hi := stratumBounds(bu)
				lp.Scanned += c.scanned
				lp.Matched += c.matched
				lp.Strata = append(lp.Strata, LitStratumJSON{Lo: lo, Hi: hi, Scanned: c.scanned, Matched: c.matched})
			}
			if lp.Scanned > 0 {
				lp.Selectivity = float64(lp.Matched) / float64(lp.Scanned)
			}
			totalScanned += lp.Scanned
			rp.Literals = append(rp.Literals, lp)
		}
		// Attribute the rule's measured join time across its literals by
		// scan volume; the remainder (empty scans) stays on literal 0 so
		// the per-literal sum always reconciles with the rule total.
		if len(rp.Literals) > 0 {
			var attributed int64
			for li := range rp.Literals {
				if totalScanned > 0 {
					rp.Literals[li].Us = rp.Us * rp.Literals[li].Scanned / totalScanned
				}
				attributed += rp.Literals[li].Us
			}
			rp.Literals[0].Us += rp.Us - attributed
		}
		out.JoinUs += rp.Us
		out.Rules = append(out.Rules, rp)
	}
	sort.SliceStable(out.Rules, func(i, j int) bool { return out.Rules[i].Us > out.Rules[j].Us })
	// The dominant *join* is the costliest non-leading literal; literal 0
	// is the outer scan, not a join. Fall back to the costliest outer
	// scan only when no rule has a second literal.
	pick := func(minPos int) *DominantJSON {
		var d *DominantJSON
		for ri := range out.Rules {
			rp := &out.Rules[ri]
			for li := range rp.Literals {
				lp := &rp.Literals[li]
				if lp.Pos < minPos {
					continue
				}
				if d == nil || lp.Us > d.Us {
					d = &DominantJSON{Rule: rp.Rule, Pos: lp.Pos, Literal: lp.Literal, Us: lp.Us, Scanned: lp.Scanned}
				}
			}
		}
		return d
	}
	if out.Dominant = pick(1); out.Dominant == nil {
		out.Dominant = pick(0)
	}
	out.Cardinalities = e.cardinalities()
	return out
}

// cardinalities builds the per-predicate cardinality tables, sorted by
// predicate name for deterministic output. Facts and States come from
// the store's incrementally maintained counters — the exact snapshot
// the join-order planner reads (plan.go) — so the profile reports the
// planner's own cost-model inputs; only the per-stratum distribution
// still walks the time shards.
func (e *Evaluator) cardinalities() []PredCardJSON {
	var out []PredCardJSON
	for i := range e.store.rels {
		pr := &e.store.rels[i]
		sig := e.store.syms.pred(uint32(i))
		if !sig.temporal {
			if pr.nt != nil {
				out = append(out, PredCardJSON{Pred: sig.name, Facts: int64(pr.facts)})
			}
			continue
		}
		if pr.states == 0 {
			continue
		}
		pc := PredCardJSON{Pred: sig.name, Temporal: true, Facts: int64(pr.facts), States: pr.states}
		var strata []CardStratumJSON
		pr.each(func(t int, rs *relset) {
			n := rs.size()
			if n == 0 {
				return
			}
			if t > pc.MaxT {
				pc.MaxT = t
			}
			bu := stratumOf(t)
			for len(strata) <= bu {
				lo, hi := stratumBounds(len(strata))
				strata = append(strata, CardStratumJSON{Lo: lo, Hi: hi})
			}
			strata[bu].Facts += int64(n)
		})
		for _, s := range strata {
			if s.Facts > 0 {
				pc.Strata = append(pc.Strata, s)
			}
		}
		out = append(out, pc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pred < out[j].Pred })
	return out
}

// Tree renders the snapshot as an EXPLAIN ANALYZE text tree: rules
// descending by join time, each with its per-literal scan/match/time
// rows, followed by the cardinality tables.
func (p *ProfileJSON) Tree() string {
	if p == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "profile  window=%d join=%s rules=%d\n", p.Window, obs.FormatUs(p.JoinUs), len(p.Rules))
	if p.Dominant != nil {
		fmt.Fprintf(&b, "dominant join: [%d] %s in %s  (%s, scanned=%d)\n",
			p.Dominant.Pos, p.Dominant.Literal, p.Dominant.Rule, obs.FormatUs(p.Dominant.Us), p.Dominant.Scanned)
	}
	for _, r := range p.Rules {
		share := ""
		if p.JoinUs > 0 {
			share = fmt.Sprintf(" (%.1f%%)", 100*float64(r.Us)/float64(p.JoinUs))
		}
		fmt.Fprintf(&b, "  %s  calls=%d time=%s%s\n", r.Rule, r.Calls, obs.FormatUs(r.Us), share)
		for _, l := range r.Literals {
			fmt.Fprintf(&b, "    [%d] %-24s scanned=%d matched=%d sel=%.1f%% time=%s\n",
				l.Pos, l.Literal, l.Scanned, l.Matched, 100*l.Selectivity, obs.FormatUs(l.Us))
		}
		if len(r.Strata) > 1 {
			parts := make([]string, 0, len(r.Strata))
			for _, s := range r.Strata {
				parts = append(parts, fmt.Sprintf("t∈[%d,%d] calls=%d time=%s", s.Lo, s.Hi, s.Calls, obs.FormatUs(s.Us)))
			}
			fmt.Fprintf(&b, "    strata: %s\n", strings.Join(parts, "; "))
		}
	}
	if len(p.Cardinalities) > 0 {
		b.WriteString("cardinalities:\n")
		for _, c := range p.Cardinalities {
			if c.Temporal {
				fmt.Fprintf(&b, "  %-16s temporal facts=%d states=%d max_t=%d\n", c.Pred, c.Facts, c.States, c.MaxT)
			} else {
				fmt.Fprintf(&b, "  %-16s facts=%d\n", c.Pred, c.Facts)
			}
		}
	}
	return b.String()
}
