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
// The design follows obs's nil-receiver discipline: a nil *Profile is
// fully inert and every engine hook costs one nil check when profiling
// is disabled. When enabled, the per-tuple cost is one counter
// increment on a cell pointer resolved once per rule invocation, and an
// invocation (fireRule / fireDelta) costs a few more adds: on interned
// rows an invocation is a few hundred nanoseconds — delta propagation
// fires one per derived fact — so reading the clock around each, as the
// profiler did when a firing built strings, would cost more than the
// join it times. The clock is read once per lapEvery invocations (and
// at both ends of a fixpoint entry) and the measured interval is split
// over the invocations in it by the work each did (rows scanned plus
// bindings matched); per-literal times are then attributed from the
// rule's time proportionally to scan volume, as before. Everything
// between lock and unlock is charged to some rule, so the rule times
// add up to the fixpoint entry. That keeps the enabled profiler inside
// its 5% budget (E17) while the per-literal sums still reconcile with
// the measured fixpoint phase.
//
// Concurrency: counters are written only while the profile's mutex is
// held. The engine takes the lock once per fixpoint entry (EnsureWindow /
// PropagateDelta) and yields it between laps; the scan/match counters it
// writes are a function of the store content alone, so they are
// bit-identical across repeated runs, exactly like Stats. Snapshot takes
// the same lock, which makes it safe against a clone (Assert path) still
// writing to the shared profile from another goroutine, and waits for a
// lap of that clone's entry, not for the whole of it.

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"

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

// litCell accumulates one body literal's scan counters within one
// stratum.
type litCell struct {
	scanned int64 // tuples visited from the relation set
	matched int64 // visits that unified with the pattern
}

// ruleCell accumulates, within one stratum, one rule's invocations and
// join wall time and its body literals' scan counters (lits is parallel
// to the rule body). pending is the work done since the last clock
// reading, not yet converted to time (see Profile.flush).
type ruleCell struct {
	calls   int64
	ns      int64
	pending int64
	lits    []litCell
}

// ruleRec is one rule's counter block: one cell per stratum.
type ruleRec struct {
	nlits  int
	strata []ruleCell
}

// profBuf is the counter block inside a Profile, written under its
// mutex.
type profBuf struct {
	rules []*ruleRec
}

func newProfBuf(n int) *profBuf { return &profBuf{rules: make([]*ruleRec, n)} }

// rec returns (allocating on first touch) the rule's counter block.
func (b *profBuf) rec(r *crule) *ruleRec {
	rec := b.rules[r.idx]
	if rec == nil {
		rec = &ruleRec{nlits: len(r.body)}
		b.rules[r.idx] = rec
	}
	return rec
}

// cell returns (growing the record on first touch) the stratum's cell.
// Growing moves the cells: a pointer is good until the next call.
func (rec *ruleRec) cell(bucket int) *ruleCell {
	for len(rec.strata) <= bucket {
		rec.strata = append(rec.strata, ruleCell{lits: make([]litCell, rec.nlits)})
	}
	return &rec.strata[bucket]
}

// Profile is the engine-side join profiler. A nil *Profile is inert;
// see EnableProfile. Clones (the Assert copy-on-write path) share the
// pointer, so a profile accumulates over a database's whole lifetime —
// certification, window growth, and every delta propagation.
type Profile struct {
	mu  sync.Mutex
	buf *profBuf
	// The lap state, under mu: the clock at the previous reading, the
	// invocations left until the next one, and the cells (by rule record
	// and stratum — cell addresses move when a record grows) holding
	// pending work, whose sum is work.
	last int64
	due  int
	work int64
	open []openCell
}

type openCell struct {
	rec    *ruleRec
	bucket int
}

// lapEvery is the number of rule invocations per clock reading.
const lapEvery = 256

// lock/unlock bracket one fixpoint entry; nil-safe. lock starts the lap
// clock, unlock charges what is pending.
func (p *Profile) lock() {
	if p != nil {
		p.mu.Lock()
		p.last, p.due = obs.ClockNS(), lapEvery
	}
}

func (p *Profile) unlock() {
	if p != nil {
		p.flush()
		p.mu.Unlock()
	}
}

// enter starts one invocation of rule r at the binding en.time: the
// join steps count into en.cell, the rule's cell for that stratum (good
// for the invocation: a record only grows here).
func (p *Profile) enter(r *crule, en *env) {
	en.cell = p.buf.rec(r).cell(stratumOf(en.time))
	en.work = 0
}

// exit ends the invocation: it counts the call and books its work (one
// unit plus the rows it scanned and matched) against the next clock
// reading.
func (p *Profile) exit(r *crule, en *env) {
	c := en.cell
	c.calls++
	if c.pending == 0 {
		p.open = append(p.open, openCell{p.buf.rules[r.idx], stratumOf(en.time)})
	}
	c.pending += 1 + en.work
	p.work += 1 + en.work
	if p.due--; p.due <= 0 {
		p.flush()
		// Between laps no invocation is open and nothing is pending: let a
		// snapshot waiting on the lock in, and restart the clock after it.
		p.mu.Unlock()
		p.mu.Lock()
		p.last = obs.ClockNS()
	}
}

// flush reads the clock and splits the time since the previous reading
// over the cells with pending work, in proportion to it (the last cell
// takes the rounding remainder, so nothing is lost).
func (p *Profile) flush() {
	now := obs.ClockNS()
	rest := now - p.last
	elapsed := rest
	p.last, p.due = now, lapEvery
	for i, oc := range p.open {
		c := &oc.rec.strata[oc.bucket]
		share := rest
		if i < len(p.open)-1 {
			share = elapsed * c.pending / p.work
		}
		c.ns += share
		rest -= share
		c.pending = 0
	}
	p.open, p.work = p.open[:0], 0
}

// EnableProfile attaches a fresh join profiler to the evaluator. A
// no-op when one is already attached.
func (e *Evaluator) EnableProfile() {
	if e.prof == nil {
		e.prof = &Profile{buf: newProfBuf(len(e.rules))}
	}
}

// Profile returns the attached profiler (nil when profiling is
// disabled).
func (e *Evaluator) Profile() *Profile { return e.prof }

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

// ProfileSnapshot renders the accumulated profile: counters under the
// profile lock, cardinalities from the evaluator's current store. Nil
// when profiling is disabled.
func (e *Evaluator) ProfileSnapshot() *ProfileJSON {
	if e.prof == nil {
		return nil
	}
	out := &ProfileJSON{Window: e.evaluated}
	e.prof.mu.Lock()
	for ri, rec := range e.prof.buf.rules {
		if rec == nil {
			continue
		}
		r := &e.rules[ri]
		rp := RuleProfileJSON{Rule: r.src.String()}
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
		for li := range r.body {
			lp := LiteralProfileJSON{Pos: li, Literal: r.body[li].String()}
			for bu := range rec.strata {
				c := rec.strata[bu].lits[li]
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
	e.prof.mu.Unlock()
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
