package engine

import (
	"fmt"

	"tdd/internal/ast"
	"tdd/internal/obs"
	"tdd/internal/progan"
)

// RuleStat is the per-rule slice of the work counters: how often one rule
// fired (successful body instantiations) and how many new facts it
// derived. The slice order matches the program's rule order.
type RuleStat struct {
	Rule    string `json:"rule"`
	Firings int    `json:"firings"`
	Derived int    `json:"derived"`
}

// Stats accumulates work counters for experiments, tests, and telemetry.
// The aggregate counters (Derived, Firings, Sweeps) are the historical
// core; the per-rule, per-sweep, per-timestamp extensions feed the
// tracing layer (?trace=1 firing tables, tddstream :stats) without any
// package-local side channel.
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
	// SweepSizes records the number of facts each full-window re-sweep
	// added, in sweep order (len(SweepSizes) == Sweeps).
	SweepSizes []int
	// DeltaByTime records, per timestamp, how many facts semi-naive delta
	// propagation (PropagateDelta) derived there; key -1 collects derived
	// non-temporal facts.
	DeltaByTime map[int]int
	// StoreGrowth records the total store size after each window
	// extension (EnsureWindow call that did work), oldest first.
	StoreGrowth []int
	// Index counts join-side relation accesses per body predicate: index
	// bucket probes vs full scans (see IndexStat, plan.go). Like every
	// other counter it is bit-identical across repeated runs.
	Index map[string]*IndexStat
}

// Clone deep-copies the stats so a snapshot does not alias the
// evaluator's live counters. The Index cells in particular are written
// through cached pointers on the join hot path, so sharing them between
// an evaluator and its clone (or a snapshot) would corrupt both under
// concurrent ingestion.
func (s Stats) Clone() Stats {
	c := s
	c.Rules = append([]RuleStat(nil), s.Rules...)
	c.SweepSizes = append([]int(nil), s.SweepSizes...)
	c.StoreGrowth = append([]int(nil), s.StoreGrowth...)
	if s.DeltaByTime != nil {
		c.DeltaByTime = make(map[int]int, len(s.DeltaByTime))
		for k, v := range s.DeltaByTime {
			c.DeltaByTime[k] = v
		}
	}
	if s.Index != nil {
		c.Index = make(map[string]*IndexStat, len(s.Index))
		for k, v := range s.Index {
			cv := *v
			c.Index[k] = &cv
		}
	}
	return c
}

// carg is one compiled argument position: a slot number for a variable,
// or slot -1 with the literal text for a constant. Slots are per-rule,
// assigned in order of first appearance across the body then the head.
type carg struct {
	slot int
	name string
}

// crule is a compiled (shift-normalized) rule.
type crule struct {
	src          ast.Rule
	head         ast.Atom
	body         []ast.Atom
	idx          int    // position in the program's rule order (per-rule stats)
	timeVar      string // "" if the rule has no temporal variable
	headDepth    int    // temporal head depth after shifting; -1 if head non-temporal
	maxBodyDepth int    // max temporal body depth after shifting; -1 if none
	// nslots is the rule's variable-slot count; headC/bodyC are the
	// slot-compiled argument lists (parallel to head.Args / body[i].Args).
	nslots int
	headC  []carg
	bodyC  [][]carg
}

// Evaluator computes the least model of prog ∧ db restricted to a growing
// temporal window.
type Evaluator struct {
	prog  *ast.Program
	db    *ast.Database
	store *Store
	rules []crule
	// evaluated is the largest time point the window has been closed to;
	// -1 before the first EnsureWindow.
	evaluated int
	stats     Stats
	// prov, when non-nil, records the first derivation of every derived
	// fact (see provenance.go).
	prov map[string]*Derivation
	// occ indexes rules by body predicate for semi-naive delta
	// propagation; built lazily by the first PropagateDelta (delta.go).
	occ map[string][]occurrence
	// baseSet is the set of database facts (by factKey), built lazily by
	// the first InsertBase so duplicate base asserts are detected against
	// the database rather than the derived store (delta.go).
	baseSet map[string]bool
	// tr, when non-nil, receives fixpoint/sweep/delta spans; nil tracing
	// costs one pointer comparison per EnsureWindow/PropagateDelta call.
	tr *obs.Trace
	// prof, when non-nil, receives per-(rule, body-literal) scan/match
	// counters and per-rule join wall time (profile.go); nil profiling
	// costs one nil check per hook site.
	prof *Profile
	// mode selects the join strategy (plan.go); JoinIndexed by default.
	mode JoinMode
	// derived marks predicates appearing in some rule head: the planner
	// treats their empty relations as database-sized rather than free,
	// since they can grow within a fixpoint entry (plan.go).
	derived map[string]bool
	// bounds is the static bounds pass over (prog, db): provable emptiness
	// and cold-relation support seeds for the planner. Recomputed by
	// planJoins whenever the database has grown (boundsFacts is the cache
	// key — the database is append-only). A pure function of the snapshot,
	// so it is identical across runs and clone lineages.
	bounds      *progan.Bounds
	boundsFacts int
	// plans/deltaPlans are the per-rule join orders, recomputed at every
	// fixpoint entry by planJoins; deltaPlans[i][pin] is rule i's plan
	// with body literal pin pre-bound (plan.go).
	plans      []joinPlan
	deltaPlans [][]joinPlan
	// maxSlots sizes the scratch binding environment; en/headBuf/keyBuf
	// are reused across firings (the evaluator is single-writer, so one
	// scratch set suffices).
	maxSlots int
	en       env
	headBuf  []string
	keyBuf   []byte
}

// New compiles and validates a program/database pair. The program must be
// range-restricted, semi-normal, and forward; see ast.ValidateProgram.
func New(prog *ast.Program, db *ast.Database) (*Evaluator, error) {
	if err := ast.ValidateProgram(prog); err != nil {
		return nil, err
	}
	if err := db.CheckAgainst(prog); err != nil {
		return nil, err
	}
	e := &Evaluator{prog: prog, db: db, store: NewStore(), evaluated: -1}
	for _, r := range prog.Rules {
		// Rules are compiled with their ORIGINAL depths. Shifting all
		// depths down by the rule's minimum is not a semantic equivalence:
		// the temporal variable ranges over 0,1,2,..., so
		// p(T+3) :- q(T+1) has no instance deriving p(2) — the shifted
		// rule p(T+2) :- q(T) does. The head depth below doubles as the
		// rule's enabling time: the rule contributes to states t with
		// t - headDepth >= 0 only.
		s := r.Clone()
		c := crule{src: r, head: s.Head, body: s.Body, idx: len(e.rules), headDepth: -1, maxBodyDepth: -1}
		if tv := s.TemporalVars(); len(tv) == 1 {
			c.timeVar = tv[0]
		}
		if s.Head.Time != nil {
			c.headDepth = s.Head.Time.Depth
		}
		for _, a := range s.Body {
			if a.Time != nil && !a.Time.Ground() && a.Time.Depth > c.maxBodyDepth {
				c.maxBodyDepth = a.Time.Depth
			}
		}
		// Slot-compile the arguments: data variables become integer slots
		// in the binding environment (the temporal variable lives in
		// env.time and never appears as a data argument slot).
		slots := make(map[string]int)
		compile := func(args []ast.Symbol) []carg {
			out := make([]carg, len(args))
			for i, sym := range args {
				if !sym.IsVar {
					out[i] = carg{slot: -1, name: sym.Name}
					continue
				}
				sl, ok := slots[sym.Name]
				if !ok {
					sl = len(slots)
					slots[sym.Name] = sl
				}
				out[i] = carg{slot: sl}
			}
			return out
		}
		c.bodyC = make([][]carg, len(c.body))
		for i := range c.body {
			c.bodyC[i] = compile(c.body[i].Args)
		}
		c.headC = compile(c.head.Args)
		c.nslots = len(slots)
		if c.nslots > e.maxSlots {
			e.maxSlots = c.nslots
		}
		e.rules = append(e.rules, c)
	}
	e.derived = make(map[string]bool, len(e.rules))
	for i := range e.rules {
		e.derived[e.rules[i].head.Pred] = true
	}
	e.stats.Rules = make([]RuleStat, len(e.rules))
	for i := range e.rules {
		e.stats.Rules[i].Rule = e.rules[i].src.String()
	}
	for _, f := range db.Facts {
		e.store.Insert(f)
	}
	return e, nil
}

// Store exposes the fact store (read-only by convention).
func (e *Evaluator) Store() *Store { return e.store }

// Stats returns a snapshot of the accumulated work counters (the
// extension slices and index cells are deep-copied; the evaluator keeps
// counting).
func (e *Evaluator) Stats() Stats { return e.stats.Clone() }

// SetJoinMode selects the join strategy (see plan.go): JoinIndexed — the
// default — plans the body order and probes multi-column hash indexes;
// JoinNestedLoop is the historical source-order nested-loop engine, kept
// as a differential baseline. Both compute the same least model; work
// counters that depend on enumeration order (Firings, per-rule
// attribution, profiler scan counts) are comparable only within one
// mode. Callers set the mode before evaluation starts.
func (e *Evaluator) SetJoinMode(m JoinMode) { e.mode = m }

// JoinMode returns the configured join strategy.
func (e *Evaluator) JoinMode() JoinMode { return e.mode }

// SetTrace attaches (or, with nil, detaches) a trace: EnsureWindow and
// PropagateDelta record fixpoint/sweep/delta spans into it. Callers
// attach before evaluation starts; the engine never locks around it.
func (e *Evaluator) SetTrace(tr *obs.Trace) { e.tr = tr }

// Trace returns the attached trace (nil when tracing is disabled).
func (e *Evaluator) Trace() *obs.Trace { return e.tr }

// Database returns the database the evaluator was built with.
func (e *Evaluator) Database() *ast.Database { return e.db }

// Program returns the program the evaluator was built with.
func (e *Evaluator) Program() *ast.Program { return e.prog }

// Window returns the largest time point the model is closed to (-1 before
// the first EnsureWindow call).
func (e *Evaluator) Window() int { return e.evaluated }

// EnsureWindow extends the evaluated window to cover 0..m. It is
// incremental: previously closed states are reused, except that newly
// derived non-temporal facts trigger a re-sweep of the whole window (the
// outer fixpoint of algorithm BT's "until L_nt = L'_nt" condition).
func (e *Evaluator) EnsureWindow(m int) {
	if m <= e.evaluated {
		return
	}
	e.prof.lock()
	defer e.prof.unlock()
	e.planJoins()
	sp := e.tr.Begin("fixpoint")
	from := e.evaluated
	f0, d0, s0 := e.stats.Firings, e.stats.Derived, e.stats.Sweeps
	ext := e.tr.Begin("extend")
	for t := e.evaluated + 1; t <= m; t++ {
		e.evalState(t, m)
	}
	e.evaluated = m
	ext.Add("states", int64(m-from))
	ext.Add("derived", int64(e.stats.Derived-d0))
	ext.End()
	// Outer fixpoint: close non-temporal consequences, re-sweeping the
	// temporal window until nothing changes.
	for {
		nt := e.evalNonTemporalRules(m)
		if nt == 0 {
			break
		}
		for {
			added := 0
			e.stats.Sweeps++
			ssp := e.tr.Begin("sweep")
			sf0 := e.stats.Firings
			for t := 0; t <= m; t++ {
				added += e.evalState(t, m)
			}
			e.stats.SweepSizes = append(e.stats.SweepSizes, added)
			ssp.Add("added", int64(added))
			ssp.Add("firings", int64(e.stats.Firings-sf0))
			ssp.End()
			if added == 0 {
				break
			}
		}
	}
	e.stats.StoreGrowth = append(e.stats.StoreGrowth, e.store.Len())
	sp.Add("window", int64(m))
	sp.Add("firings", int64(e.stats.Firings-f0))
	sp.Add("derived", int64(e.stats.Derived-d0))
	sp.Add("sweeps", int64(e.stats.Sweeps-s0))
	sp.Add("store_len", int64(e.store.Len()))
	sp.End()
}

// Holds reports whether the fact is in the least model. The window must
// already cover the fact's time (callers use EnsureWindow or algorithm BT).
func (e *Evaluator) Holds(f ast.Fact) bool { return e.store.Has(f) }

// evalState closes state t: a local fixpoint over the rules whose head
// lands at time t. Returns the number of new facts.
func (e *Evaluator) evalState(t, m int) int {
	added := 0
	first := true
	for {
		n := 0
		for i := range e.rules {
			r := &e.rules[i]
			if r.headDepth < 0 {
				continue // non-temporal heads handled separately
			}
			// After the first round only rules that can consume facts of
			// state t itself (a body literal at the head's depth) can fire
			// anew.
			if !first && r.maxBodyDepth < r.headDepth {
				continue
			}
			T := t - r.headDepth
			if T < 0 {
				continue
			}
			n += e.fireRule(r, T)
		}
		added += n
		first = false
		if n == 0 {
			return added
		}
	}
}

// evalNonTemporalRules evaluates every rule with a non-temporal head over
// the window 0..m, returning the number of new facts.
func (e *Evaluator) evalNonTemporalRules(m int) int {
	added := 0
	for {
		n := 0
		for i := range e.rules {
			r := &e.rules[i]
			if r.headDepth >= 0 {
				continue
			}
			if r.timeVar == "" {
				n += e.fireRule(r, 0)
				continue
			}
			for T := 0; T+r.maxBodyDepth <= m; T++ {
				n += e.fireRule(r, T)
			}
		}
		added += n
		if n == 0 {
			return added
		}
	}
}

// env is a mutable binding environment with an undo trail. vals is
// indexed by slot; "" means unbound (constants are never empty — the
// parser cannot produce an empty constant and InsertBase rejects empty
// arguments).
type env struct {
	time  int // binding of the rule's temporal variable
	vals  []string
	trail []int
}

func (en *env) undo(mark int) {
	for len(en.trail) > mark {
		sl := en.trail[len(en.trail)-1]
		en.trail = en.trail[:len(en.trail)-1]
		en.vals[sl] = ""
	}
}

// matchCompiled unifies the compiled pattern against the tuple, extending
// en (recording new bindings on the trail). Returns false on mismatch;
// the caller undoes to its mark either way.
func matchCompiled(pat []carg, tup []string, en *env) bool {
	if len(pat) != len(tup) {
		return false
	}
	for i, c := range pat {
		if c.slot < 0 {
			if c.name != tup[i] {
				return false
			}
			continue
		}
		if v := en.vals[c.slot]; v != "" {
			if v != tup[i] {
				return false
			}
			continue
		}
		en.vals[c.slot] = tup[i]
		en.trail = append(en.trail, c.slot)
	}
	return true
}

// appendEnvMaskKey builds the index-bucket key for the masked columns of
// the compiled pattern under the current bindings. Every masked column is
// a constant or a bound slot by plan construction.
func appendEnvMaskKey(dst []byte, pat []carg, mask uint32, en *env) []byte {
	for i := 0; i < len(pat); i++ {
		if mask&(1<<uint(i)) == 0 {
			continue
		}
		if c := pat[i]; c.slot < 0 {
			dst = append(dst, c.name...)
		} else {
			dst = append(dst, en.vals[c.slot]...)
		}
		dst = append(dst, 0)
	}
	return dst
}

// fireRule instantiates rule r with its temporal variable bound to T (T is
// ignored for rules without one) and inserts all derivable head facts.
// Returns the number of new facts.
func (e *Evaluator) fireRule(r *crule, T int) int {
	en := &e.en
	en.time = T
	added := 0
	if e.prof == nil {
		e.join(r, &e.plans[r.idx], 0, en, -1, nil, &added)
		return added
	}
	start := obs.ClockNS()
	e.join(r, &e.plans[r.idx], 0, en, -1, nil, &added)
	c := e.prof.buf.rec(r).ruleCell(stratumOf(T))
	c.calls++
	c.ns += obs.ClockNS() - start
	return added
}

// join matches the body literals in plan order from step si onward, and
// on a complete match emits the head. Each step streams the matching
// index bucket (or, with mask 0, the full relation list) of its literal;
// a negative capm disables the head-time cap (delta propagation caps at
// the window, leaving deeper facts to EnsureWindow). When out is non-nil
// newly derived facts are appended to it (the delta frontier).
func (e *Evaluator) join(r *crule, plan *joinPlan, si int, en *env, capm int, out *[]ast.Fact, added *int) {
	if si == len(plan.steps) {
		if capm >= 0 && r.head.Time != nil && en.time+r.head.Time.Depth > capm {
			return
		}
		if f, ok := e.emit(r, en); ok {
			*added++
			if out != nil {
				*out = append(*out, f)
			}
		}
		return
	}
	st := &plan.steps[si]
	a := &r.body[st.lit]
	var rs *relset
	if a.Time != nil {
		rs = e.store.at(a.Pred, en.time+a.Time.Depth)
	} else {
		rs = e.store.nt(a.Pred)
	}
	if rs == nil {
		return
	}
	*st.ctr++
	pat := r.bodyC[st.lit]
	var tuples [][]string
	if st.mask != 0 {
		e.keyBuf = appendEnvMaskKey(e.keyBuf[:0], pat, st.mask, en)
		tuples = rs.bucket(st.mask, e.keyBuf)
	} else {
		tuples = rs.list
	}
	// The profiled and unprofiled loops are kept separate so the
	// uninstrumented hot path carries no per-tuple branches, and the
	// profiled one pays only a local register increment per match:
	// scanned is exactly len(tuples) (every tuple is visited), and
	// matched flushes to the stratum cell once per scan. The cell
	// pointer stays valid across the recursion because each step binds
	// a distinct body literal, so deeper steps grow other lit slices.
	if e.prof != nil {
		lc := e.prof.buf.rec(r).litCell(st.lit, stratumOf(en.time))
		lc.scanned += int64(len(tuples))
		matched := int64(0)
		for _, tup := range tuples {
			mark := len(en.trail)
			if matchCompiled(pat, tup, en) {
				matched++
				e.join(r, plan, si+1, en, capm, out, added)
			}
			en.undo(mark)
		}
		lc.matched += matched
		return
	}
	for _, tup := range tuples {
		mark := len(en.trail)
		if matchCompiled(pat, tup, en) {
			e.join(r, plan, si+1, en, capm, out, added)
		}
		en.undo(mark)
	}
}

// emit fires rule r under the complete binding en: it instantiates the
// head and inserts it, maintaining the work counters and (when enabled)
// provenance. It reports the head fact and whether it was new. The
// duplicate case — the overwhelmingly common one at fixpoint — allocates
// nothing: the head is built into a scratch buffer and membership is
// probed with a byte-slice key.
func (e *Evaluator) emit(r *crule, en *env) (ast.Fact, bool) {
	e.stats.Firings++
	e.stats.Rules[r.idx].Firings++
	hb := e.headBuf[:0]
	for _, c := range r.headC {
		if c.slot < 0 {
			hb = append(hb, c.name)
			continue
		}
		v := en.vals[c.slot]
		if v == "" {
			panic(fmt.Sprintf("engine: unbound head variable in %s", r.src))
		}
		hb = append(hb, v)
	}
	e.headBuf = hb
	temporal := r.head.Time != nil
	t := 0
	var rs *relset
	if temporal {
		t = en.time + r.head.Time.Depth
		rs = e.store.at(r.head.Pred, t)
	} else {
		rs = e.store.nt(r.head.Pred)
	}
	if rs != nil {
		e.keyBuf = appendTupleKey(e.keyBuf[:0], hb)
		if rs.hasKey(e.keyBuf) {
			return ast.Fact{}, false
		}
	}
	f := ast.Fact{Pred: r.head.Pred, Temporal: temporal, Time: t, Args: append([]string(nil), hb...)}
	e.store.Insert(f)
	e.stats.Derived++
	e.stats.Rules[r.idx].Derived++
	if e.prov != nil {
		body := make([]ast.Fact, len(r.body))
		for j := range r.body {
			body[j] = factFor(&r.body[j], r.bodyC[j], en)
		}
		e.prov[factKey(f)] = &Derivation{Rule: r.src, Time: en.time, Body: body}
	}
	return f, true
}

// factFor builds the ground fact of one rule atom under en (head or body;
// every variable must be bound — the rule is range-restricted).
func factFor(a *ast.Atom, pat []carg, en *env) ast.Fact {
	f := ast.Fact{Pred: a.Pred}
	if a.Time != nil {
		f.Temporal = true
		f.Time = en.time + a.Time.Depth
	}
	f.Args = make([]string, len(pat))
	for i, c := range pat {
		if c.slot < 0 {
			f.Args[i] = c.name
			continue
		}
		v := en.vals[c.slot]
		if v == "" {
			panic(fmt.Sprintf("engine: unbound variable in %s", a))
		}
		f.Args[i] = v
	}
	return f
}
