package engine

import (
	"fmt"
	"math"
	"math/bits"

	"tdd/internal/ast"
	"tdd/internal/obs"
	"tdd/internal/progan"
)

// carg is one compiled argument position: a slot number for a variable,
// or slot -1 with the interned symbol id for a constant. Slots are
// per-rule, assigned in order of first appearance across the body then
// the head.
type carg struct {
	slot int
	id   uint32
}

// crule is a compiled (shift-normalized) rule.
type crule struct {
	src          ast.Rule
	text         string // src.String(): the rule's label in Stats and the profile
	head         ast.Atom
	body         []ast.Atom
	idx          int    // position in the program's rule order (per-rule stats)
	timeVar      string // "" if the rule has no temporal variable
	headDepth    int    // temporal head depth after shifting; -1 if head non-temporal
	maxBodyDepth int    // max temporal body depth after shifting; -1 if none
	// nslots is the rule's variable-slot count; headC/bodyC are the
	// slot-compiled argument lists (parallel to head.Args / body[i].Args)
	// and headP/bodyP the interned predicate ids of the head and of each
	// body literal.
	nslots int
	headC  []carg
	bodyC  [][]carg
	headP  uint32
	bodyP  []uint32
}

// Evaluator computes the least model of prog ∧ db restricted to a growing
// temporal window.
type Evaluator struct {
	prog *ast.Program
	// preds is the database's signature map: the one the evaluator was
	// built with, shared by clones and replaced rather than written when
	// InsertBase admits a predicate. D's facts live only in the store
	// (Facts reads them back).
	preds map[string]ast.PredInfo
	// depth is the database's temporal depth c, kept up to date on
	// insert; lookback and hmax are the program's certificate width G and
	// maximum head depth (Lookback, MaxHeadDepth), computed by New.
	depth    int
	lookback int
	hmax     int
	store    *Store
	rules    []crule
	// evaluated is the largest time point the window has been closed to;
	// -1 before the first EnsureWindow.
	evaluated int
	// ctr is the evaluator's counter block (counters.go): Stats and the
	// join profile are views of it.
	ctr counters
	// prov, when non-nil, records the first derivation of every derived
	// fact (see provenance.go).
	prov map[string]*Derivation
	// occ indexes rules by body predicate id for semi-naive delta
	// propagation (delta.go). Built by New and immutable afterwards; a
	// predicate admitted later by InsertBase has an id beyond it and
	// occurs in no rule.
	occ [][]occurrence
	// tr, when non-nil, receives fixpoint/sweep/delta spans; nil tracing
	// costs one pointer comparison per EnsureWindow/PropagateDelta call.
	tr *obs.Trace
	// derived marks predicates appearing in some rule head: the planner
	// treats their empty relations as database-sized rather than free,
	// since they can grow within a fixpoint entry (plan.go).
	derived map[string]bool
	// bounds is the static bounds pass over the program and the
	// database's predicates: provable emptiness and the closures whose
	// database counts seed cold relations (plan.go). Computed by planJoins
	// and dropped by InsertBase when it admits a predicate; a pure function
	// of the snapshot, so it is identical across runs and clone lineages.
	bounds *progan.Bounds
	// plans/deltaPlans are the per-rule join orders, recomputed at every
	// fixpoint entry by planJoins; deltaPlans[i][pin] is rule i's plan
	// with body literal pin pre-bound (plan.go).
	plans      []joinPlan
	deltaPlans [][]joinPlan
	// maxSlots sizes the scratch binding environment; en/headBuf/keyBuf
	// are reused across firings and delta/next across delta-propagation
	// rounds (the evaluator is single-writer, so one scratch set
	// suffices).
	maxSlots int
	en       env
	headBuf  []uint32
	keyBuf   []uint32
	delta    []dfact
	next     []dfact
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
	e := &Evaluator{prog: prog, preds: db.Preds, store: NewStore(), evaluated: -1}
	e.lookback, e.hmax = Lookback(prog), MaxHeadDepth(prog)
	for _, r := range prog.Rules {
		// Rules are compiled with their ORIGINAL depths. Shifting all
		// depths down by the rule's minimum is not a semantic equivalence:
		// the temporal variable ranges over 0,1,2,..., so
		// p(T+3) :- q(T+1) has no instance deriving p(2) — the shifted
		// rule p(T+2) :- q(T) does. The head depth below doubles as the
		// rule's enabling time: the rule contributes to states t with
		// t - headDepth >= 0 only.
		s := r.Clone()
		c := crule{src: r, text: r.String(), head: s.Head, body: s.Body, idx: len(e.rules), headDepth: -1, maxBodyDepth: -1}
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
		// env.time and never appears as a data argument slot), constants
		// and predicates their interned ids. Interning a rule constant does
		// not put it in the active domain; only a fact that mentions it
		// does (Store.Constants).
		slots := make(map[string]int)
		compile := func(args []ast.Symbol) []carg {
			out := make([]carg, len(args))
			for i, sym := range args {
				if !sym.IsVar {
					out[i] = carg{slot: -1, id: e.store.intern(sym.Name)}
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
		c.bodyP = make([]uint32, len(c.body))
		for i := range c.body {
			a := &c.body[i]
			c.bodyC[i] = compile(a.Args)
			c.bodyP[i] = e.store.internPred(a.Pred, len(a.Args), a.Time != nil)
		}
		c.headC = compile(c.head.Args)
		c.headP = e.store.internPred(c.head.Pred, len(c.head.Args), c.head.Time != nil)
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
	e.ctr.rules = make([]*ruleRec, len(e.rules))
	e.occ = make([][]occurrence, len(e.store.rels))
	for i := range e.rules {
		e.ctr.rules[i] = &ruleRec{lits: make([]litCtr, len(e.rules[i].body)), epoch: e.store.epoch}
		for li, p := range e.rules[i].bodyP {
			e.occ[p] = append(e.occ[p], occurrence{rule: i, lit: li})
		}
	}
	// Count, per predicate, the rows of a rule-head predicate's own
	// database shard (Store.insertBase) and the dense time axis the facts
	// occupy, inserted in order (denseEnd), so each is allocated once at
	// its size.
	type need struct{ rows, axis int }
	var needs []need
	for _, f := range db.Facts {
		if f.Temporal && (f.Time < 0 || int64(f.Time) > math.MaxUint32) {
			return nil, fmt.Errorf("engine: fact %s has a time point outside [0, %d]", f, uint32(math.MaxUint32))
		}
		pred := int(e.store.internPred(f.Pred, len(f.Args), f.Temporal))
		if pred >= len(needs) {
			needs = append(needs, make([]need, len(e.store.rels)-len(needs))...)
		}
		if e.derived[f.Pred] {
			needs[pred].rows++
		}
		if f.Temporal {
			needs[pred].axis = denseEnd(needs[pred].axis, f.Time)
			e.depth = max(e.depth, f.Time)
		}
	}
	for pred, n := range needs {
		e.store.reserve(uint32(pred), n.rows, n.axis)
	}
	for _, f := range db.Facts {
		e.store.insertBase(f, e.derived[f.Pred])
	}
	return e, nil
}

// Lookback returns G, the period certificate's width for prog: the
// maximum of the shift-normalized head depth of its temporal rules and
// the deepest body literal of its non-temporal-head rules, and at least
// 1. period.Lookback documents why the certificate needs exactly this.
func Lookback(prog *ast.Program) int {
	g := 1
	for i := range prog.Rules {
		r := &prog.Rules[i]
		switch lo := r.MinDepth(); {
		case r.Head.Time == nil:
			g = max(g, r.MaxDepth())
		case lo >= 0 && !r.Head.Time.Ground():
			g = max(g, r.Head.Time.Depth-lo) // the shift-normalized head depth
		}
	}
	return g
}

// MaxHeadDepth returns the maximum (original, unshifted) temporal head
// depth over the program's rules; see period.MaxHeadDepth.
func MaxHeadDepth(prog *ast.Program) int {
	h := 0
	for _, r := range prog.Rules {
		if r.Head.Time != nil && !r.Head.Time.Ground() && r.Head.Time.Depth > h {
			h = r.Head.Time.Depth
		}
	}
	return h
}

// Store exposes the fact store (read-only by convention).
func (e *Evaluator) Store() *Store { return e.store }

// SetTrace attaches (or, with nil, detaches) a trace: EnsureWindow and
// PropagateDelta record fixpoint/sweep/delta spans into it. Callers
// attach before evaluation starts; the engine never locks around it.
func (e *Evaluator) SetTrace(tr *obs.Trace) { e.tr = tr }

// Trace returns the attached trace (nil when tracing is disabled).
func (e *Evaluator) Trace() *obs.Trace { return e.tr }

// Database returns the database's signatures — of the one the evaluator
// was built with and of every predicate InsertBase admitted — as a
// database without facts, for the readers that need no more; callers
// must not write the map. Facts reads the facts back.
func (e *Evaluator) Database() *ast.Database { return &ast.Database{Preds: e.preds} }

// Facts returns D: the facts the evaluator was built with and every fact
// InsertBase added, each once, in no particular order. D is read back
// from the store (Store.baseFacts), which holds it once.
func (e *Evaluator) Facts() []ast.Fact {
	facts, _ := e.store.baseFacts(e.derived, nil)
	return facts
}

// SliceFacts returns what a sliced evaluator is built from: the facts of
// D over the predicates keep accepts, without rendering the others, and
// the constants of all of D, sorted — ast.Database.Constants of Facts,
// read from the rows' symbol ids.
func (e *Evaluator) SliceFacts(keep func(pred string) bool) ([]ast.Fact, []string) {
	return e.store.baseFacts(e.derived, keep)
}

// DatabaseDepth returns c, the database's maximum temporal depth
// (ast.Database.MaxDepth), without a pass over the facts.
func (e *Evaluator) DatabaseDepth() int { return e.depth }

// Lookback returns the program's certificate width G (Lookback).
func (e *Evaluator) Lookback() int { return e.lookback }

// MaxHeadDepth returns the program's maximum temporal head depth
// (MaxHeadDepth).
func (e *Evaluator) MaxHeadDepth() int { return e.hmax }

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
	e.planJoins()
	e.store.horizon = m
	e.ctr.start()
	defer e.ctr.flush()
	sp := e.tr.Begin("fixpoint")
	from := e.evaluated
	f0, d0 := e.ctr.totals()
	s0 := e.ctr.sweeps
	ext := e.tr.Begin("extend")
	// A closing state gets its class; one that repeats an earlier state is
	// stored as it, and its own shards build the next state
	// (Store.closeState).
	seen := e.store.openClasses(e.evaluated+1, m)
	for t := e.evaluated + 1; t <= m; t++ {
		e.evalState(t, m)
		e.store.closeState(t, seen)
	}
	e.store.dropSpares()
	e.evaluated = m
	_, d := e.ctr.totals()
	ext.Add("states", int64(m-from))
	ext.Add("derived", int64(d-d0))
	ext.End()
	// Outer fixpoint: close non-temporal consequences, re-sweeping the
	// temporal window until nothing changes. A sweep that adds facts
	// changes closed states: their classes are stale.
	for {
		nt := e.evalNonTemporalRules(m)
		if nt == 0 {
			break
		}
		for {
			added := 0
			e.ctr.sweeps++
			ssp := e.tr.Begin("sweep")
			sf0, _ := e.ctr.totals()
			for t := 0; t <= m; t++ {
				added += e.evalState(t, m)
			}
			sf, _ := e.ctr.totals()
			ssp.Add("added", int64(added))
			ssp.Add("firings", int64(sf-sf0))
			ssp.End()
			if added == 0 {
				break
			}
			e.store.classes = nil
		}
	}
	f, d := e.ctr.totals()
	sp.Add("window", int64(m))
	sp.Add("firings", int64(f-f0))
	sp.Add("derived", int64(d-d0))
	sp.Add("sweeps", int64(e.ctr.sweeps-s0))
	sp.Add("store_len", int64(e.store.Len()))
	sp.End()
}

// Classes returns the class of every closed time point 0..Window() (see
// Store.StateClasses), assigning them again first when a write has made
// them stale or ShareRepeats has kept the representatives' only. It
// writes the store: call it only while the evaluator is private to its
// writer.
func (e *Evaluator) Classes() []uint32 {
	if a := e.store.classes; a == nil || len(a.class) <= e.evaluated {
		e.store.openClasses(e.evaluated+1, e.evaluated)
	}
	return e.store.classes.class
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
// indexed by slot and holds symbol ids; 0 means unbound (the symbol table
// never hands out id 0).
type env struct {
	time  int // binding of the rule's temporal variable
	vals  []uint32
	trail []int
	// rec is the counter record of the rule being fired (counters.own).
	// When profiling (counters.enter/exit), bucket is the stratum of time,
	// cells its literal cells in rec, and work the rows the invocation has
	// scanned and matched so far.
	rec    *ruleRec
	bucket int
	cells  []litCell
	work   int64
}

func (en *env) undo(mark int) {
	for len(en.trail) > mark {
		sl := en.trail[len(en.trail)-1]
		en.trail = en.trail[:len(en.trail)-1]
		en.vals[sl] = 0
	}
}

// matchCompiled unifies the compiled pattern against the row, extending
// en (recording new bindings on the trail). Returns false on mismatch;
// the caller undoes to its mark either way. The row has the pattern's
// arity: predicates are interned by signature.
func matchCompiled(pat []carg, tup []uint32, en *env) bool {
	for i, c := range pat {
		if c.slot < 0 {
			if c.id != tup[i] {
				return false
			}
			continue
		}
		if v := en.vals[c.slot]; v != 0 {
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

// boundKey packs the index-probe key for the masked columns of the
// compiled pattern under the current bindings, in column order. Every
// masked column is a constant or a bound slot by plan construction.
func boundKey(dst []uint32, pat []carg, mask uint32, en *env) []uint32 {
	for i := 0; i < len(pat); i++ {
		if mask&(1<<uint(i)) == 0 {
			continue
		}
		if c := pat[i]; c.slot < 0 {
			dst = append(dst, c.id)
		} else {
			dst = append(dst, en.vals[c.slot])
		}
	}
	return dst
}

// fireRule instantiates rule r with its temporal variable bound to T (T is
// ignored for rules without one) and inserts all derivable head facts.
// Returns the number of new facts.
func (e *Evaluator) fireRule(r *crule, T int) int {
	en := &e.en
	en.time = T
	en.rec = e.ctr.own(r.idx, e.store.epoch)
	added := 0
	if !e.ctr.profile {
		e.join(r, &e.plans[r.idx], 0, en, -1, nil, &added)
		return added
	}
	e.ctr.enter(en)
	e.join(r, &e.plans[r.idx], 0, en, -1, nil, &added)
	e.ctr.exit(en)
	return added
}

// join matches the body literals in plan order from step si onward, and
// on a complete match emits the head. Each step streams the matching
// index group (or, with mask 0, the whole relation) of its literal, or
// for a member step looks its one row up and goes on once on a hit; a
// negative capm disables the head-time cap (delta propagation caps at the
// window, leaving deeper facts to EnsureWindow). When out is non-nil
// newly derived facts are appended to it (the delta frontier).
func (e *Evaluator) join(r *crule, plan *joinPlan, si int, en *env, capm int, out *[]dfact, added *int) {
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
		rs = e.store.at(r.bodyP[st.lit], en.time+a.Time.Depth)
	} else {
		rs = e.store.nt(r.bodyP[st.lit])
	}
	if rs == nil {
		return
	}
	pat := r.bodyC[st.lit]
	var sp rowSpan
	var tail uint64
	if st.mask != 0 {
		en.rec.lits[st.lit].probes++
		e.keyBuf = boundKey(e.keyBuf[:0], pat, st.mask, en)
		if st.member {
			// The key is the whole row and hashes as the row does, so the
			// membership table answers it; a hit profiles as the one-row
			// index group it stands for.
			if _, ok := rs.find(e.keyBuf, hashVals(e.keyBuf)); ok {
				if e.ctr.profile {
					lc := &en.cells[st.lit]
					lc.scanned, lc.matched, en.work = lc.scanned+1, lc.matched+1, en.work+2
				}
				e.join(r, plan, si+1, en, capm, out, added)
			}
			return
		}
		var prev *relset
		if a.Time != nil {
			prev = e.store.at(r.bodyP[st.lit], en.time+a.Time.Depth-1)
		}
		sp, tail = rs.bucket(st.mask, e.keyBuf, prev)
	} else {
		en.rec.lits[st.lit].scans++
		sp, tail = rs.scan()
	}
	if rs.base != nil {
		e.joinOverlay(r, plan, si, en, capm, out, added, rs, sp, tail)
		return
	}
	if !sp.ok {
		return
	}
	// The span and the row slice are taken once: rows are immutable and
	// row numbers stable, so an emit further down that appends to this
	// very shard (or forks it) leaves what is enumerated here untouched.
	rows, arity := rs.rows, int(rs.arity)
	// The profiled and unprofiled loops are kept separate so the
	// uninstrumented hot path carries no per-row profiling branches, and
	// the profiled one pays only local register increments per row,
	// flushed to the literal's stratum cell once per scan.
	if e.ctr.profile {
		lc := &en.cells[st.lit]
		scanned, matched := int64(0), int64(0)
		for more := true; more; more = sp.advance() {
			scanned++
			off := int(sp.cur) * arity
			mark := len(en.trail)
			if matchCompiled(pat, rows[off:off+arity], en) {
				matched++
				e.join(r, plan, si+1, en, capm, out, added)
			}
			en.undo(mark)
		}
		lc.scanned += scanned
		lc.matched += matched
		en.work += scanned + matched
		return
	}
	for more := true; more; more = sp.advance() {
		off := int(sp.cur) * arity
		mark := len(en.trail)
		if matchCompiled(pat, rows[off:off+arity], en) {
			e.join(r, plan, si+1, en, capm, out, added)
		}
		en.undo(mark)
	}
}

// joinOverlay is join's enumeration of an overlay: the base rows of the
// span sp, then the tail rows named by the bit set tail (bit i is tail
// row i), as bucket or scan returned them. It visits and profiles exactly
// the rows a flat copy's index group or scan would, in the same order, so
// results and counters do not depend on the shard's form. The base and
// tail slices are taken before the first emit, which may append to the
// tail or flatten the overlay in place.
func (e *Evaluator) joinOverlay(r *crule, plan *joinPlan, si int, en *env, capm int, out *[]dfact, added *int, rs *relset, sp rowSpan, tail uint64) {
	lit := plan.steps[si].lit
	pat := r.bodyC[lit]
	arity := len(pat)
	base, tailRows := rs.base.rows, rs.rows
	scanned, matched := int64(0), int64(0)
	for more := sp.ok; more; more = sp.advance() {
		scanned++
		off := int(sp.cur) * arity
		mark := len(en.trail)
		if matchCompiled(pat, base[off:off+arity], en) {
			matched++
			e.join(r, plan, si+1, en, capm, out, added)
		}
		en.undo(mark)
	}
	for ; tail != 0; tail &= tail - 1 {
		scanned++
		off := bits.TrailingZeros64(tail) * arity
		mark := len(en.trail)
		if matchCompiled(pat, tailRows[off:off+arity], en) {
			matched++
			e.join(r, plan, si+1, en, capm, out, added)
		}
		en.undo(mark)
	}
	if e.ctr.profile {
		lc := &en.cells[lit]
		lc.scanned += scanned
		lc.matched += matched
		en.work += scanned + matched
	}
}

// emit fires rule r under the complete binding en: it instantiates the
// head row and inserts it, maintaining the work counters and (when
// enabled) provenance. It reports where the head fact landed and whether
// it was new. Membership test and insertion are one hashed probe
// (Store.insertRow); the duplicate case — the overwhelmingly common one
// at fixpoint — allocates nothing, and a new fact only grows its shard.
func (e *Evaluator) emit(r *crule, en *env) (dfact, bool) {
	en.rec.firings++
	hb := e.headBuf[:0]
	for _, c := range r.headC {
		v := c.id
		if c.slot >= 0 {
			if v = en.vals[c.slot]; v == 0 {
				panic(fmt.Sprintf("engine: unbound head variable in %s", r.src))
			}
		}
		hb = append(hb, v)
	}
	e.headBuf = hb
	f := dfact{pred: r.headP, time: -1}
	if r.head.Time != nil {
		f.time = en.time + r.head.Time.Depth
	}
	var added bool
	if f.row, added = e.store.insertRow(f.pred, f.time, hb); !added {
		return dfact{}, false
	}
	en.rec.derived++
	if e.prov != nil {
		body := make([]ast.Fact, len(r.body))
		for j := range r.body {
			body[j] = e.factFor(&r.body[j], r.bodyC[j], en)
		}
		e.prov[factKey(e.factFor(&r.head, r.headC, en))] = &Derivation{Rule: r.src, Time: en.time, Body: body}
	}
	return f, true
}

// factFor builds the ground fact of one rule atom under en (head or body;
// every variable must be bound — the rule is range-restricted).
func (e *Evaluator) factFor(a *ast.Atom, pat []carg, en *env) ast.Fact {
	f := ast.Fact{Pred: a.Pred}
	if a.Time != nil {
		f.Temporal = true
		f.Time = en.time + a.Time.Depth
	}
	f.Args = make([]string, len(pat))
	for i, c := range pat {
		v := c.id
		if c.slot >= 0 {
			if v = en.vals[c.slot]; v == 0 {
				panic(fmt.Sprintf("engine: unbound variable in %s", a))
			}
		}
		f.Args[i] = e.store.syms.name(v)
	}
	return f
}
