package engine

// Incremental (semi-naive) maintenance of an evaluated window. The
// classic delta argument carries over to the time-stratified setting:
// every fact newly derivable after a base insertion has a derivation tree
// containing at least one new fact in some rule body, so it is reached by
// re-firing only the rules with a body literal pinned to a new fact —
// never by re-running the full fixpoint. Facts whose head time falls
// beyond the evaluated window are not materialized; EnsureWindow
// recomputes extension states from scratch, so nothing is lost when the
// window later grows.

import (
	"fmt"
	"maps"
	"math"
	"slices"

	"tdd/internal/ast"
)

// occurrence locates one body literal: rule index and literal index.
type occurrence struct {
	rule int
	lit  int
}

// dfact locates one stored fact for the delta frontier: predicate id,
// time point (-1 for a non-temporal fact) and row number in its shard.
// Row numbers are stable — shards are append-only, and a copy-on-write
// fork or flatten keeps the numbering — so a frontier entry stays valid
// while propagation keeps inserting.
type dfact struct {
	pred uint32
	time int
	row  uint32
}

// Clone returns an independent evaluator over the same program: a
// snapshot of the database, store, window, and counters. The program and
// compiled rules are immutable after New and are shared, and so is the
// database's signature map until a new predicate is admitted. The store,
// which holds the database's facts (Evaluator.Facts), is cloned
// copy-on-write. Writes to the clone (InsertBase, PropagateDelta,
// EnsureWindow) are invisible to the original, which makes Clone the
// basis of the copy-on-write snapshot discipline used by incremental
// ingestion. The clone's counter block starts from the same records,
// which the store clone's new epochs freeze to both sides (see
// counters), so neither side's counts, profile included, move with the
// other's work. Join plans are recomputed at every fixpoint entry, so
// they and the scratch buffers start empty.
//
//tddlint:resets plans deltaPlans headBuf keyBuf delta next
func (e *Evaluator) Clone() *Evaluator {
	c := &Evaluator{
		prog:      e.prog,
		preds:     e.preds,
		depth:     e.depth,
		lookback:  e.lookback,
		hmax:      e.hmax,
		store:     e.store.Clone(),
		rules:     e.rules,
		evaluated: e.evaluated,
		ctr:       counters{sweeps: e.ctr.sweeps, rules: slices.Clone(e.ctr.rules), profile: e.ctr.profile},
		occ:       e.occ, // immutable after New
		tr:        e.tr,
		derived:   e.derived, // immutable after New
		maxSlots:  e.maxSlots,
		// bounds are immutable once computed, so the clone shares them
		// until it admits a predicate.
		bounds: e.bounds,
	}
	if e.prov != nil {
		c.prov = make(map[string]*Derivation, len(e.prov))
		for k, v := range e.prov {
			c.prov[k] = v
		}
	}
	return c
}

// InsertBase adds one ground fact to the database and the store. It
// reports whether the fact was new *to the database* — a fact already
// derived by some rule is still recorded as a database fact, exactly as
// if it had been present in a from-scratch evaluation of the union.
// Signatures are checked against both the program's and the database's;
// new predicates are admitted and recorded.
func (e *Evaluator) InsertBase(f ast.Fact) (bool, error) {
	if f.Temporal && (f.Time < 0 || int64(f.Time) > math.MaxUint32) {
		return false, fmt.Errorf("engine: fact %s has a time point outside [0, %d]", f, uint32(math.MaxUint32))
	}
	for _, a := range f.Args {
		if a == "" {
			return false, fmt.Errorf("engine: fact %s has an empty constant", f)
		}
	}
	info := ast.PredInfo{Name: f.Pred, Temporal: f.Temporal, Arity: len(f.Args)}
	if prev, ok := e.prog.Preds[f.Pred]; ok && prev != info {
		return false, fmt.Errorf("engine: fact %s conflicts with program signature %v", f, prev)
	}
	if prev, ok := e.preds[f.Pred]; ok && prev != info {
		return false, fmt.Errorf("engine: fact %s conflicts with database signature %v", f, prev)
	}
	if !e.store.insertBase(f, e.derived[f.Pred]) {
		return false, nil
	}
	if _, ok := e.preds[f.Pred]; !ok {
		preds := make(map[string]ast.PredInfo, len(e.preds)+1)
		maps.Copy(preds, e.preds)
		preds[f.Pred] = info
		e.preds = preds
		e.bounds = nil
	}
	if f.Temporal && f.Time > e.depth {
		e.depth = f.Time
	}
	return true, nil
}

// PropagateDelta closes the already-evaluated window 0..Window() over the
// consequences of the seed facts (base facts just inserted): semi-naive
// evaluation re-firing only rules with at least one body literal pinned
// to a delta fact. It returns the number of facts derived. A no-op
// before the first evaluation (the first EnsureWindow computes everything
// anyway) and for seeds beyond the window (the window extension
// recomputes those states from scratch). A seed that is not in the store
// is not a fact and pins nothing. It makes the class axis stale.
func (e *Evaluator) PropagateDelta(seed []ast.Fact) int {
	m := e.evaluated
	if m < 0 || len(seed) == 0 {
		return 0
	}
	e.store.classes = nil
	e.planJoins()
	e.ctr.start()
	defer e.ctr.flush()
	sp := e.tr.Begin("delta-propagate")
	// The frontier and the next round's frontier swap buffers, kept on
	// the evaluator, so a round allocates only when a frontier outgrows
	// every earlier one.
	delta, next := e.delta[:0], e.next[:0]
	for _, f := range seed {
		if d, ok := e.store.locate(f); ok {
			delta = append(delta, d)
		}
	}
	rounds := 0
	total := 0
	for len(delta) > 0 {
		rounds++
		next = next[:0]
		for _, f := range delta {
			if int(f.pred) >= len(e.occ) {
				continue
			}
			for _, oc := range e.occ[f.pred] {
				r := &e.rules[oc.rule]
				if f.time >= 0 {
					// The pinned literal determines the rule's temporal
					// binding: T + depth = f.time.
					T := f.time - r.body[oc.lit].Time.Depth
					if T < 0 || !e.inRange(r, T, m) {
						continue
					}
					e.fireDelta(r, oc.lit, f, T, m, &next)
					continue
				}
				// A non-temporal delta fact constrains no time point; fire
				// at every binding the full evaluation would consider.
				if r.timeVar == "" {
					e.fireDelta(r, oc.lit, f, 0, m, &next)
					continue
				}
				for T := 0; e.inRange(r, T, m); T++ {
					e.fireDelta(r, oc.lit, f, T, m, &next)
				}
			}
		}
		total += len(next)
		delta, next = next, delta
	}
	e.delta, e.next = delta, next
	sp.Add("seed", int64(len(seed)))
	sp.Add("derived", int64(total))
	sp.Add("rounds", int64(rounds))
	sp.End()
	return total
}

// inRange mirrors the temporal ranges of the full evaluation: temporal
// heads are materialized for head times within the window (evalState),
// non-temporal heads for bindings whose deepest body literal lies within
// the window (evalNonTemporalRules).
func (e *Evaluator) inRange(r *crule, T, m int) bool {
	if T < 0 {
		return false
	}
	if r.headDepth >= 0 {
		return T+r.headDepth <= m
	}
	return T+r.maxBodyDepth <= m
}

// fireDelta fires rule r with body literal pin bound to the delta fact f
// and the temporal variable bound to T, joining the remaining literals —
// in the pin's delta-plan order — against the full store. Head times are
// capped at m; new head facts are appended to out.
func (e *Evaluator) fireDelta(r *crule, pin int, f dfact, T, m int, out *[]dfact) {
	en := &e.en
	en.time = T
	plan := &e.deltaPlans[r.idx][pin]
	tup := e.store.shard(f.pred, f.time).row(f.row)
	en.rec = e.ctr.own(r.idx, e.store.epoch)
	added := 0
	mark := len(en.trail)
	if !e.ctr.profile {
		if matchCompiled(r.bodyC[pin], tup, en) {
			e.join(r, plan, 0, en, m, out, &added)
		}
		en.undo(mark)
		return
	}
	e.ctr.enter(en)
	pc := &en.cells[pin]
	pc.scanned++
	if matchCompiled(r.bodyC[pin], tup, en) {
		pc.matched++
		e.join(r, plan, 0, en, m, out, &added)
	}
	en.undo(mark)
	e.ctr.exit(en)
}
