package tdd

// Query-directed relevance slicing (the tddslice layer). A closed query
// over predicates that only depend on part of the program can be answered
// from a *sliced* processor: the backward-reachable rules plus the facts
// over their predicates, certified independently. The slice theorem (see
// internal/progan and DESIGN.md ablation 9) makes this exact: the least
// model of the sliced program over the sliced database equals the full
// least model restricted to the slice's predicates, so any query
// mentioning only those predicates answers identically — while the sliced
// certification window, period, and quantifier domains can be far smaller.
//
// What a slice saves is the evaluation it skips, and that only exists
// while the snapshot's full specification is uncertified: over a certified
// model either path is a handful of integer probes. So the code picks the
// path from what it can observe (structureFor): a slice is used iff the
// snapshot is still cold, nobody attached a trace, profile or provenance
// hook at Open (the sliced processor never carries them — a caller who
// asked to observe gets the processor being observed), and the slice is
// proper. A certified snapshot — every Assert successor of one, every
// program tddserve holds — returns before any of this runs.
//
// A snapshot holds at most one sliced processor. The first proper goal
// set asked on a cold snapshot is answered from its slice, and so is any
// later query inside that slice's closure; a query outside it certifies
// the full model, after which the slot is released. Total work is
// bounded by slice + full, and a warm snapshot keeps one model resident.
//
// Two guard rails keep the path conservative:
//
//   - Quantifiers over the non-temporal sort range over the active
//     constant domain, which slicing could shrink. The sliced structure
//     therefore substitutes the full database's constant domain — exact
//     whenever every rule-head constant already occurs in the database
//     (the eligibility check below); otherwise queries that quantify
//     over constants take the full path.
//   - Any failure on the sliced path (an uncertifiable slice) falls back
//     to the full evaluation, which then reports any real error; slicing
//     is an accelerator, never a semantics switch.
//
// Open queries always use the full path: their temporal answers are
// representative terms of the specification's period, and the sliced
// specification certifies its own (smaller) period — sound, but a
// different finite presentation than Period() reports.

import (
	"sync"

	"tdd/internal/ast"
	"tdd/internal/core"
	"tdd/internal/obs"
	"tdd/internal/progan"
	"tdd/internal/query"
)

// slicedModel is a snapshot's one sliced processor. Concurrent asks
// inside its closure share a single build (and its lazy certification).
type slicedModel struct {
	sl *progan.Slice

	once     sync.Once
	bt       *core.BT
	consts   []string // full database constant domain, sorted
	eligible bool     // every rule-head constant occurs in the database
	err      error
}

// structureFor picks the structure a compiled query is evaluated in: the
// snapshot's full specification, or, for a closed query on a snapshot
// that has not certified it yet, the relevance slice when one applies.
func (st *dbState) structureFor(c query.Compiled, tr *obs.Trace) (query.Structure, error) {
	if !st.bt.Certified() && c.Closed() && st.cfg.trace == nil && !st.cfg.profile && !st.cfg.provenance {
		if s := st.sliceFor(c, tr); s != nil {
			return s, nil
		}
	}
	s, err := st.bt.Specification()
	if err != nil {
		return nil, err
	}
	// The full model is resident, whoever certified it: a slice has no
	// evaluation left to save, so the first query to see that drops it.
	if st.sliced.Load() != nil {
		st.sliced.Store(nil)
	}
	return s, nil
}

// sliceFor returns the sliced structure answering c, or nil for "use the
// full path": the slice is not proper, the snapshot's slot holds a slice
// that does not cover the query, eligibility fails for this query, or the
// sliced build failed.
func (st *dbState) sliceFor(c query.Compiled, tr *obs.Trace) query.Structure {
	goals := progan.QueryPreds(c.Query())
	m := st.sliced.Load()
	if m == nil {
		// Properness is a property of the rules alone; nothing reads the
		// database unless a rule is actually dropped.
		sl := progan.SliceOf(st.prog, goals)
		if !sl.Proper() {
			return nil
		}
		m = &slicedModel{sl: sl}
		if !st.sliced.CompareAndSwap(nil, m) {
			m = st.sliced.Load()
		}
	}
	if m == nil || !m.covers(goals) {
		return nil
	}
	sp := tr.Begin("slice")
	defer sp.End()
	sp.Add("rules", int64(len(m.sl.Rules)))
	sp.Add("rules_total", int64(m.sl.Total))
	m.once.Do(func() { m.build(st) })
	if m.err != nil || (!m.eligible && c.UsesConstantDomain()) {
		return nil
	}
	s, err := m.bt.Specification()
	if err != nil {
		return nil
	}
	return slicedStructure{Structure: s, consts: m.consts}
}

// covers reports whether every goal predicate lies in the slice's
// closure — the condition under which the slice theorem applies.
func (m *slicedModel) covers(goals []string) bool {
	for _, g := range goals {
		if !m.sl.Contains(g) {
			return false
		}
	}
	return true
}

// build compiles the sliced processor over st's database. It inherits
// the window budget and nothing else: a snapshot with observability hooks
// never gets here.
func (m *slicedModel) build(st *dbState) {
	facts, consts := st.bt.SliceDatabase(m.sl.Contains)
	m.consts = consts
	m.eligible = headConstantsCovered(st.prog, m.consts)
	prog, err := m.sl.Program()
	if err != nil {
		m.err = err
		return
	}
	db, err := ast.NewDatabase(facts)
	if err != nil {
		m.err = err
		return
	}
	m.bt, m.err = core.New(prog, db, core.WithMaxWindow(st.cfg.maxWindow))
}

// headConstantsCovered reports whether every constant in a rule head
// already occurs in the database. Derived facts draw their arguments
// from head constants and from stored tuples (ultimately database
// constants), so under this condition the full model's active constant
// domain is exactly the database's — and substituting it into a sliced
// structure reproduces full-path quantification bit for bit.
func headConstantsCovered(prog *ast.Program, consts []string) bool {
	set := make(map[string]bool, len(consts))
	for _, c := range consts {
		set[c] = true
	}
	for _, r := range prog.Rules {
		for _, s := range r.Head.Args {
			if !s.IsVar && !set[s.Name] {
				return false
			}
		}
	}
	return true
}

// slicedStructure evaluates against the sliced specification but
// quantifies constants over the full database domain (see the
// eligibility argument above).
type slicedStructure struct {
	query.Structure
	consts []string
}

func (s slicedStructure) ConstantDomain() []string { return s.consts }

// GraphReport is the wire form of the whole-program dependency report:
// predicates with their SCC assignments, the SCC condensation with
// per-component metadata, and the rule table.
type GraphReport = progan.ReportJSON

// Graph renders the program's predicate dependency condensation: SCCs
// in topological order (dependencies first) with recursion class,
// temporal depth bounds, and base-reachability.
func (d *DB) Graph() string {
	st := d.state()
	return progan.Analyze(st.prog, st.bt.Evaluator().Database()).Render()
}

// GraphJSON returns the dependency report in wire form (tddserve's
// /debug/graph payload).
func (d *DB) GraphJSON() GraphReport {
	st := d.state()
	return progan.Analyze(st.prog, st.bt.Evaluator().Database()).JSON()
}

// SliceInfo describes the slice a query's predicates select.
type SliceInfo struct {
	// Goals are the query's predicates; Preds the backward closure.
	Goals []string `json:"goals"`
	Preds []string `json:"preds"`
	// Rules of Total program rules are in the slice; Proper reports
	// whether at least one rule was dropped (the case slicing helps).
	Rules  int  `json:"rules"`
	Total  int  `json:"total"`
	Proper bool `json:"proper"`
	// Fingerprint identifies the slice: its goal set and closure.
	Fingerprint string `json:"fingerprint"`
}

// SliceFor parses a query and reports the relevance slice its
// predicates select, without evaluating anything.
func (d *DB) SliceFor(q string) (SliceInfo, error) {
	st := d.state()
	c, err := compileQuery(st.bt.Preds(), st.bt.Signature(), q, nil)
	if err != nil {
		return SliceInfo{}, err
	}
	sl := progan.SliceOf(st.prog, progan.QueryPreds(c.Query()))
	return SliceInfo{
		Goals:       sl.Goals,
		Preds:       sl.Preds,
		Rules:       len(sl.Rules),
		Total:       sl.Total,
		Proper:      sl.Proper(),
		Fingerprint: sl.Fingerprint(),
	}, nil
}
