package tdd

// Query-directed relevance slicing (the tddslice layer). With
// WithSlicing enabled, a closed query over predicates that only depend
// on part of the program is answered from a *sliced* processor: the
// backward-reachable rules plus the facts over their predicates,
// certified independently. The slice theorem (see internal/progan and
// DESIGN.md ablation 9) makes this exact: the least model of the sliced
// program over the sliced database equals the full least model
// restricted to the slice's predicates, so any query mentioning only
// those predicates answers identically — while the sliced certification
// window, period, and quantifier domains can be far smaller.
//
// Two guard rails keep the path conservative:
//
//   - Quantifiers over the non-temporal sort range over the active
//     constant domain, which slicing could shrink. The sliced structure
//     therefore substitutes the full database's constant domain — exact
//     whenever every rule-head constant already occurs in the database
//     (the eligibility check below); otherwise queries that quantify
//     over constants fall back to the full path.
//   - Any failure on the sliced path (uncertifiable slice, cache
//     pressure) silently falls back to the full evaluation; slicing is
//     an accelerator, never a semantics switch.
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

// maxCachedSlices bounds the per-snapshot sliced-processor cache; the
// key space is goal sets actually queried, so the cap exists only to
// keep adversarial query streams from accumulating evaluations.
const maxCachedSlices = 128

// WithSlicing enables query-directed relevance slicing: closed queries
// whose predicates depend only on part of the program are answered by
// evaluating just that part. Results are identical with and without
// slicing; sliced evaluations are cached per database snapshot keyed by
// the slice's predicate closure, and every Assert starts a fresh cache.
func WithSlicing() Option { return func(c *config) { c.slicing = true } }

// analysis is the per-snapshot static analysis state: the progan report,
// the slicing eligibility verdict, and the sliced-processor cache. It is
// built lazily by the first sliced ask and shared by all readers of the
// snapshot; Assert installs a new snapshot with a fresh analysis.
type analysis struct {
	once     sync.Once
	report   *progan.Report
	consts   []string // full database constant domain, sorted
	eligible bool     // every rule-head constant occurs in the database

	mu     sync.Mutex
	slices map[string]*sliceEntry
}

// sliceEntry caches one sliced processor; concurrent asks over the same
// goal set share a single build (and its lazy certification).
type sliceEntry struct {
	once sync.Once
	bt   *core.BT
	err  error
}

// analyze builds (once) and returns the snapshot's analysis.
func (st *dbState) analyze() *analysis {
	an := st.an
	an.once.Do(func() {
		an.report = progan.Analyze(st.prog, st.facts)
		an.consts = st.facts.Constants()
		an.eligible = headConstantsCovered(st.prog, an.consts)
		an.slices = make(map[string]*sliceEntry)
	})
	return an
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

// askSliced answers a closed query through the sliced path when it
// applies. answered=false means "use the full path" — either slicing is
// off, the slice is not proper, eligibility fails for this query, or
// the sliced build failed (the full path then reports any real error).
func (st *dbState) askSliced(c query.Compiled, tr *obs.Trace) (result, answered bool) {
	if !st.cfg.slicing {
		return false, false
	}
	an := st.analyze()
	if !an.eligible && c.UsesConstantDomain() {
		return false, false
	}
	goals := progan.QueryPreds(c.Query())
	if len(goals) == 0 {
		return false, false
	}
	sl := an.report.Slice(goals)
	if !sl.Proper() {
		return false, false
	}
	sp := tr.Begin("slice")
	defer sp.End()
	sp.Add("rules", int64(len(sl.Rules)))
	sp.Add("rules_total", int64(sl.Total))
	bt, err := an.slicedBT(st, sl)
	if err != nil {
		return false, false
	}
	s, err := bt.Specification()
	if err != nil {
		return false, false
	}
	ok, err := c.Eval(slicedStructure{Structure: s, consts: an.consts})
	if err != nil {
		return false, false
	}
	return ok, true
}

// slicedBT returns (building and caching on first use) the processor
// for one slice of this snapshot. The cache key is the slice
// fingerprint — program revision is implicit, since the cache lives on
// the snapshot.
func (an *analysis) slicedBT(st *dbState, sl *progan.Slice) (*core.BT, error) {
	key := sl.Fingerprint()
	an.mu.Lock()
	e := an.slices[key]
	if e == nil {
		if len(an.slices) >= maxCachedSlices {
			an.mu.Unlock()
			return nil, errSliceCacheFull
		}
		e = &sliceEntry{}
		an.slices[key] = e
	}
	an.mu.Unlock()
	e.once.Do(func() {
		prog, err := sl.Program()
		if err != nil {
			e.err = err
			return
		}
		facts, err := sl.Database(st.facts)
		if err != nil {
			e.err = err
			return
		}
		// The sliced processor inherits the window budget but never the
		// observability hooks: traces, profiles, and provenance stay
		// attached to the full processor the caller owns.
		e.bt, e.err = core.New(prog, facts, core.WithMaxWindow(st.cfg.maxWindow))
	})
	return e.bt, e.err
}

type sliceCacheFullError struct{}

func (sliceCacheFullError) Error() string { return "tdd: slice cache full" }

var errSliceCacheFull = sliceCacheFullError{}

// GraphReport is the wire form of the whole-program dependency report:
// predicates with their SCC assignments, the SCC condensation with
// per-component metadata, and the rule table.
type GraphReport = progan.ReportJSON

// Graph renders the program's predicate dependency condensation: SCCs
// in topological order (dependencies first) with recursion class,
// temporal depth bounds, and base-reachability.
func (d *DB) Graph() string {
	return d.state().analyze().report.Render()
}

// GraphJSON returns the dependency report in wire form (tddserve's
// /debug/graph payload).
func (d *DB) GraphJSON() GraphReport {
	return d.state().analyze().report.JSON()
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
	// Fingerprint keys the sliced-specification cache.
	Fingerprint string `json:"fingerprint"`
}

// SliceFor parses a query and reports the relevance slice its
// predicates select, without evaluating anything.
func (d *DB) SliceFor(q string) (SliceInfo, error) {
	st := d.state()
	parsed, err := parseQuery(st.bt.Preds(), q, nil)
	if err != nil {
		return SliceInfo{}, err
	}
	an := st.analyze()
	sl := an.report.Slice(progan.QueryPreds(parsed))
	return SliceInfo{
		Goals:       sl.Goals,
		Preds:       sl.Preds,
		Rules:       len(sl.Rules),
		Total:       sl.Total,
		Proper:      sl.Proper(),
		Fingerprint: sl.Fingerprint(),
	}, nil
}
