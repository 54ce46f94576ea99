// Package core implements the paper's primary contribution: algorithm BT
// (Figure 1) — bottom-up, polynomial-time query processing for temporal
// deductive databases with polynomially bounded periods.
//
// BT as printed iterates L' := T_{Z∧D}(L) over a window 0..m, where
// m = max(c, h) + range(Z ∧ D), until the window and the non-temporal part
// stabilize, then answers L ⊨ Q. The oracle bound range(Z ∧ D) (the number
// of distinct states of the least model) is not known in advance, so this
// implementation grows the window adaptively until the period of the least
// model is certified (period.Detect); the certified period plays exactly
// the role of range(Z ∧ D): beyond base+period every state is a repetition.
// For a polynomially periodic rule set the certified window — and hence the
// total work — is polynomial in the database size, which is Theorem 4.1;
// the relational specification then answers queries of arbitrary temporal
// depth h in O(1) rewrites, removing BT's dependence on h altogether.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"tdd/internal/ast"
	"tdd/internal/engine"
	"tdd/internal/inc"
	"tdd/internal/lint"
	"tdd/internal/obs"
	"tdd/internal/period"
	"tdd/internal/query"
	"tdd/internal/spec"
)

// DefaultMaxWindow bounds the adaptive window growth. Theorem 3.1 only
// guarantees a period at most exponential in the database; the budget turns
// pathological (non-polynomially-periodic) inputs into errors instead of
// runaway computation.
const DefaultMaxWindow = 1 << 20

// BT is a query processor for one temporal deductive database Z ∧ D.
//
// A BT is safe for concurrent use by multiple goroutines. The only
// mutation after construction is the lazy, adaptive-window computation of
// the relational specification (period certification grows the evaluator's
// window and fact store); mu serializes it. Once the specification is
// certified it is published through an atomic pointer and the evaluator is
// never mutated again — Lint reads its firing counts and grows nothing,
// Assert writes to a clone — so every read of a warm BT (queries, Lint,
// Work, Explain, EngineStats) is a read-only traversal of immutable
// structure that takes no lock at all.
type BT struct {
	eval      *engine.Evaluator
	maxWindow int
	// preds is never written after construction, so Assert shares it with
	// every successor that admits no predicate; sig is its SignatureKey.
	preds map[string]ast.PredInfo
	sig   string
	// tr, when non-nil, receives the pipeline's phase spans (classify,
	// certify-period with nested fixpoint sweeps, spec-construct). All
	// spans are recorded under mu, so one trace per BT is safe.
	tr *obs.Trace
	// rules returns the program's rule analysis — the classification
	// report the classify span reads and the rules-only lint passes —
	// built on the first call and shared with every BT that Assert
	// derives from this one: the rule set never changes.
	rules func() *lint.Rules

	// mu serializes the computation of spec and every mutation of eval
	// (window growth, store inserts, stats, provenance) performed during
	// it; Assert holds it while it clones eval. Nothing else takes it.
	mu sync.Mutex
	// spec is nil until certified. It is stored exactly once, with mu held
	// (or before the BT is shared, in Assert), and loaded without it: a
	// non-nil load is the warm fast path of every query.
	spec atomic.Pointer[spec.Spec]
}

// analyzeRules builds a program's rule analysis; a variable so tests can
// count how often it runs.
var analyzeRules = lint.AnalyzeRules

// Option configures a BT processor.
type Option func(*BT)

// WithMaxWindow overrides the window budget used when certifying the
// period of the least model.
func WithMaxWindow(m int) Option {
	return func(b *BT) { b.maxWindow = m }
}

// WithTrace attaches a trace: the specification pipeline records its
// phases (classify, certify-period, fixpoint, spec-construct) and
// incremental ingestion its delta spans into it. The classify span reads
// the program's rule analysis, which is built once per program and
// shared with Lint, so a trace adds no second classification.
func WithTrace(tr *obs.Trace) Option {
	return func(b *BT) {
		b.tr = tr
		b.eval.SetTrace(tr)
	}
}

// WithProfile enables the operator-level join profiler
// (engine.EnableProfile): per (rule, body-literal) scan/match counters
// bucketed by timestamp stratum and per-rule join wall time, rendered
// by ProfileSnapshot as an EXPLAIN ANALYZE tree. An Assert's clone
// starts from its parent's counts and adds its own work to them alone.
func WithProfile() Option {
	return func(b *BT) { b.eval.EnableProfile() }
}

// New validates and compiles the TDD. The program must be
// range-restricted, semi-normal, and forward.
func New(prog *ast.Program, db *ast.Database, opts ...Option) (*BT, error) {
	e, err := engine.New(prog, db)
	if err != nil {
		return nil, err
	}
	b := &BT{eval: e, maxWindow: DefaultMaxWindow, preds: make(map[string]ast.PredInfo)}
	b.rules = sync.OnceValue(func() *lint.Rules { return analyzeRules(e.Program()) })
	for k, v := range prog.Preds {
		b.preds[k] = v
	}
	for k, v := range db.Preds {
		b.preds[k] = v
	}
	b.sig = ast.SignatureKey(b.preds)
	for _, o := range opts {
		o(b)
	}
	return b, nil
}

// Preds returns the predicate signatures of the TDD (program and database
// combined); parsers use them to type queries.
func (b *BT) Preds() map[string]ast.PredInfo { return b.preds }

// Signature returns the canonical key of Preds (ast.SignatureKey): equal
// keys type every query text alike.
func (b *BT) Signature() string { return b.sig }

// Evaluator exposes the underlying bottom-up engine.
func (b *BT) Evaluator() *engine.Evaluator { return b.eval }

// Specification computes (and caches) the relational specification
// S = (T, B, W) of the least model. Cold callers are serialized on mu and
// exactly one performs the computation; once it is published, callers
// return it without locking. Failures (period not certifiable within the
// window budget) are not cached, so a later call with more luck — there
// is none; the computation is deterministic — simply fails again without
// corrupting state.
func (b *BT) Specification() (*spec.Spec, error) {
	if s := b.spec.Load(); s != nil {
		return s, nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if s := b.spec.Load(); s != nil {
		return s, nil
	}
	// The classify span annotates the phase tree with the tractable-class
	// verdict driving the expected cost of what follows. It reads the
	// program's rule analysis, which Lint shares, so without a trace
	// nothing is classified here.
	if b.tr != nil {
		sp := b.tr.Begin("classify")
		rep := b.rules().Report()
		sp.Add("valid", b2i(rep.Valid))
		sp.Add("inflationary", b2i(rep.Inflationary))
		sp.Add("multi_separable", b2i(rep.MultiSeparable))
		sp.Add("tractable", b2i(rep.Tractable()))
		sp.End()
	}
	s, err := spec.Compute(b.eval, b.maxWindow)
	if err != nil {
		return nil, err
	}
	b.spec.Store(s)
	return s, nil
}

// Certified reports whether the specification has been computed: every
// query on a certified BT is a lock-free read, and nothing it could skip
// evaluating is left.
func (b *BT) Certified() bool { return b.spec.Load() != nil }

func b2i(v bool) int64 {
	if v {
		return 1
	}
	return 0
}

// Lint runs the Tier-A static analyzer over the processor's program and
// database. The rules-only passes come from the program's rule analysis,
// computed once per program; only the passes that read the database run
// here, on its signatures: D is never rendered. Never-fires reads the
// certified evaluator's per-rule firing counts, which a fork inherits
// from its parent through Clone, and evaluates nothing: the certified
// window already holds every rule instance up to a shift by the period.
// So Lint certifies a cold BT first and on a warm one takes no lock;
// when certification fails never-fires is skipped and the structural
// passes still run. source, when non-empty, is the raw unit text inline
// "tddlint:ignore" suppressions are read from.
func (b *BT) Lint(source string) lint.Result {
	opts := lint.Options{Source: source, MaxWindow: b.maxWindow}
	if s, err := b.Specification(); err == nil {
		opts.Spec = s
	}
	return lint.Check(b.rules(), b.eval.Database(), opts)
}

// Period returns the certified minimal period of the least model.
func (b *BT) Period() (period.Period, error) {
	s, err := b.Specification()
	if err != nil {
		return period.Period{}, err
	}
	return s.Period, nil
}

// AskFact answers a yes-no ground atomic query through the relational
// specification: one rewrite plus a lookup, so the temporal depth h
// contributes O(1) work — the heart of the tractability argument.
func (b *BT) AskFact(f ast.Fact) (bool, error) {
	s, err := b.Specification()
	if err != nil {
		return false, err
	}
	return s.HoldsFact(f), nil
}

// Ask answers a closed temporal first-order query over the relational
// specification (sound for every temporal query by Proposition 3.1;
// negation is evaluated under the Closed World Assumption).
func (b *BT) Ask(q ast.Query) (bool, error) {
	s, err := b.Specification()
	if err != nil {
		return false, err
	}
	return query.Eval(s, q)
}

// Answers enumerates the answer substitutions of an open query. Temporal
// bindings are representative terms; together with the specification's
// rewrite rule each represents an infinite family of concrete answers
// (Section 3.3).
func (b *BT) Answers(q ast.Query) ([]query.Answer, error) {
	s, err := b.Specification()
	if err != nil {
		return nil, err
	}
	return query.Answers(s, q)
}

// Assert returns a new BT extended with the fact batch; the receiver is
// unchanged and remains fully usable — the copy-on-write discipline that
// lets any number of readers keep querying the old processor while a
// writer prepares its successor. The new processor's evaluator is a
// copy-on-write clone: it shares every shard, index, fact and symbol with
// the receiver's and pays only for what the batch writes (engine.Clone).
//
// If the receiver has already certified its specification, the batch is
// propagated semi-naively through the evaluated window and the period is
// re-certified from the old one (inc.Apply); the new BT starts out warm.
// Otherwise the facts are recorded — and propagated through whatever
// window a failed certification left evaluated — and the first query pays
// the usual cold certification.
func (b *BT) Assert(facts []ast.Fact) (*BT, inc.Result, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	e2 := b.eval.Clone()
	nb := &BT{eval: e2, maxWindow: b.maxWindow, preds: b.preds, sig: b.sig, tr: b.tr, rules: b.rules}
	var res inc.Result
	var err error
	if cur := b.spec.Load(); cur == nil {
		// A certification that failed (over budget) left its window
		// evaluated; the new facts must reach it, or the next certification
		// would not re-derive them. A no-op on a never-evaluated window.
		res, err = inc.Insert(e2, facts)
	} else {
		var s *spec.Spec
		s, res, err = inc.Apply(e2, cur, b.maxWindow, facts)
		nb.spec.Store(s)
	}
	if err != nil {
		return nil, res, err
	}
	// InsertBase grows the database's signature map only when it admits a
	// predicate; only then can the map queries are typed against grow, and
	// with it its key (a predicate the map lacks is sorted from the query
	// text, so the same text may type differently afterwards).
	if admitted := e2.Database().Preds; len(admitted) != len(b.eval.Database().Preds) {
		nb.preds = make(map[string]ast.PredInfo, len(b.preds)+1)
		for k, v := range b.preds {
			nb.preds[k] = v
		}
		for k, v := range admitted {
			nb.preds[k] = v
		}
		nb.sig = ast.SignatureKey(nb.preds)
	}
	return nb, res, nil
}

// EngineStats returns the engine's full work breakdown accumulated so
// far: the aggregate counters plus the per-rule and per-index tables. A
// certified BT's evaluator is never mutated again, so the read takes no
// lock then: ?trace=1 on a warm program does not wait for an ingest,
// which holds mu on the parent for the whole of inc.Apply. A cold BT is
// read under mu, so the read does not race a certification.
func (b *BT) EngineStats() engine.Stats {
	if !b.Certified() {
		b.mu.Lock()
		defer b.mu.Unlock()
	}
	return b.eval.Stats()
}

// Database returns the database D, its facts read back from the
// evaluator's store (engine.Evaluator.Facts). It takes mu by EngineStats'
// rule: only while the BT is cold, when a certification may be
// re-pointing the store's time axes.
func (b *BT) Database() *ast.Database {
	if !b.Certified() {
		b.mu.Lock()
		defer b.mu.Unlock()
	}
	return &ast.Database{Facts: b.eval.Facts(), Preds: b.eval.Database().Preds}
}

// SliceDatabase returns what a sliced processor is built from: the facts
// of D over the predicates keep accepts, and the constants of all of D,
// sorted. The facts of the other predicates are not rendered. It takes mu
// by Database's rule.
func (b *BT) SliceDatabase(keep func(pred string) bool) ([]ast.Fact, []string) {
	if !b.Certified() {
		b.mu.Lock()
		defer b.mu.Unlock()
	}
	return b.eval.SliceFacts(keep)
}

// EngineTotals returns EngineStats' aggregate counters — derived,
// firings, sweeps — without its tables, so the read allocates nothing.
// It takes mu by EngineStats' rule: only while the BT is cold.
func (b *BT) EngineTotals() (derived, firings, sweeps int) {
	if !b.Certified() {
		b.mu.Lock()
		defer b.mu.Unlock()
	}
	return b.eval.Totals()
}

// ProfileSnapshot renders the accumulated join profile as an EXPLAIN
// ANALYZE report; nil unless the BT was built WithProfile. Like
// EngineStats it takes mu only while the BT is cold.
func (b *BT) ProfileSnapshot() *engine.ProfileJSON {
	if !b.Certified() {
		b.mu.Lock()
		defer b.mu.Unlock()
	}
	return b.eval.ProfileSnapshot()
}

// Certificate is the polynomial-cost certificate of a processed database
// (Theorem 4.1): the window BT evaluated, the period it certified, the
// engine work that took, and the size of the resulting specification.
// Every surface that reports a TDD's cost — tdd query -work, tdd repl
// :stats, the server's per-program metrics — reports this struct.
type Certificate struct {
	Window          int           // largest time point evaluated
	Period          period.Period // certified (b, p)
	Derived         int           // distinct facts derived beyond the database
	Firings         int           // successful rule-body instantiations
	Sweeps          int           // full-window re-sweeps of the outer fixpoint
	Representatives int           // |T|
	Facts           int           // |B|
}

func (c Certificate) String() string {
	return fmt.Sprintf("window=%d period=%v derived=%d firings=%d sweeps=%d reps=%d facts=%d",
		c.Window, c.Period, c.Derived, c.Firings, c.Sweeps, c.Representatives, c.Facts)
}

// Work computes the specification (if needed) and reports the work done.
func (b *BT) Work() (Certificate, error) {
	s, err := b.Specification()
	if err != nil {
		return Certificate{}, err
	}
	c := Certificate{Window: b.eval.Window(), Period: s.Period}
	c.Derived, c.Firings, c.Sweeps = b.eval.Totals()
	c.Representatives, c.Facts = s.Size()
	return c, nil
}

// Explain renders the derivation tree of a ground atomic fact. Provenance
// must have been enabled at construction (core.WithProvenance). Queries
// beyond the evaluated window are first rewritten to their representative
// time through the specification; the rendered tree then explains the
// representative instance, which by periodicity is the same up to a time
// shift.
func (b *BT) Explain(f ast.Fact, maxDepth int) (string, error) {
	// The window only grows while the specification is being computed, so
	// certifying it first freezes the evaluator, provenance map included;
	// the reads below then race with nothing.
	s, err := b.Specification()
	if err != nil {
		return "", err
	}
	w := b.eval.Window()
	prefix := ""
	if f.Temporal && f.Time > w {
		rewritten := s.Rewrite(f.Time)
		if rewritten != f.Time {
			prefix = fmt.Sprintf("%s rewrites to time %d (period %v):\n", f, rewritten, s.Period)
			f.Time = rewritten
		}
	}
	out, err := b.eval.Explain(f, maxDepth)
	if err != nil {
		return "", err
	}
	return prefix + out, nil
}

// WithProvenance enables derivation recording so Explain works. It costs
// one bookkeeping entry per derived fact.
func WithProvenance() Option {
	return func(b *BT) {
		// New has already constructed the evaluator; recording must start
		// before the first evaluation, which holds because options run in
		// New before any query.
		if err := b.eval.EnableProvenance(); err != nil {
			panic("core: " + err.Error())
		}
	}
}
