// Package inc maintains an evaluated temporal deductive database — and its
// certified periodic specification — under incremental fact insertion.
//
// The from-scratch pipeline (engine evaluation, period certification,
// relational specification) is deterministic in the program and the
// database. Incremental maintenance exploits that: a batch of new base
// facts is inserted into the existing evaluator, its consequences are
// propagated semi-naively through the already-evaluated window (only rules
// with a body literal pinned to a delta fact re-fire), and the period is
// then re-certified over the patched window. Because the patched window is
// fact-for-fact identical to a from-scratch evaluation of the fact union —
// the semi-naive completeness argument — re-certification returns exactly
// the specification a cold start would. It starts from the old period
// (period.DetectFrom): at the largest window already evaluated it tries
// the divisors of the old p before the full scan, which returns Detect's
// answer even when the batch shrinks the period. Every state carries an
// incrementally maintained fingerprint (engine.Store.StateFingerprint),
// so the divisors' runs read states at no cost per fact and allocate
// nothing; only a hint that fails pays for the full scan.
//
// Callers apply a batch to a clone of the evaluator, and the clone's
// writes cost what the delta writes, not what the model holds: a store
// clone shares every shard, a write into a shared shard overlays it with
// a short private tail of the new rows instead of copying it; the
// symbol tables are shared and appended past the parent's end; and the
// store, the one holder of the database D, itself tells a batch's new
// database facts from its duplicates, which costs the batch no pass
// over D.
//
// Delta propagation re-fires pinned rules through the evaluator's own
// join plans, so the maintained model — and hence the re-certified
// specification — is the one a from-scratch evaluation of the union
// reaches.
package inc

import (
	"tdd/internal/ast"
	"tdd/internal/engine"
	"tdd/internal/period"
	"tdd/internal/spec"
)

// Result describes one incremental maintenance step.
type Result struct {
	// NewBase counts batch facts that were new to the database.
	NewBase int
	// Duplicates counts batch facts already present in the database.
	Duplicates int
	// Derived counts consequences materialized by delta propagation
	// (within the evaluated window; deeper consequences are produced by
	// the window growth that re-certification may perform).
	Derived int
	// Recertified reports whether a specification was (re)computed.
	Recertified bool
	// SpecChanged reports whether the certified period differs from the
	// previous specification's (always true when there was none).
	SpecChanged bool
	// Period is the period certified by the returned specification.
	Period period.Period
}

// Insert is Apply without the re-certification: it adds the batch to e's
// database and propagates its new facts through the evaluated window.
func Insert(e *engine.Evaluator, facts []ast.Fact) (Result, error) {
	var res Result
	seed := make([]ast.Fact, 0, len(facts))
	for _, f := range facts {
		ok, err := e.InsertBase(f)
		if err != nil {
			return res, err
		}
		if ok {
			seed = append(seed, f)
			res.NewBase++
		} else {
			res.Duplicates++
		}
	}
	res.Derived = e.PropagateDelta(seed)
	return res, nil
}

// Apply inserts the batch into e, propagates its consequences through the
// evaluated window, and re-certifies the periodic specification. old is
// the previous specification over e, or nil if none was computed yet; it
// is returned unchanged when the batch contains nothing new. maxWindow
// bounds the re-certification window (see period.Detect); old's period,
// when there is one, is the re-certification's hint.
//
// Apply mutates e. On error (a signature-invalid fact, or a period not
// certifiable within maxWindow) e may hold a partially applied batch;
// callers that need atomicity apply to an engine.Evaluator clone and swap
// it in on success — the copy-on-write discipline used by tdd.DB and the
// server registry.
func Apply(e *engine.Evaluator, old *spec.Spec, maxWindow int, facts []ast.Fact) (*spec.Spec, Result, error) {
	sp := e.Trace().Begin("ingest")
	res, err := Insert(e, facts)
	sp.Add("new", int64(res.NewBase))
	sp.Add("dup", int64(res.Duplicates))
	sp.Add("derived", int64(res.Derived))
	sp.End()
	if err != nil {
		return nil, res, err
	}
	if res.NewBase == 0 && old != nil {
		res.Period = old.Period
		return old, res, nil
	}
	hint := 0
	if old != nil {
		hint = old.Period.P
	}
	s, err := spec.ComputeFrom(e, maxWindow, hint)
	if err != nil {
		return nil, res, err
	}
	res.Recertified = true
	res.SpecChanged = old == nil || old.Period != s.Period
	res.Period = s.Period
	return s, res, nil
}
