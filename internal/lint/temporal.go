package lint

import (
	"fmt"

	"tdd/internal/ast"
	"tdd/internal/engine"
	"tdd/internal/spec"
)

// checkNeverFires flags rules whose body is unsatisfiable at every time
// point of the least model (TDL004). The check is semantic, not syntactic:
// it reads the engine's per-rule instantiation counter, which counts every
// body match the evaluation made. The certified window already holds
// every instance a rule can have up to a shift by the period — the
// coverage lemma at period.Lookback, which rests on I-periodicity
// (Theorem 6.1 / Section 3.2) — so a rule with no instantiation there has
// none at any T: the counter is a decision procedure, which is what makes
// the delete-safety claim sound. The check reads the certified evaluator
// and never evaluates anything itself.
//
// Preconditions: a database with facts and a certified period — opts.Spec,
// or one certified here from db's facts within opts.MaxWindow; the check
// is skipped (no findings) otherwise. A database has facts exactly when
// it has signatures, so with opts.Spec only the signatures are read and
// core.BT.Lint passes no facts.
//
// Rules in skip are not checked. Counters only grow and the least model
// is monotone in the database, so a firing the evaluator inherited
// through a clone from an ancestor's model holds in this one too.
func checkNeverFires(prog *ast.Program, db *ast.Database, opts Options, skip map[int]bool) []Diagnostic {
	if db == nil || len(db.Preds) == 0 || opts.Spec == nil && len(db.Facts) == 0 {
		return nil
	}
	s := opts.Spec
	if s == nil {
		e, err := engine.New(prog.Clone(), db.Clone())
		if err != nil {
			return nil
		}
		s, err = spec.Compute(e, opts.MaxWindow)
		if err != nil {
			return nil
		}
	}
	ev := s.Evaluator()
	limit := s.Period.Base + s.Period.P
	var ds []Diagnostic
	for i, r := range prog.Rules {
		if skip[i] || len(r.Body) == 0 || ev.RuleFirings(i) > 0 {
			continue
		}
		ds = append(ds, Diagnostic{
			Code:       "TDL004",
			Severity:   Warning,
			Line:       r.Pos.Line,
			Col:        r.Pos.Col,
			Message:    fmt.Sprintf("rule never fires: its body has no match at any time point of the least model (checked T in [0, %d), decisive by the certified period %s)", limit, s.Period),
			Rule:       r.String(),
			RuleIdx:    i,
			Theorem:    "Theorem 6.1 / Section 3.2 (periodicity makes the probe a decision procedure)",
			DeleteSafe: true,
		})
	}
	return ds
}
