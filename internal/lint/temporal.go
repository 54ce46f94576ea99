package lint

import (
	"fmt"

	"tdd/internal/ast"
	"tdd/internal/engine"
	"tdd/internal/spec"
)

// probeBudget bounds the time points TDL004 is decided over: base +
// period of the certified model plus the rules' depth span. Models beyond
// it are not checked.
const probeBudget = 4096

// checkNeverFires flags rules whose body is unsatisfiable at every time
// point of the least model (TDL004). The check is semantic, not syntactic:
// it reads the engine's per-rule instantiation counter, which counts every
// body match the evaluation made. With the window closed to base+period
// plus the rules' depth span, the engine has instantiated every rule at
// every ground T in [0, base+period). By I-periodicity (Theorem 6.1 /
// Section 3.2), states repeat from base with period p, so a rule with no
// instantiation there has none at any T — the counter is a decision
// procedure, which is what makes the delete-safety claim sound.
//
// Preconditions: a database with facts and a certifiable period within
// opts.MaxWindow; the check is skipped (no findings) otherwise, and also
// when base+period plus the depth span exceeds probeBudget.
//
// Rules in skip are not checked. Counters only grow and the least model
// is monotone in the database, so a rule the evaluator has already seen
// fire — in this model or, through a clone, an ancestor's — is settled;
// when no rule is left unfired, the window is not grown.
func checkNeverFires(prog *ast.Program, db *ast.Database, opts Options, skip map[int]bool) []Diagnostic {
	if db == nil || len(db.Facts) == 0 {
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
	var unfired []int
	for i, r := range prog.Rules {
		if !skip[i] && len(r.Body) > 0 && ev.RuleFirings(i) == 0 {
			unfired = append(unfired, i)
		}
	}
	if len(unfired) == 0 {
		return nil
	}
	limit := s.Period.Base + s.Period.P
	span := 0
	for _, r := range prog.Rules {
		if d := r.MaxDepth(); d > span {
			span = d
		}
	}
	if limit+span > probeBudget {
		return nil
	}
	ev.EnsureWindow(limit + span)

	var ds []Diagnostic
	for _, i := range unfired {
		if ev.RuleFirings(i) > 0 {
			continue
		}
		r := prog.Rules[i]
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
