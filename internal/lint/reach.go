package lint

import (
	"fmt"
	"sort"

	"tdd/internal/ast"
	"tdd/internal/progan"
)

// checkReach is the derivability dataflow pass over the rule dependency
// graph: TDL001 (undefined predicate), TDL002 (unused database predicate),
// and TDL003 (unreachable rule).
//
// The pass reads progan's over-approximation of "predicate is non-empty in
// the least model": a predicate is *populated* if the database holds facts
// for it, or some rule with an all-populated body derives it. The
// approximation ignores join and temporal constraints, so populated=false
// is definitive — the predicate is empty in the least model, and any rule
// reading it can never fire. That one-sided guarantee is what makes the
// TDL003 delete-safety claim sound.
func checkReach(rep *progan.Report, db *ast.Database) []Diagnostic {
	prog := rep.Program()
	var ds []Diagnostic

	// TDL001: a body predicate nothing derives and nothing asserts. Only
	// meaningful with a database in hand (without one every extensional
	// predicate is assumed populated); one finding per predicate, at its
	// first occurrence.
	if db != nil {
		reported := make(map[string]bool)
		for _, r := range prog.Rules {
			for _, a := range r.Body {
				if n := rep.Pred(a.Pred); n.Derived || n.Populated || reported[a.Pred] {
					continue
				}
				reported[a.Pred] = true
				ds = append(ds, Diagnostic{
					Code:     "TDL001",
					Severity: Warning,
					Line:     a.Pos.Line,
					Col:      a.Pos.Col,
					Message:  fmt.Sprintf("undefined predicate %s: no rule derives it and the database holds no %s facts", a.Pred, a.Pred),
					RuleIdx:  -1,
					Pred:     a.Pred,
					Theorem:  "least-model semantics: an empty predicate stays empty",
				})
			}
		}
	}

	// TDL003: rules outside the fixpoint have no derivation path from the
	// EDB and never fire in the least model; deleting them changes nothing.
	for i, r := range prog.Rules {
		if rep.CanFire[i] {
			continue
		}
		ds = append(ds, Diagnostic{
			Code:       "TDL003",
			Severity:   Warning,
			Line:       r.Pos.Line,
			Col:        r.Pos.Col,
			Message:    fmt.Sprintf("unreachable rule: no derivation path from the database reaches its body (%s)", emptyBodyPreds(r, rep)),
			Rule:       r.String(),
			RuleIdx:    i,
			Theorem:    "least-model semantics: a rule over empty predicates never fires",
			DeleteSafe: true,
		})
	}

	// TDL002: database predicates no rule reads. Skipped for rule-less
	// programs (a bare database consumes nothing by construction).
	if db != nil && len(prog.Rules) > 0 {
		for _, n := range rep.Preds { // sorted by name
			pred := n.Name
			if _, asserted := db.Preds[pred]; !asserted || len(n.UsedBy) > 0 {
				continue
			}
			ds = append(ds, Diagnostic{
				Code:     "TDL002",
				Severity: Info,
				Message:  fmt.Sprintf("unused predicate %s: the database holds %s facts but no rule body reads them", pred, pred),
				RuleIdx:  -1,
				Pred:     pred,
			})
		}
	}
	return ds
}

// emptyBodyPreds names the body predicates that block the rule, for the
// TDL003 message.
func emptyBodyPreds(r ast.Rule, rep *progan.Report) string {
	var out []string
	seen := make(map[string]bool)
	for _, a := range r.Body {
		if !rep.Pred(a.Pred).Populated && !seen[a.Pred] {
			seen[a.Pred] = true
			out = append(out, a.Pred)
		}
	}
	sort.Strings(out)
	if len(out) == 1 {
		return out[0] + " is provably empty"
	}
	s := ""
	for i, p := range out {
		if i > 0 {
			s += ", "
		}
		s += p
	}
	return s + " are provably empty"
}
