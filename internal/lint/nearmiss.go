package lint

import (
	"fmt"
	"strings"

	"tdd/internal/ast"
	"tdd/internal/classify"
)

// checkNearMiss explains why a program misses the paper's tractable
// classes (TDL010–TDL012). The diagnostics fire only when the program is
// outside both classes — inflationary (Theorem 5.1/5.2) and
// multi-separable (Theorems 6.3–6.5) — because a program inside either
// has guaranteed polynomial periodicity and there is nothing to warn
// about. They are informational: an intractable-looking program is still
// evaluable, it just loses the polynomial certificate. rep is the rule
// set's classification.
func checkNearMiss(prog *ast.Program, rep classify.Report) []Diagnostic {
	if !rep.Valid || rep.Tractable() {
		return nil
	}
	var ds []Diagnostic

	// TDL012: mutual recursion (one finding per offending SCC) — the
	// structural obstacle to multi-separability.
	if !rep.MutualRecursionFree {
		for _, comp := range classify.MutualSCCs(prog) {
			pos := firstRulePos(prog, comp)
			ds = append(ds, Diagnostic{
				Code:     "TDL012",
				Severity: Info,
				Line:     pos.Line,
				Col:      pos.Col,
				Message:  fmt.Sprintf("predicates %s are mutually recursive; multi-separability requires mutual-recursion freedom", strings.Join(comp, ", ")),
				RuleIdx:  -1,
				Pred:     strings.Join(comp, ","),
				Theorem:  "Section 6 (multi-separable rule sets are mutual-recursion free)",
			})
		}
	}

	// TDL010: recursive rules that are neither time-only nor data-only —
	// the per-rule obstacle (one finding per offending rule, unlike
	// classify.MultiSeparable which stops at the first).
	for i, r := range prog.Rules {
		if classify.KindOf(r) != classify.KindOther {
			continue
		}
		ds = append(ds, Diagnostic{
			Code:     "TDL010",
			Severity: Info,
			Line:     r.Pos.Line,
			Col:      r.Pos.Col,
			Message:  "recursive rule is neither time-only nor data-only, so the rule set is not multi-separable",
			Rule:     r.String(),
			RuleIdx:  i,
			Theorem:  "Theorems 6.3–6.5 (multi-separable rule sets are I-periodic)",
		})
	}

	// TDL011: the Theorem 5.2 witness, when the test could run.
	if rep.InflationaryErr == "" && !rep.Inflationary && rep.Witness != "" {
		ds = append(ds, Diagnostic{
			Code:     "TDL011",
			Severity: Info,
			Message:  fmt.Sprintf("program is not inflationary: %s(0, a1..ak) does not propagate to %s(1, a1..ak) under the Theorem 5.2 test", rep.Witness, rep.Witness),
			RuleIdx:  -1,
			Pred:     rep.Witness,
			Theorem:  "Theorem 5.2 (decidability of the inflationary property)",
		})
	}
	return ds
}

// firstRulePos finds the position of the first rule whose head belongs to
// the component, so the SCC diagnostic lands on source.
func firstRulePos(prog *ast.Program, comp []string) ast.Pos {
	in := make(map[string]bool, len(comp))
	for _, p := range comp {
		in[p] = true
	}
	for _, r := range prog.Rules {
		if in[r.Head.Pred] {
			return r.Pos
		}
	}
	return ast.Pos{}
}
