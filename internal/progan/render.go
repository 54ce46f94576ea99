package progan

import (
	"fmt"
	"strings"
)

// ReportJSON is the wire form of a report, served by tddserve's
// /debug/graph and printed by `tdd graph -json`.
type ReportJSON struct {
	Preds []PredNode `json:"preds"`
	SCCs  []SCC      `json:"sccs"`
	// Rules maps rule index -> source text, so SCC.Rules is resolvable
	// client-side.
	Rules []string `json:"rules"`
}

// JSON builds the wire form of the report.
func (r *Report) JSON() ReportJSON {
	out := ReportJSON{Preds: r.Preds, SCCs: r.SCCs}
	for _, rule := range r.prog.Rules {
		out.Rules = append(out.Rules, rule.String())
	}
	return out
}

// Render prints the condensation in topological order (dependencies
// first), one component per line with its metadata, followed by the
// provably empty predicates if any. Stable across runs.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "dependency graph: %d predicates, %d components\n", len(r.Preds), len(r.SCCs))
	for i := range r.SCCs {
		c := &r.SCCs[i]
		fmt.Fprintf(&b, "  scc %d [%s]: {%s}", c.ID, c.Recursion, strings.Join(c.Preds, ", "))
		if len(c.Rules) > 0 {
			fmt.Fprintf(&b, " rules=%d", len(c.Rules))
		}
		if c.MaxHeadDepth >= 0 {
			fmt.Fprintf(&b, " head<=T+%d", c.MaxHeadDepth)
		}
		if c.MaxBodyDepth >= 0 {
			fmt.Fprintf(&b, " body<=T+%d", c.MaxBodyDepth)
		}
		if !c.AnyPopulated {
			b.WriteString(" BASE-UNREACHABLE")
		} else if !c.BaseReachable {
			b.WriteString(" partially-populated")
		}
		b.WriteByte('\n')
	}
	var empty []string
	for i := range r.Preds {
		if !r.Preds[i].Populated {
			empty = append(empty, r.Preds[i].Name)
		}
	}
	if len(empty) > 0 {
		fmt.Fprintf(&b, "provably empty: %s\n", strings.Join(empty, ", "))
	}
	return b.String()
}
