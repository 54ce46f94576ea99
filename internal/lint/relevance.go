package lint

// checkRelevance is the progan-backed relevance pass: whole-program
// dependency findings the per-rule reach pass cannot see.
//
//	TDL201 irrelevant-rule    rule cannot influence any exported predicate
//	TDL202 dead-component     a whole SCC is base-unreachable
//
// The export set drives TDL201. An explicit one comes from directive
// comments in the source:
//
//	% tddlint:export plane winter
//
// (findings are then warnings — the author declared the program's
// surface, and rules outside its backward slice are dead weight by that
// declaration). Without directives the pass infers the surface as every
// derived predicate no other predicate's rules consume — the "tops" of
// the dependency graph — and reports at info severity: the only rules
// outside that slice are closed dependency cycles nothing reads.

import (
	"fmt"
	"sort"
	"strings"

	"tdd/internal/progan"
)

// exportMarker introduces an export directive inside a TDD comment.
const exportMarker = "tddlint:export"

// exportDirectives scans raw source for export markers (see directives).
// Every word names a predicate; names accumulate across directives,
// deduplicated and sorted.
func exportDirectives(src string) []string {
	set := make(map[string]bool)
	directives(src, exportMarker, func(_ int, words []string) {
		for _, f := range words {
			set[f] = true
		}
	})
	if len(set) == 0 {
		return nil
	}
	out := make([]string, 0, len(set))
	for name := range set {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func checkRelevance(r *progan.Report, source string) []Diagnostic {
	prog := r.Program()
	var ds []Diagnostic

	// TDL202: one finding per base-unreachable component with rules. The
	// reach pass already warns per rule (TDL003); this is the component
	// view — the whole cycle is dead together, which a rule-at-a-time
	// reading of the TDL003s does not say.
	for _, c := range r.SCCs {
		if c.AnyPopulated || len(c.Rules) == 0 {
			continue
		}
		first := prog.Rules[c.Rules[0]]
		ds = append(ds, Diagnostic{
			Code:     "TDL202",
			Severity: Info,
			Line:     first.Pos.Line,
			Col:      first.Pos.Col,
			Message: fmt.Sprintf("dead component {%s}: base-unreachable as a whole — its %d rule(s) can never fire",
				strings.Join(c.Preds, ", "), len(c.Rules)),
			RuleIdx: -1,
			Theorem: "least-model semantics: an SCC with no base support stays empty",
		})
	}

	// TDL201: rules outside the backward slice of the export set.
	exports := exportDirectives(source)
	explicit := len(exports) > 0
	if !explicit {
		// Inferred surface: derived predicates no other predicate's rules
		// consume (self-recursion does not count as consumption).
		for i := range r.Preds {
			p := &r.Preds[i]
			if !p.Derived {
				continue
			}
			top := true
			for _, u := range p.UsedBy {
				if u != p.Name {
					top = false
					break
				}
			}
			if top {
				exports = append(exports, p.Name)
			}
		}
	}
	if len(exports) == 0 {
		return ds
	}
	sl := progan.SliceOf(r.Program(), exports)
	if !sl.Proper() {
		return ds
	}
	sev, note := Info, "no other predicate consumes the remaining heads"
	if explicit {
		sev, note = Warning, "declared by tddlint:export"
	}
	inSlice := make(map[int]bool, len(sl.Rules))
	for _, i := range sl.Rules {
		inSlice[i] = true
	}
	for i, rule := range prog.Rules {
		if inSlice[i] {
			continue
		}
		ds = append(ds, Diagnostic{
			Code:     "TDL201",
			Severity: sev,
			Line:     rule.Pos.Line,
			Col:      rule.Pos.Col,
			Message: fmt.Sprintf("irrelevant rule: cannot influence any exported predicate (exports: %s; %s)",
				strings.Join(exports, ", "), note),
			Rule:    rule.String(),
			RuleIdx: i,
			Theorem: "slice theorem: the least model restricted to a predicate set depends only on its backward closure",
		})
	}
	return ds
}
