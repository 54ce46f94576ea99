package classify

import (
	"fmt"

	"tdd/internal/ast"
)

// RuleKind classifies a single rule per Section 6.
type RuleKind int

const (
	// KindNonRecursive rules do not mention their head predicate in the
	// body.
	KindNonRecursive RuleKind = iota
	// KindTimeOnly rules are recursive with identical non-temporal
	// arguments in all occurrences of the recursive predicate.
	KindTimeOnly
	// KindDataOnly rules are recursive with an identical temporal argument
	// in all temporal literals.
	KindDataOnly
	// KindOther rules are recursive but neither time-only nor data-only
	// (e.g. the path rule, which shifts both time and data).
	KindOther
)

func (k RuleKind) String() string {
	switch k {
	case KindNonRecursive:
		return "non-recursive"
	case KindTimeOnly:
		return "time-only"
	case KindDataOnly:
		return "data-only"
	}
	return "recursive (neither time-only nor data-only)"
}

// KindOf classifies a rule. A rule that is both time-only and data-only
// (e.g. p(T, x̄) :- p(T, x̄), q(T)) reports time-only.
func KindOf(r ast.Rule) RuleKind {
	if !r.Recursive() {
		return KindNonRecursive
	}
	if r.TimeOnly() {
		return KindTimeOnly
	}
	if r.DataOnly() {
		return KindDataOnly
	}
	return KindOther
}

// MultiSeparable reports whether the rule set is multi-separable
// (Section 6): mutual-recursion free, and every recursive rule is either
// time-only or data-only. When the answer is no, reason explains why.
//
// The paper states the definition for semi-normal rules, which the AST
// guarantees; note that the normalization to depth <= 1 of [6] may destroy
// multi-separability (it introduces mutual recursion through delay
// predicates), so the check is applied to the semi-normal form.
func MultiSeparable(p *ast.Program) (ok bool, reason string) {
	return multiSeparable(p, MutualSCCs(p))
}

// multiSeparable is MultiSeparable given the program's mutually recursive
// components.
func multiSeparable(p *ast.Program, mutual [][]string) (ok bool, reason string) {
	if len(mutual) > 0 {
		return false, fmt.Sprintf("mutual recursion among %v", mutual[0])
	}
	for _, r := range p.Rules {
		if k := KindOf(r); k == KindOther {
			return false, fmt.Sprintf("rule %s%s is recursive but neither time-only nor data-only", r, atPos(r.Pos))
		}
	}
	return true, ""
}

// atPos renders " (line L:C)" for rules carrying a parser position, so
// classification notes point at the offending clause.
func atPos(p ast.Pos) string {
	if !p.Known() {
		return ""
	}
	return " (line " + p.String() + ")"
}

// Separable reports whether the rule set is separable in the stricter
// sense of [7] (Chomicki & Imielinski 1988), which the paper compares
// against: multi-separable, and every recursive time-only rule has at most
// one temporal literal in its body. The ski-resort example is
// multi-separable but not separable (its rules carry two temporal body
// literals: the recursive one and the season gate).
func Separable(p *ast.Program) (ok bool, reason string) {
	if ok, reason := MultiSeparable(p); !ok {
		return false, reason
	}
	return singleTemporalLiterals(p)
}

// singleTemporalLiterals is the condition Separable adds to
// MultiSeparable.
func singleTemporalLiterals(p *ast.Program) (ok bool, reason string) {
	for _, r := range p.Rules {
		if KindOf(r) != KindTimeOnly {
			continue
		}
		temporal := 0
		for _, a := range r.Body {
			if a.Time != nil {
				temporal++
			}
		}
		if temporal > 1 {
			return false, fmt.Sprintf("time-only rule %s%s has %d temporal body literals", r, atPos(r.Pos), temporal)
		}
	}
	return true, ""
}
