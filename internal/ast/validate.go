package ast

import (
	"errors"
	"fmt"
)

// Validation errors. Callers can match with errors.Is.
var (
	ErrNotRangeRestricted = errors.New("rule is not range-restricted")
	ErrNotSemiNormal      = errors.New("rule is not semi-normal (more than one temporal variable)")
	ErrNotForward         = errors.New("rule is not forward (a body literal is temporally deeper than the head)")
	ErrGroundTemporal     = errors.New("rule contains a ground temporal term (ground facts belong in the database)")
	ErrSortConflict       = errors.New("variable used in both temporal and non-temporal positions")
)

// posSuffix renders " at line L:C" for rules that carry a parser
// position, so validation errors are clickable; programmatically built
// rules (zero Pos) keep the old message shape.
func posSuffix(p Pos) string {
	if !p.Known() {
		return ""
	}
	return " at line " + p.String()
}

// ValidateRule checks the standing assumptions of the paper for a single
// rule:
//
//   - range restriction (Section 3.3): every variable in the head appears
//     in the body — required for relational specifications to be well
//     defined (for unit clauses this means the rule must be ground, which
//     ValidateProgram separately rejects: ground facts belong in the
//     database);
//   - semi-normality: at most one temporal variable;
//   - no ground temporal terms inside rules (Section 3.1 assumes rules
//     contain no ground terms);
//   - sort discipline: no name is used both as a temporal and as a
//     non-temporal variable.
func ValidateRule(r Rule) error {
	if !r.SemiNormal() {
		return fmt.Errorf("%w: %s%s", ErrNotSemiNormal, r, posSuffix(r.Pos))
	}
	for k := 0; k <= len(r.Body); k++ {
		a := r.AtomAt(k)
		if a.Time != nil && a.Time.Ground() {
			return fmt.Errorf("%w: %s%s", ErrGroundTemporal, r, posSuffix(r.Pos))
		}
	}
	// Sort discipline.
	tvars := make(map[string]bool)
	for k := 0; k <= len(r.Body); k++ {
		a := r.AtomAt(k)
		if a.Time != nil && a.Time.Var != "" {
			tvars[a.Time.Var] = true
		}
	}
	for k := 0; k <= len(r.Body); k++ {
		a := r.AtomAt(k)
		for _, s := range a.Args {
			if s.IsVar && tvars[s.Name] {
				return fmt.Errorf("%w: %s in %s%s", ErrSortConflict, s.Name, r, posSuffix(r.Pos))
			}
		}
	}
	// Range restriction.
	bodyVars := make(map[string]bool)
	var bodyHasTimeVar bool
	for _, a := range r.Body {
		if a.Time != nil && a.Time.Var != "" {
			bodyHasTimeVar = true
		}
		for _, s := range a.Args {
			if s.IsVar {
				bodyVars[s.Name] = true
			}
		}
	}
	if r.Head.Time != nil && r.Head.Time.Var != "" && !bodyHasTimeVar {
		return fmt.Errorf("%w: temporal variable %s of head not in body: %s%s", ErrNotRangeRestricted, r.Head.Time.Var, r, posSuffix(r.Pos))
	}
	for _, s := range r.Head.Args {
		if s.IsVar && !bodyVars[s.Name] {
			return fmt.Errorf("%w: variable %s of head not in body: %s%s", ErrNotRangeRestricted, s.Name, r, posSuffix(r.Pos))
		}
	}
	return nil
}

// ValidateForward checks that the rule is forward: after shifting the
// minimum temporal depth to zero, the head's temporal depth is at least
// every body literal's. The bottom-up engine evaluates states in ascending
// time order, which is sound exactly for forward rule sets (facts at time t
// depend only on facts at times <= t); see DESIGN.md.
//
// A rule whose head is non-temporal is forward regardless of body depths
// (the derived fact is timeless and the engine closes non-temporal
// consequences in an outer fixpoint).
func ValidateForward(r Rule) error {
	if r.Head.Time == nil || r.Head.Time.Ground() {
		return nil
	}
	s := r.ShiftNormalize()
	h := s.Head.Time.Depth
	for _, a := range s.Body {
		if a.Time != nil && !a.Time.Ground() && a.Time.Depth > h {
			return fmt.Errorf("%w: %s%s", ErrNotForward, r, posSuffix(r.Pos))
		}
	}
	return nil
}

// ValidateProgram validates all rules of a program and the consistency of
// its predicate signatures (the latter is established at construction; this
// re-checks after transformations).
func ValidateProgram(p *Program) error {
	for _, r := range p.Rules {
		if len(r.Body) == 0 {
			return fmt.Errorf("ast: unit clause %s: ground facts belong in the database", r)
		}
		if err := ValidateRule(r); err != nil {
			return err
		}
		if err := ValidateForward(r); err != nil {
			return err
		}
	}
	// Re-infer signatures to catch inconsistencies introduced by manual
	// rule edits.
	fresh, err := NewProgram(p.Rules)
	if err != nil {
		return err
	}
	p.Preds = fresh.Preds
	return nil
}
