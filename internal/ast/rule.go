package ast

import (
	"strings"
)

// Rule is a temporal Horn rule Head :- Body[0], ..., Body[n-1].
// A rule with an empty body is a (possibly non-ground) unit clause; the
// paper confines ground unit clauses to the database, which the validator
// enforces.
type Rule struct {
	Head Atom
	Body []Atom

	// Pos is the source position of the clause (its head predicate), when
	// the rule came from the parser. Diagnostics only; structural helpers
	// ignore it.
	Pos Pos
}

// Clone returns a deep copy of the rule.
func (r Rule) Clone() Rule {
	c := Rule{Head: r.Head.Clone(), Pos: r.Pos}
	c.Body = make([]Atom, len(r.Body))
	for i, a := range r.Body {
		c.Body[i] = a.Clone()
	}
	return c
}

func (r Rule) String() string {
	var b strings.Builder
	b.WriteString(r.Head.String())
	if len(r.Body) > 0 {
		b.WriteString(" :- ")
		for i, a := range r.Body {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(a.String())
		}
	}
	b.WriteByte('.')
	return b.String()
}

// AtomAt returns atom k of the rule: the head for k = 0 and body atom
// k-1 for k = 1..len(r.Body). Walking k from 0 to len(r.Body) visits the
// head and then the body without copying either.
func (r *Rule) AtomAt(k int) *Atom {
	if k == 0 {
		return &r.Head
	}
	return &r.Body[k-1]
}

// TemporalVars returns the distinct temporal variable names in the rule in
// order of first occurrence.
func (r Rule) TemporalVars() []string {
	var out []string
	seen := make(map[string]bool)
	for k := 0; k <= len(r.Body); k++ {
		a := r.AtomAt(k)
		if a.Time != nil && a.Time.Var != "" && !seen[a.Time.Var] {
			seen[a.Time.Var] = true
			out = append(out, a.Time.Var)
		}
	}
	return out
}

// SemiNormal reports whether the rule is semi-normal: it contains at most
// one temporal variable, and that variable occurs only as (part of) the
// temporal argument of literals. The second half holds by construction in
// this AST — the parser sorts variables — so the check reduces to counting
// temporal variables.
func (r Rule) SemiNormal() bool { return len(r.TemporalVars()) <= 1 }

// Normal reports whether the rule is normal: semi-normal and every
// non-ground temporal term has depth at most 1.
func (r Rule) Normal() bool {
	if !r.SemiNormal() {
		return false
	}
	for k := 0; k <= len(r.Body); k++ {
		a := r.AtomAt(k)
		if a.Time != nil && !a.Time.Ground() && a.Time.Depth > 1 {
			return false
		}
	}
	return true
}

// MinDepth returns the minimum temporal depth over the rule's non-ground
// temporal terms, or -1 if the rule has none.
func (r Rule) MinDepth() int {
	min := -1
	for k := 0; k <= len(r.Body); k++ {
		a := r.AtomAt(k)
		if a.Time != nil && !a.Time.Ground() {
			if min == -1 || a.Time.Depth < min {
				min = a.Time.Depth
			}
		}
	}
	return min
}

// MaxDepth returns the maximum temporal depth over the rule's non-ground
// temporal terms, or -1 if the rule has none.
func (r Rule) MaxDepth() int {
	max := -1
	for k := 0; k <= len(r.Body); k++ {
		a := r.AtomAt(k)
		if a.Time != nil && !a.Time.Ground() && a.Time.Depth > max {
			max = a.Time.Depth
		}
	}
	return max
}

// ShiftNormalize returns a copy of the rule with all temporal depths
// shifted so the minimum depth is zero.
//
// CAUTION: this is a structural helper for relative-depth analyses
// (forwardness, lookback/lag computation), NOT a semantic equivalence.
// The temporal variable ranges over 0,1,2,..., so p(T+3) :- q(T+1) has no
// instance with head p(2), while the shifted p(T+2) :- q(T) does; the
// evaluation engines therefore compile rules with their original depths.
func (r Rule) ShiftNormalize() Rule {
	min := r.MinDepth()
	if min <= 0 {
		return r.Clone()
	}
	c := r.Clone()
	for i := range c.Body {
		if c.Body[i].Time != nil && !c.Body[i].Time.Ground() {
			*c.Body[i].Time = c.Body[i].Time.Shift(-min)
		}
	}
	if c.Head.Time != nil && !c.Head.Time.Ground() {
		*c.Head.Time = c.Head.Time.Shift(-min)
	}
	return c
}

// Recursive reports whether the head predicate also occurs in the body.
func (r Rule) Recursive() bool {
	for _, a := range r.Body {
		if a.Pred == r.Head.Pred {
			return true
		}
	}
	return false
}

// TimeOnly reports whether the rule is time-only in the sense of Section 6:
// it is recursive and the non-temporal arguments in all occurrences of the
// recursive (head) predicate are identical.
func (r Rule) TimeOnly() bool {
	if !r.Recursive() {
		return false
	}
	for _, a := range r.Body {
		if a.Pred != r.Head.Pred {
			continue
		}
		if len(a.Args) != len(r.Head.Args) {
			return false
		}
		for i := range a.Args {
			if a.Args[i] != r.Head.Args[i] {
				return false
			}
		}
	}
	return true
}

// DataOnly reports whether the rule is data-only in the sense of Section 6:
// it is recursive and the temporal argument in all temporal literals is
// identical (same variable, same depth).
func (r Rule) DataOnly() bool {
	if !r.Recursive() {
		return false
	}
	var seen *TemporalTerm
	for k := 0; k <= len(r.Body); k++ {
		a := r.AtomAt(k)
		if a.Time == nil {
			continue
		}
		if seen == nil {
			t := *a.Time
			seen = &t
			continue
		}
		if *a.Time != *seen {
			return false
		}
	}
	return true
}

// Reduced reports whether a time-only rule is reduced: every non-temporal
// variable that appears in its body also appears in its head. (Constants
// in the body do not affect reducedness.)
func (r Rule) Reduced() bool {
	head := make(map[string]bool)
	for _, s := range r.Head.Args {
		if s.IsVar {
			head[s.Name] = true
		}
	}
	for _, a := range r.Body {
		for _, s := range a.Args {
			if s.IsVar && !head[s.Name] {
				return false
			}
		}
	}
	return true
}
