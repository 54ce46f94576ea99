package ast

import (
	"fmt"
)

// freshNamer returns a generator of predicate names not used by p.
func freshNamer(p *Program) func(base string) string {
	used := make(map[string]bool, len(p.Preds))
	for name := range p.Preds {
		used[name] = true
	}
	n := 0
	return func(base string) string {
		for {
			name := fmt.Sprintf("%s$%d", base, n)
			n++
			if !used[name] {
				used[name] = true
				return name
			}
		}
	}
}

// ReduceTimeOnly rewrites every time-only rule of p into reduced form
// (every non-temporal body variable occurs in the head) by moving the
// non-recursive body literals that mention extra variables into a fresh
// auxiliary predicate, as sketched in Section 6 ("the reduced form may be
// obtained through the introduction of additional predicates and additional
// non-recursive rules"). The transformation preserves multi-separability
// and the least model restricted to the original predicates.
func ReduceTimeOnly(p *Program) (*Program, error) {
	fresh := freshNamer(p)
	var out []Rule
	for _, r := range p.Rules {
		if !r.TimeOnly() || r.Reduced() {
			out = append(out, r.Clone())
			continue
		}
		headVars := make(map[string]bool)
		for _, s := range r.Head.Args {
			if s.IsVar {
				headVars[s.Name] = true
			}
		}
		// Split the body: recursive literals stay; non-recursive literals
		// that mention a non-head variable move into the auxiliary
		// predicate, together with any literals sharing variables with
		// them (to keep the join semantics intact we move all
		// non-recursive literals — simpler and still equivalent).
		var kept, moved []Atom
		for _, a := range r.Body {
			if a.Pred == r.Head.Pred {
				kept = append(kept, a.Clone())
				continue
			}
			moved = append(moved, a.Clone())
		}
		if len(moved) == 0 {
			// Reduced() was false only because of a recursive literal?
			// Cannot happen: recursive literals share the head's args.
			out = append(out, r.Clone())
			continue
		}
		// Auxiliary predicate arguments: moved-literal variables that the
		// head mentions.
		var auxArgs []Symbol
		seen := make(map[string]bool)
		movedTemporal := false
		// The auxiliary head sits at the maximum depth among the moved
		// literals so the auxiliary rule itself remains forward.
		maxMovedDepth := 0
		for _, a := range moved {
			if a.Time != nil && !a.Time.Ground() {
				movedTemporal = true
				if a.Time.Depth > maxMovedDepth {
					maxMovedDepth = a.Time.Depth
				}
			}
			for _, s := range a.Args {
				if s.IsVar && headVars[s.Name] && !seen[s.Name] {
					seen[s.Name] = true
					auxArgs = append(auxArgs, s)
				}
			}
		}
		auxName := fresh("aux$" + r.Head.Pred)
		var auxHead Atom
		var callAtom Atom
		if movedTemporal {
			tv := r.TemporalVars()[0]
			auxHead = TemporalAtom(auxName, TemporalTerm{Var: tv, Depth: maxMovedDepth}, auxArgs...)
			callAtom = TemporalAtom(auxName, TemporalTerm{Var: tv, Depth: maxMovedDepth}, auxArgs...)
		} else {
			auxHead = NonTemporalAtom(auxName, auxArgs...)
			callAtom = NonTemporalAtom(auxName, auxArgs...)
		}
		auxRule := Rule{Head: auxHead, Body: moved}
		newRule := Rule{Head: r.Head.Clone(), Body: append(kept, callAtom)}
		out = append(out, newRule, auxRule)
	}
	np, err := NewProgram(out)
	if err != nil {
		return nil, err
	}
	return np, nil
}
