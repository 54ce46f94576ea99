// Package classify implements the paper's recognizable tractable classes
// of temporal rules:
//
//   - the inflationary test of Theorem 5.2 (decidable, exact);
//   - the dependency-graph machinery (mutual recursion, levels) and the
//     syntactic classes of time-only, data-only, and multi-separable rule
//     sets of Section 6;
//   - the I-period construction of Theorems 6.3/6.5 for multi-separable
//     rule sets;
//   - the reduction of Theorem 6.2 (temporalizing a function-free Datalog
//     program into a counting TDD), used to connect boundedness with
//     I-periodicity.
package classify

import (
	"tdd/internal/ast"
	"tdd/internal/progan"
)

// The dependency graph (an edge P -> Q for every rule with head predicate
// P and body predicate Q) and its condensation are progan's; the notions
// below read its report.

// MutualSCCs returns the mutually recursive components of the dependency
// graph — two or more predicates on one cycle — callees before callers,
// each sorted.
func MutualSCCs(p *ast.Program) [][]string {
	return mutualSCCs(progan.Analyze(p, nil))
}

func mutualSCCs(g *progan.Report) [][]string {
	var out [][]string
	for _, c := range g.SCCs {
		if c.Recursion == progan.MutualRecursive {
			out = append(out, c.Preds)
		}
	}
	return out
}

// MutualRecursionFree reports whether the program has no mutual recursion:
// every strongly connected component of the dependency graph is a single
// predicate (self-loops — plain recursion — are allowed).
func MutualRecursionFree(p *ast.Program) bool {
	return len(MutualSCCs(p)) == 0
}

// Levels assigns a level number to every predicate of a mutual-recursion-
// free program: EDB predicates get level 0; a derived predicate's level is
// 1 + the maximum level of the non-self predicates it depends on. Used by
// the Theorem 6.5 induction. Returns ok=false if the program has mutual
// recursion.
func Levels(p *ast.Program) (map[string]int, bool) {
	return levels(progan.Analyze(p, nil))
}

func levels(g *progan.Report) (map[string]int, bool) {
	out := make(map[string]int, len(g.Preds))
	// SCCs come callees-first, so one pass suffices.
	for _, c := range g.SCCs {
		if c.Recursion == progan.MutualRecursive {
			return nil, false
		}
		n := g.Pred(c.Preds[0])
		lvl := 0
		if n.Derived {
			lvl = 1
			for _, m := range n.Uses {
				if m != n.Name && out[m] >= lvl {
					lvl = out[m] + 1
				}
			}
		}
		out[n.Name] = lvl
	}
	return out, true
}
