package classify

import (
	"fmt"

	"tdd/internal/ast"
	"tdd/internal/engine"
)

// Inflationary decides whether the rule set is inflationary (Section 5):
// for every database D, every derived temporal predicate P, every instant
// t and tuple x̄, if P(t, x̄) holds in the least model then so does
// P(t+1, x̄).
//
// The decision procedure is Theorem 5.2's: Z is inflationary iff for every
// derived temporal predicate P of non-temporal arity l,
//
//	P(1, a1, ..., al)  ∈  least model of Z ∧ {P(0, a1, ..., al)}
//
// where a1..al are pairwise-distinct fresh constants. The proof's
// homomorphism argument requires the rules to be constant-free (the paper
// assumes rules contain no ground terms); Inflationary returns an error
// for rule sets with non-temporal constants.
func Inflationary(p *ast.Program) (bool, error) {
	ok, _, err := InflationaryWitness(p)
	return ok, err
}

// InflationaryWitness is Inflationary plus, when the answer is false, the
// name of a derived temporal predicate violating the condition.
func InflationaryWitness(p *ast.Program) (bool, string, error) {
	if pred, c, found := ruleConstant(p); found {
		return false, "", fmt.Errorf("classify: the inflationary test requires constant-free rules; %s uses constant %q", pred, c)
	}
	if err := ast.ValidateProgram(p); err != nil {
		return false, "", err
	}
	for _, name := range p.Derived() {
		info := p.Preds[name]
		if !info.Temporal {
			continue
		}
		args := make([]string, info.Arity)
		for i := range args {
			args[i] = fmt.Sprintf("a$%d", i)
		}
		db, err := ast.NewDatabase([]ast.Fact{{Pred: name, Temporal: true, Time: 0, Args: args}})
		if err != nil {
			return false, "", err
		}
		e, err := engine.New(p.Clone(), db)
		if err != nil {
			return false, "", err
		}
		e.EnsureWindow(1)
		if !e.Holds(ast.Fact{Pred: name, Temporal: true, Time: 1, Args: args}) {
			return false, name, nil
		}
	}
	return true, "", nil
}

// ruleConstant finds a non-temporal constant inside a rule, if any.
func ruleConstant(p *ast.Program) (pred, c string, found bool) {
	for _, r := range p.Rules {
		for k := 0; k <= len(r.Body); k++ {
			a := r.AtomAt(k)
			for _, s := range a.Args {
				if !s.IsVar {
					return a.Pred, s.Name, true
				}
			}
		}
	}
	return "", "", false
}
