package progan

import "tdd/internal/ast"

// Bounds is the static bounds pass: the emptiness and support seeds the
// join planner costs cold relations with. It is a pure function of the
// program and the database's predicates — no facts, no store state — so
// every evaluator over the same snapshot derives identical bounds, and
// it stays valid while facts of known predicates arrive.
type Bounds struct {
	// Empty marks predicates the base-reachability fixpoint proves empty
	// in the least model: the planner can cost them at zero.
	Empty map[string]bool
	// Closure[p], for each populated derived predicate p, lists p and the
	// predicates backward-reachable from it through rule bodies.
	Closure map[string][]string
}

// ComputeBounds runs the bounds pass. db must be non-nil (the engine
// always has one); only its predicates are read, and the populated
// verdict comes from the same base-reachability fixpoint Analyze runs.
func ComputeBounds(prog *ast.Program, db *ast.Database) *Bounds {
	r := Analyze(prog, db)
	b := &Bounds{
		Empty:   make(map[string]bool),
		Closure: make(map[string][]string),
	}
	for i := range r.Preds {
		p := &r.Preds[i]
		if !p.Populated {
			b.Empty[p.Name] = true
		}
		if !p.Derived || !p.Populated {
			continue
		}
		seen := map[string]bool{p.Name: true}
		closure := []string{p.Name}
		for k := 0; k < len(closure); k++ {
			for _, q := range r.uses[closure[k]] {
				if !seen[q] {
					seen[q] = true
					closure = append(closure, q)
				}
			}
		}
		b.Closure[p.Name] = closure
	}
	return b
}

// Support returns, for a populated derived predicate p, the database
// facts of its closure as count reports them per predicate — an upper
// bound flavor seed for a cold (not yet derived) relation, replacing the
// planner's database-sized guess — and false for any other predicate.
func (b *Bounds) Support(p string, count func(pred string) int) (int, bool) {
	closure, ok := b.Closure[p]
	if !ok {
		return 0, false
	}
	sum := 0
	for _, q := range closure {
		sum += count(q)
	}
	return sum, true
}
