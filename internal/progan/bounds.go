package progan

import "tdd/internal/ast"

// Bounds is the static bounds pass: the emptiness and support seeds the
// join planner costs cold relations with. It is a pure function of
// (program, database) — no store state — so every evaluator over the
// same snapshot derives identical bounds, and with them identical plans,
// across runs and clone lineages.
type Bounds struct {
	// Empty marks predicates the base-reachability fixpoint proves empty
	// in the least model: the planner can cost them at zero.
	Empty map[string]bool
	// Support[p], for derived predicates, counts the database facts of
	// extensional predicates backward-reachable from p — an upper-bound
	// flavor seed for a cold (not-yet-derived) relation, replacing the
	// planner's database-sized guess.
	Support map[string]int
}

// ComputeBounds runs the bounds pass. db must be non-nil (the engine
// always has one); the populated verdict comes from the same
// base-reachability fixpoint Analyze runs.
func ComputeBounds(prog *ast.Program, db *ast.Database) *Bounds {
	r := Analyze(prog, db)
	b := &Bounds{
		Empty:   make(map[string]bool),
		Support: make(map[string]int),
	}
	for i := range r.Preds {
		if !r.Preds[i].Populated {
			b.Empty[r.Preds[i].Name] = true
		}
	}

	// Support: per derived predicate, the database facts of the EDB
	// predicates in its backward closure. Fact counts are tallied once;
	// closures are walked per predicate (programs are small, and the walk
	// is O(preds * edges)).
	factCount := make(map[string]int, len(db.Preds))
	for _, f := range db.Facts {
		factCount[f.Pred]++
	}
	for i := range r.Preds {
		p := &r.Preds[i]
		if !p.Derived || !p.Populated {
			continue
		}
		seen := map[string]bool{p.Name: true}
		queue := []string{p.Name}
		sum := factCount[p.Name]
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, q := range r.uses[cur] {
				if seen[q] {
					continue
				}
				seen[q] = true
				queue = append(queue, q)
				sum += factCount[q]
			}
		}
		b.Support[p.Name] = sum
	}
	return b
}
