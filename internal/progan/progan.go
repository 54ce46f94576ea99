// Package progan is the whole-program static analyzer over validated TDL
// programs: a predicate dependency graph condensed into strongly
// connected components (Tarjan), per-SCC static metadata (temporal
// depths, recursion class, base-reachability), query-directed relevance
// slicing (slice.go), and the static bounds pass that feeds the engine's
// planner (bounds.go).
//
// Everything in this package is a pure function of the AST: no clocks, no
// randomness, no global state (internal/gocheck's TestFixpointImports
// enforces the first two). Two calls over equal programs and databases produce structurally
// identical reports, slices, and bounds — the property the slicing layer
// and the planner's determinism contract lean on.
package progan

import (
	"sort"

	"tdd/internal/ast"
)

// RecursionClass labels how an SCC depends on itself.
type RecursionClass string

const (
	// NonRecursive: a single predicate with no self edge.
	NonRecursive RecursionClass = "nonrecursive"
	// SelfRecursive: a single predicate depending directly on itself.
	SelfRecursive RecursionClass = "self"
	// MutualRecursive: two or more predicates in one cycle.
	MutualRecursive RecursionClass = "mutual"
)

// PredNode is one predicate's row in the report.
type PredNode struct {
	Name     string `json:"name"`
	Temporal bool   `json:"temporal"`
	Arity    int    `json:"arity"`
	// Derived marks predicates appearing in some rule head.
	Derived bool `json:"derived"`
	// Populated is the base-reachability verdict: the over-approximating
	// fixpoint ("a predicate holds facts if the database asserts it or a
	// rule with an all-populated body derives it") reaches it. False is
	// definitive — the predicate is empty in the least model.
	Populated bool `json:"populated"`
	// SCC indexes into Report.SCCs.
	SCC int `json:"scc"`
	// Uses lists the distinct body predicates of rules deriving this
	// predicate, sorted; UsedBy is the reverse relation.
	Uses   []string `json:"uses,omitempty"`
	UsedBy []string `json:"used_by,omitempty"`
}

// SCC is one strongly connected component of the dependency graph with
// its static metadata.
type SCC struct {
	ID    int      `json:"id"`
	Preds []string `json:"preds"`
	// Recursion is the component's recursion class.
	Recursion RecursionClass `json:"recursion"`
	// MaxHeadDepth / MaxBodyDepth are the maximum original temporal
	// depths over the member rules' heads and (non-ground) body literals;
	// -1 when the component has no temporal rules.
	MaxHeadDepth int `json:"max_head_depth"`
	MaxBodyDepth int `json:"max_body_depth"`
	// Rules lists the program rule indices whose head predicate belongs
	// to this component, in program order.
	Rules []int `json:"rules,omitempty"`
	// BaseReachable reports whether every member predicate is populated;
	// AnyPopulated whether at least one is. A component with
	// AnyPopulated=false can never contribute a single fact.
	BaseReachable bool `json:"base_reachable"`
	AnyPopulated  bool `json:"any_populated"`
}

// Report is the stable product of Analyze: the predicate table, the SCC
// condensation in reverse topological order (dependencies first), and
// the per-rule firing verdict.
type Report struct {
	// Preds is sorted by name.
	Preds []PredNode
	// SCCs is in reverse topological order: a component appears after
	// every component it depends on.
	SCCs []SCC
	// RuleSCC maps each program rule index to the SCC of its head.
	RuleSCC []int
	// CanFire marks rules inside the populated fixpoint; a false entry is
	// a rule that provably never fires in the least model.
	CanFire []bool

	prog    *ast.Program
	predIdx map[string]int
	// uses is the adjacency Pred -> body preds.
	uses map[string][]string
}

// Program returns the analyzed program (shared, treat as read-only).
func (r *Report) Program() *ast.Program { return r.prog }

// Pred returns the node for a predicate name (nil if unknown).
func (r *Report) Pred(name string) *PredNode {
	if i, ok := r.predIdx[name]; ok {
		return &r.Preds[i]
	}
	return nil
}

// Analyze builds the whole-program report. db may be nil, in which case
// every extensional predicate is assumed populated (the linter's
// convention for rule-only sources).
func Analyze(prog *ast.Program, db *ast.Database) *Report {
	r := &Report{prog: prog, predIdx: make(map[string]int)}

	// Predicate universe: program signatures plus database-only predicates.
	// Rule atoms are noted too, so a hand-built program whose Preds table
	// is missing (the linter accepts those) still gets a total report.
	derived := prog.DerivedSet()
	seen := make(map[string]ast.PredInfo)
	for name, info := range prog.Preds {
		seen[name] = info
	}
	sig := func(a ast.Atom) {
		if _, ok := seen[a.Pred]; !ok {
			seen[a.Pred] = ast.PredInfo{Name: a.Pred, Temporal: a.Time != nil, Arity: len(a.Args)}
		}
	}
	for _, rule := range prog.Rules {
		sig(rule.Head)
		for _, a := range rule.Body {
			sig(a)
		}
	}
	if db != nil {
		for name, info := range db.Preds {
			if _, ok := seen[name]; !ok {
				seen[name] = info
			}
		}
	}
	names := make([]string, 0, len(seen))
	for name := range seen {
		names = append(names, name)
	}
	sort.Strings(names)

	// Adjacency (uses/usedBy) from the rules, deduplicated and sorted.
	usesSet := make(map[string]map[string]bool)
	usedBySet := make(map[string]map[string]bool)
	note := func(m map[string]map[string]bool, from, to string) {
		if m[from] == nil {
			m[from] = make(map[string]bool)
		}
		m[from][to] = true
	}
	for _, rule := range prog.Rules {
		for _, a := range rule.Body {
			note(usesSet, rule.Head.Pred, a.Pred)
			note(usedBySet, a.Pred, rule.Head.Pred)
		}
	}
	r.uses = make(map[string][]string, len(usesSet))
	for from, set := range usesSet {
		r.uses[from] = sortedSet(set)
	}

	// Base-reachability fixpoint (same one-sided over-approximation as the
	// linter's reach pass: populated=false is definitive emptiness).
	populated := make(map[string]bool)
	if db != nil {
		for pred := range db.Preds {
			populated[pred] = true
		}
	} else {
		for name := range seen {
			if !derived[name] {
				populated[name] = true
			}
		}
	}
	canFire := make([]bool, len(prog.Rules))
	for changed := true; changed; {
		changed = false
		for i, rule := range prog.Rules {
			if canFire[i] {
				continue
			}
			ok := true
			for _, a := range rule.Body {
				if !populated[a.Pred] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			canFire[i] = true
			changed = true
			populated[rule.Head.Pred] = true
		}
	}
	r.CanFire = canFire

	// Tarjan condensation over the full universe (isolated predicates form
	// singleton components). Iterative, with sorted successor order, so
	// the component order is deterministic.
	sccOf := tarjan(names, r.uses)

	// Build the predicate table and group components.
	nscc := 0
	for _, id := range sccOf {
		if id+1 > nscc {
			nscc = id + 1
		}
	}
	r.SCCs = make([]SCC, nscc)
	for i := range r.SCCs {
		r.SCCs[i] = SCC{ID: i, MaxHeadDepth: -1, MaxBodyDepth: -1, BaseReachable: true}
	}
	for _, name := range names {
		id := sccOf[name]
		node := PredNode{
			Name:      name,
			Temporal:  seen[name].Temporal,
			Arity:     seen[name].Arity,
			Derived:   derived[name],
			Populated: populated[name],
			SCC:       id,
			Uses:      r.uses[name],
			UsedBy:    sortedSet(usedBySet[name]),
		}
		r.predIdx[name] = len(r.Preds)
		r.Preds = append(r.Preds, node)
		c := &r.SCCs[id]
		c.Preds = append(c.Preds, name)
		if populated[name] {
			c.AnyPopulated = true
		} else {
			c.BaseReachable = false
		}
	}
	for i := range r.SCCs {
		sort.Strings(r.SCCs[i].Preds)
	}

	// Per-rule membership and temporal depth metadata.
	r.RuleSCC = make([]int, len(prog.Rules))
	for i, rule := range prog.Rules {
		id := sccOf[rule.Head.Pred]
		r.RuleSCC[i] = id
		c := &r.SCCs[id]
		c.Rules = append(c.Rules, i)
		if rule.Head.Time != nil && rule.Head.Time.Depth > c.MaxHeadDepth {
			c.MaxHeadDepth = rule.Head.Time.Depth
		}
		for _, a := range rule.Body {
			if a.Time != nil && !a.Time.Ground() && a.Time.Depth > c.MaxBodyDepth {
				c.MaxBodyDepth = a.Time.Depth
			}
		}
	}

	// Recursion class: mutual for multi-predicate components, self for a
	// singleton with a self edge, nonrecursive otherwise.
	for i := range r.SCCs {
		c := &r.SCCs[i]
		switch {
		case len(c.Preds) > 1:
			c.Recursion = MutualRecursive
		case hasSelfEdge(c.Preds[0], r.uses):
			c.Recursion = SelfRecursive
		default:
			c.Recursion = NonRecursive
		}
	}
	return r
}

func hasSelfEdge(name string, uses map[string][]string) bool {
	for _, m := range uses[name] {
		if m == name {
			return true
		}
	}
	return false
}

func sortedSet(set map[string]bool) []string {
	if len(set) == 0 {
		return nil
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// tarjan computes the SCC id of every node, ids assigned in reverse
// topological order (a component's id is greater than the ids of the
// components it depends on). Iterative to stay safe on deep programs;
// the root order and successor order are sorted, so ids are
// deterministic.
func tarjan(nodes []string, succ map[string][]string) map[string]int {
	index := make(map[string]int, len(nodes))
	low := make(map[string]int, len(nodes))
	onStack := make(map[string]bool, len(nodes))
	sccOf := make(map[string]int, len(nodes))
	var stack []string
	next, nscc := 0, 0

	type frame struct {
		node string
		succ []string
		i    int
	}
	for _, root := range nodes {
		if _, ok := index[root]; ok {
			continue
		}
		frames := []frame{{node: root, succ: succ[root]}}
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.i < len(f.succ) {
				w := f.succ[f.i]
				f.i++
				if _, ok := index[w]; !ok {
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{node: w, succ: succ[w]})
				} else if onStack[w] && index[w] < low[f.node] {
					low[f.node] = index[w]
				}
				continue
			}
			v := f.node
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := &frames[len(frames)-1]
				if low[v] < low[parent.node] {
					low[parent.node] = low[v]
				}
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					sccOf[w] = nscc
					if w == v {
						break
					}
				}
				nscc++
			}
		}
	}
	return sccOf
}
