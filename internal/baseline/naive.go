// Package baseline holds the references the rest of the repository is
// checked against — unoptimized, and independent of the algorithms they
// check (they share only the fact store):
//
//   - NaiveTP — algorithm BT exactly as printed in Figure 1 of the paper:
//     repeat L' := T_{Z∧D}(L), re-deriving every fact from scratch each
//     iteration, until the window segment and the non-temporal part
//     stabilize. The production engine (internal/engine) replaces this
//     with a time-stratified sweep; experiment E8 measures the gap.
//   - Scan and Detect — the string-key period scan on period.Detect's
//     window schedule, which the fingerprint detector must reproduce.
//   - Answers — a bottom-up, set-at-a-time evaluator of temporal
//     first-order queries, which the compiled evaluator must reproduce.
//
// Together they are the reference of the model-based test (FuzzModel in
// internal/server): naive states, their certified period, and every
// answer over the resulting finite specification.
package baseline

import (
	"tdd/internal/ast"
	"tdd/internal/engine"
)

// Stats reports the work done by NaiveTP.
type Stats struct {
	Iterations int // applications of T_P until fixpoint
	Firings    int // rule-body instantiations across all iterations
	Derived    int // facts beyond the database
	// Rules splits Firings by rule, parallel to the program's rule order.
	Rules []int
}

// NaiveTP computes the least model of prog ∧ db restricted to times 0..m
// by naive T_P iteration and returns the resulting store. The program must
// satisfy the same validity conditions as engine.New.
func NaiveTP(prog *ast.Program, db *ast.Database, m int) (*engine.Store, Stats, error) {
	if err := ast.ValidateProgram(prog); err != nil {
		return nil, Stats{}, err
	}
	if err := db.CheckAgainst(prog); err != nil {
		return nil, Stats{}, err
	}
	type crule struct {
		head         ast.Atom
		body         []ast.Atom
		headDepth    int
		maxBodyDepth int
		hasTimeVar   bool
	}
	var rules []crule
	for _, r := range prog.Rules {
		// Original depths — see the corresponding note in engine.New: the
		// head depth is also the rule's enabling time.
		s := r.Clone()
		c := crule{head: s.Head, body: s.Body, headDepth: -1, maxBodyDepth: 0}
		if s.Head.Time != nil {
			c.headDepth = s.Head.Time.Depth
		}
		for _, a := range s.Body {
			if a.Time != nil && !a.Time.Ground() {
				c.hasTimeVar = true
				if a.Time.Depth > c.maxBodyDepth {
					c.maxBodyDepth = a.Time.Depth
				}
			}
		}
		if s.Head.Time != nil && !s.Head.Time.Ground() {
			c.hasTimeVar = true
		}
		rules = append(rules, c)
	}

	cur := engine.NewStore()
	for _, f := range db.Facts {
		cur.Insert(f)
	}
	stats := Stats{Rules: make([]int, len(rules))}
	bindings := make(map[string]string, 8)
	for {
		stats.Iterations++
		// L' := T_{Z∧D}(L): read from the previous iterate, derive into a
		// fresh store seeded with D. Derivations within one iteration do
		// not see each other — that is what makes this the naive baseline.
		src := snapshot(cur, m)
		next := engine.NewStore()
		for _, f := range db.Facts {
			next.Insert(f)
		}
		for i, r := range rules {
			tmax := 0
			if r.hasTimeVar {
				tmax = m - r.maxBodyDepth
				if r.headDepth > r.maxBodyDepth {
					tmax = m - r.headDepth
				}
			}
			f0 := stats.Firings
			for T := 0; T <= tmax; T++ {
				fire(src, next, r.head, r.body, T, bindings, &stats)
			}
			stats.Rules[i] += stats.Firings - f0
		}
		// T_P is monotone and the iterates increase from D, so equal
		// cardinality means the fixpoint is reached.
		if next.Len() == cur.Len() {
			stats.Derived = cur.Len() - len(db.Facts)
			return cur, stats, nil
		}
		cur = next
	}
}

// relations is one iterate read back by predicate: the argument rows of
// every state 0..m and of the non-temporal part. An iterate is read-only
// while the next one is derived, so it is rendered once per iteration.
type relations struct {
	states []map[string][][]string
	nt     map[string][][]string
}

func snapshot(s *engine.Store, m int) relations {
	group := func(fs []ast.Fact) map[string][][]string {
		out := make(map[string][][]string)
		for _, f := range fs {
			out[f.Pred] = append(out[f.Pred], f.Args)
		}
		return out
	}
	r := relations{states: make([]map[string][][]string, m+1), nt: group(s.NonTemporalFacts())}
	for t := range r.states {
		r.states[t] = group(s.State(t))
	}
	return r
}

// fire joins the body left to right against src under the binding of the
// temporal variable to T and inserts derivable heads into dst.
// Deliberately unindexed beyond grouping by predicate: this is the naive
// baseline.
func fire(src relations, dst *engine.Store, head ast.Atom, body []ast.Atom, T int, bindings map[string]string, stats *Stats) {
	var rec func(i int)
	rec = func(i int) {
		if i == len(body) {
			stats.Firings++
			dst.Insert(instantiate(head, T, bindings))
			return
		}
		a := body[i]
		rel := src.nt
		if a.Time != nil {
			rel = src.states[T+a.Time.Depth]
		}
		for _, args := range rel[a.Pred] {
			if len(args) != len(a.Args) {
				continue
			}
			var bound []string
			ok := true
			for j, s := range a.Args {
				if !s.IsVar {
					if s.Name != args[j] {
						ok = false
						break
					}
					continue
				}
				if v, have := bindings[s.Name]; have {
					if v != args[j] {
						ok = false
						break
					}
					continue
				}
				bindings[s.Name] = args[j]
				bound = append(bound, s.Name)
			}
			if ok {
				rec(i + 1)
			}
			for _, name := range bound {
				delete(bindings, name)
			}
		}
	}
	rec(0)
}

func instantiate(head ast.Atom, T int, bindings map[string]string) ast.Fact {
	f := ast.Fact{Pred: head.Pred}
	if head.Time != nil {
		f.Temporal = true
		f.Time = T + head.Time.Depth
	}
	f.Args = make([]string, len(head.Args))
	for i, s := range head.Args {
		if s.IsVar {
			f.Args[i] = bindings[s.Name]
			continue
		}
		f.Args[i] = s.Name
	}
	return f
}
