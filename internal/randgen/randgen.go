// Package randgen generates random — but always valid (range-restricted,
// semi-normal, forward) — temporal deductive databases for property-based
// and differential testing: FuzzModel in internal/server checks every
// evaluation path against internal/baseline on them.
package randgen

import (
	"fmt"
	"math/rand"

	"tdd/internal/ast"
)

// Options bounds the generated programs.
type Options struct {
	TemporalPreds    int // number of temporal predicates (>=1)
	NonTemporalPreds int // number of non-temporal (EDB) predicates
	MaxArity         int // max non-temporal arity of any predicate
	Rules            int // number of rules
	MaxDepth         int // max temporal depth of a rule head
	MaxBody          int // max body literals per rule
	Consts           int // constants in generated databases
	MaxTime          int // max temporal depth of database facts
	Facts            int // database facts
	// Anchored forces every rule with head depth >= 2 to carry a temporal
	// body literal at depth 0 — the condition under which ast.Normalize
	// is exact.
	Anchored bool
	// NonTemporalHeads draws rule heads from every predicate, so rules
	// also derive non-temporal facts (plain Datalog bodies included) that
	// feed back into the temporal ones.
	NonTemporalHeads bool
}

// Default returns options that generate small, densely interacting TDDs.
func Default() Options {
	return Options{
		TemporalPreds:    3,
		NonTemporalPreds: 2,
		MaxArity:         2,
		Rules:            5,
		MaxDepth:         3,
		MaxBody:          3,
		Consts:           3,
		MaxTime:          3,
		Facts:            8,
	}
}

type sig struct {
	name     string
	temporal bool
	arity    int
}

// Gen holds the predicate signatures of one generated universe.
type Gen struct {
	opts  Options
	preds []sig
}

// New fixes a random predicate universe.
func New(rng *rand.Rand, opts Options) *Gen {
	g := &Gen{opts: opts}
	for i := 0; i < opts.TemporalPreds; i++ {
		g.preds = append(g.preds, sig{name: fmt.Sprintf("p%d", i), temporal: true, arity: rng.Intn(opts.MaxArity + 1)})
	}
	for i := 0; i < opts.NonTemporalPreds; i++ {
		g.preds = append(g.preds, sig{name: fmt.Sprintf("e%d", i), temporal: false, arity: 1 + rng.Intn(opts.MaxArity)})
	}
	return g
}

var varNames = []string{"X", "Y", "Z", "W", "V", "U"}

// Program generates a valid program: every rule has a temporal head at a
// random depth (or, under NonTemporalHeads, possibly a non-temporal one)
// with body literals at depths up to the head's (forward), one shared
// temporal variable, and head variables drawn from body variables (range
// restriction).
func (g *Gen) Program(rng *rand.Rand) (*ast.Program, error) {
	var rules []ast.Rule
	temporalPreds := g.temporal()
	for len(rules) < g.opts.Rules {
		var head sig
		if g.opts.NonTemporalHeads {
			head = g.preds[rng.Intn(len(g.preds))]
		} else {
			head = temporalPreds[rng.Intn(len(temporalPreds))]
		}
		h := rng.Intn(g.opts.MaxDepth + 1)
		nbody := 1 + rng.Intn(g.opts.MaxBody)
		var body []ast.Atom
		varPool := varNames[:2+rng.Intn(len(varNames)-2)]
		bodyVars := map[string]bool{}
		hasTemporalBody := false
		for i := 0; i < nbody; i++ {
			p := g.preds[rng.Intn(len(g.preds))]
			args := make([]ast.Symbol, p.arity)
			for j := range args {
				v := varPool[rng.Intn(len(varPool))]
				args[j] = ast.Var(v)
				bodyVars[v] = true
			}
			if p.temporal {
				d := rng.Intn(h + 1)
				body = append(body, ast.TemporalAtom(p.name, ast.TemporalTerm{Var: "T", Depth: d}, args...))
				hasTemporalBody = true
			} else {
				body = append(body, ast.NonTemporalAtom(p.name, args...))
			}
		}
		if !hasTemporalBody && head.temporal {
			// The head's temporal variable must occur in the body.
			p := temporalPreds[rng.Intn(len(temporalPreds))]
			args := make([]ast.Symbol, p.arity)
			for j := range args {
				v := varPool[rng.Intn(len(varPool))]
				args[j] = ast.Var(v)
				bodyVars[v] = true
			}
			body = append(body, ast.TemporalAtom(p.name, ast.TemporalTerm{Var: "T", Depth: rng.Intn(h + 1)}, args...))
		}
		if g.opts.Anchored && h >= 2 {
			anchored := false
			for i := range body {
				if body[i].Time != nil && body[i].Time.Depth == 0 {
					anchored = true
					break
				}
			}
			if !anchored {
				// Pull one temporal literal down to depth 0.
				for i := range body {
					if body[i].Time != nil {
						body[i].Time.Depth = 0
						break
					}
				}
			}
		}
		if head.arity > 0 && len(bodyVars) == 0 {
			continue // cannot range-restrict; retry
		}
		headArgs := make([]ast.Symbol, head.arity)
		pool := keys(bodyVars)
		for j := range headArgs {
			headArgs[j] = ast.Var(pool[rng.Intn(len(pool))])
		}
		r := ast.Rule{Head: ast.NonTemporalAtom(head.name, headArgs...), Body: body}
		if head.temporal {
			r.Head = ast.TemporalAtom(head.name, ast.TemporalTerm{Var: "T", Depth: h}, headArgs...)
		}
		rules = append(rules, r)
	}
	prog, err := ast.NewProgram(rules)
	if err != nil {
		return nil, err
	}
	if err := ast.ValidateProgram(prog); err != nil {
		return nil, fmt.Errorf("randgen produced an invalid program (bug): %w\n%s", err, prog)
	}
	return prog, nil
}

// Database generates random ground facts over the universe.
func (g *Gen) Database(rng *rand.Rand) (*ast.Database, error) {
	var facts []ast.Fact
	seen := map[string]bool{}
	for len(facts) < g.opts.Facts {
		p := g.preds[rng.Intn(len(g.preds))]
		f := ast.Fact{Pred: p.name, Temporal: p.temporal}
		if p.temporal {
			f.Time = rng.Intn(g.opts.MaxTime + 1)
		}
		f.Args = make([]string, p.arity)
		for j := range f.Args {
			f.Args[j] = fmt.Sprintf("c%d", rng.Intn(g.opts.Consts))
		}
		key := f.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		facts = append(facts, f)
	}
	return ast.NewDatabase(facts)
}

func (g *Gen) temporal() []sig {
	var out []sig
	for _, p := range g.preds {
		if p.temporal {
			out = append(out, p)
		}
	}
	return out
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for _, v := range varNames {
		if m[v] {
			out = append(out, v)
		}
	}
	return out
}
