// Package query evaluates temporal first-order queries (Section 3.3)
// against finite structures: relational specifications (the tractable
// path, sound for all temporal queries by Proposition 3.1) or bounded
// windows of the least model (the baseline).
//
// Negative subqueries are evaluated under the Closed World Assumption.
// Quantifiers are two-sorted: temporal quantifiers range over the
// structure's time points (representative terms for specifications),
// non-temporal quantifiers over the active constant domain.
//
// A query is compiled once per call (compile.go): variables become slots,
// atoms become (predicate, time, argument) templates. Evaluating it binds
// the templates to the structure's store — names resolved to ids once,
// and every subformula that an atom the store cannot hold makes constant
// folded to its value — and from then on touches only integers: a probe
// fills a uint32 row from the slots and asks the store for it.
//
// A formula that reads a temporal variable only at offset 0 has the same
// value at time points with equal states (Proposition 3.1). When the
// structure offers its state classes, a temporal quantifier over such a
// body visits one time point per class, and such a free temporal
// variable is evaluated at the first member of each class, whose answers
// the later members copy with their own time point. Answers keep their
// order.
package query

import (
	"errors"
	"fmt"
	"slices"

	"tdd/internal/ast"
	"tdd/internal/engine"
)

// Structure is a finite structure a temporal query can be evaluated in:
// a fact store plus the three things its implementers differ in.
type Structure interface {
	// Store returns the facts probes are answered from. It is called once
	// per evaluation, before the other methods, so a structure that
	// materializes its facts on demand does so here.
	Store() *engine.Store
	// TimePoints returns n: temporal quantifiers and free temporal
	// variables range over the time points 0..n-1.
	TimePoints() int
	// NormalizeTime maps a ground temporal term to the time point of the
	// store that answers for it; ok is false when no fact holds at t. It
	// must be the identity on 0..n-1.
	NormalizeTime(t int) (rep int, ok bool)
	// ConstantDomain is the active domain of non-temporal constants,
	// sorted. It may name constants the store has never seen: such a
	// constant satisfies no atom but still counts under ∀ and ¬.
	ConstantDomain() []string
	// StateClasses returns the state class of each time point 0..n-1 and
	// the first member of each class, ascending (engine.Store.StateClasses),
	// or nil when the structure has none to offer.
	StateClasses() (class, first []uint32)
}

// ErrOpenQuery is returned by Eval for queries with free variables.
var ErrOpenQuery = errors.New("query: open query; use Answers")

// Eval evaluates a closed query.
func Eval(s Structure, q ast.Query) (bool, error) {
	c, err := Compile(q)
	if err != nil {
		return false, err
	}
	return c.Eval(s)
}

// Answer is one answer substitution to an open query. For specification
// structures a temporal binding represents the infinite family obtained by
// unrolling the rewrite rule (Section 3.3: "the rewrite rules themselves
// should be a part of the query answer"). A map is nil when the query has
// no free variable of its sort.
type Answer struct {
	Temporal    map[string]int
	NonTemporal map[string]string
}

func (a Answer) String() string { return ast.FormatAnswer(a.Temporal, a.NonTemporal) }

// Answers enumerates the answer substitutions of an open query: every
// assignment of the free variables (temporal over the time points,
// non-temporal over the constant domain) under which the query holds.
// Closed queries yield one empty answer if true, none if false.
func Answers(s Structure, q ast.Query) ([]Answer, error) {
	return AnswersLimit(s, q, 0)
}

// AnswersLimit is Answers with an upper bound on the number of answers
// returned (0 means unlimited). Enumeration stops as soon as the bound is
// reached, so the cost is proportional to the answers actually produced
// plus the failed assignments tried before them.
func AnswersLimit(s Structure, q ast.Query, max int) ([]Answer, error) {
	c, err := Compile(q)
	if err != nil {
		return nil, err
	}
	return c.Answers(s, max), nil
}

// Eval evaluates the compiled query in s; an open query is ErrOpenQuery.
func (c Compiled) Eval(s Structure) (bool, error) {
	if c.prog == nil {
		return holdsGround(s, c.q.(ast.QAtom).Atom), nil
	}
	if !c.Closed() {
		tv, nv := c.FreeVars()
		return false, fmt.Errorf("%w (free: %v %v)", ErrOpenQuery, tv, nv)
	}
	r := c.prog.bind(s)
	return r.eval(c.prog.root), nil
}

// Answers enumerates up to max (0: all) answer substitutions in s. The
// order is part of the contract — a limited call returns a prefix of the
// unlimited one: free temporal variables are the outer loops, in name
// order, each ascending over 0..n-1; free non-temporal variables the
// inner loops, in name order, each over the sorted constant domain.
func (c Compiled) Answers(s Structure, max int) []Answer {
	if c.prog == nil {
		if !holdsGround(s, c.q.(ast.QAtom).Atom) {
			return nil
		}
		return []Answer{{}}
	}
	r := c.prog.bind(s)
	r.max = max
	r.pick = make([]uint32, len(c.prog.freeN))
	r.enumerate(0)
	return r.answers()
}

// holdsGround answers a ground atom without compiling anything.
func holdsGround(s Structure, a ast.Atom) bool {
	st := s.Store()
	pred, ok := st.PredID(a.Pred, len(a.Args), a.Time != nil)
	if !ok {
		return false
	}
	t := 0
	if a.Time != nil {
		if t, ok = s.NormalizeTime(a.Time.Depth); !ok {
			return false
		}
	}
	var buf [8]uint32
	row := buf[:0]
	for _, g := range a.Args {
		id, ok := st.SymbolID(g.Name)
		if !ok {
			return false
		}
		row = append(row, id)
	}
	return st.HasRow(pred, t, row)
}

// run is one evaluation of a program in a structure: the program's atoms
// bound to the structure's store, and the variable slots. It is private
// to the call that made it, so any number of evaluations can share a
// structure (and a Compiled) without synchronization.
type run struct {
	p      *program
	s      Structure
	store  *engine.Store
	n      int      // time points
	times  []int    // temporal slots
	consts []uint32 // non-temporal slots: symbol ids
	bound  []boundAtom
	// cdom is the constant domain and cids its symbol ids (NoSymbol for a
	// constant the store has never seen); both nil for a program without
	// non-temporal variables.
	cdom []string
	cids []uint32

	// first is the first member of each of the structure's state classes
	// (StateClasses), nil when it has none.
	first []uint32

	// enumeration state (Answers only): pick[i] is the cdom index of the
	// i-th free non-temporal variable; hits holds, per assignment the query
	// held under, the free temporal values then the picks, so the answers
	// are allocated once, at their final count. Both are uint32 like the
	// store's rows: a time point or a domain index names something the
	// store holds in memory.
	max   int
	pick  []uint32
	hits  []uint32
	found int
}

// boundAtom is an atom template resolved against one store.
type boundAtom struct {
	dead bool     // unknown predicate or constant, or a ground time no fact holds at
	pred uint32   // predicate id
	time int      // the normalized ground time (unused when the template has a time slot)
	row  []uint32 // constants filled in; variable columns are filled per probe
}

func (p *program) bind(s Structure) *run {
	st := s.Store()
	r := &run{
		p: p, s: s, store: st, n: s.TimePoints(),
		times:  make([]int, p.ntimes),
		consts: make([]uint32, p.nconsts),
		bound:  make([]boundAtom, len(p.atoms)),
	}
	_, r.first = s.StateClasses()
	rows := make([]uint32, p.nargs)
	for i := range p.atoms {
		a, b := &p.atoms[i], &r.bound[i]
		b.row, rows = rows[:len(a.args):len(a.args)], rows[len(a.args):]
		var ok bool
		if b.pred, ok = st.PredID(a.pred, len(a.args), a.temporal); !ok {
			b.dead = true
			continue
		}
		if a.temporal && a.tslot < 0 {
			if b.time, ok = s.NormalizeTime(a.depth); !ok {
				b.dead = true
				continue
			}
		}
		for col, g := range a.args {
			if g.slot >= 0 {
				continue
			}
			if b.row[col], ok = st.SymbolID(g.name); !ok {
				b.dead = true
				break
			}
		}
	}
	if p.nconsts > 0 {
		r.cdom = s.ConstantDomain()
		r.cids = make([]uint32, len(r.cdom))
		for i, c := range r.cdom {
			id, ok := st.SymbolID(c)
			if !ok {
				id = engine.NoSymbol
			}
			r.cids[i] = id
		}
	}
	if slices.ContainsFunc(r.bound, func(b boundAtom) bool { return b.dead }) {
		r.fold()
	}
	return r
}

// fold evaluates a copy of the program in which every subformula the
// dead atoms decide is a constant: a dead atom is false, a connective
// over constants is one, and a quantifier over a constant body is that
// constant, as is one over an empty domain — ∃ false, ∀ true — whatever
// its body. Children precede their parents in the node table, so one
// pass suffices.
func (r *run) fold() {
	nodes := slices.Clone(r.p.nodes)
	val := func(i int32) (v, ok bool) {
		return nodes[i].op == opTrue, nodes[i].op == opTrue || nodes[i].op == opFalse
	}
	for i := range nodes {
		nd := &nodes[i]
		var v, ok bool
		switch nd.op {
		case opAtom:
			v, ok = false, r.bound[nd.a].dead
		case opNot:
			v, ok = val(nd.a)
			v = !v
		case opAnd, opOr:
			va, oka := val(nd.a)
			vb, okb := val(nd.b)
			// The side that decides: false under ∧, true under ∨.
			decides := nd.op == opOr
			switch {
			case oka && va == decides, okb && vb == decides:
				v, ok = decides, true
			case oka && okb:
				v, ok = va, true
			}
		case opExists, opForall:
			v, ok = val(nd.a)
			if (nd.temporal && r.n == 0) || (!nd.temporal && len(r.cids) == 0) {
				v, ok = nd.op == opForall, true
			}
		}
		if ok {
			nd.op = opFalse
			if v {
				nd.op = opTrue
			}
		}
	}
	p := *r.p
	p.nodes = nodes
	r.p = &p
}

func (r *run) eval(i int32) bool {
	nd := &r.p.nodes[i]
	switch nd.op {
	case opAtom:
		return r.atom(nd.a)
	case opNot:
		return !r.eval(nd.a)
	case opAnd:
		return r.eval(nd.a) && r.eval(nd.b)
	case opOr:
		return r.eval(nd.a) || r.eval(nd.b)
	case opFalse, opTrue:
		return nd.op == opTrue
	}
	// A quantifier: ∃ stops at the first witness, ∀ at the first
	// counterexample.
	forall := nd.op == opForall
	if nd.temporal {
		perClass := nd.perClass && r.first != nil
		n := r.n
		if perClass {
			n = len(r.first)
		}
		for i := 0; i < n; i++ {
			t := i
			if perClass {
				t = int(r.first[i])
			}
			r.times[nd.slot] = t
			if r.eval(nd.a) != forall {
				return !forall
			}
		}
		return forall
	}
	for _, id := range r.cids {
		r.consts[nd.slot] = id
		if r.eval(nd.a) != forall {
			return !forall
		}
	}
	return forall
}

func (r *run) atom(i int32) bool {
	b := &r.bound[i]
	if b.dead {
		return false
	}
	a := &r.p.atoms[i]
	t := b.time
	if a.tslot >= 0 {
		t = r.times[a.tslot] + a.depth
		if t >= r.n {
			var ok bool
			if t, ok = r.s.NormalizeTime(t); !ok {
				return false
			}
		}
	}
	for col, g := range a.args {
		if g.slot >= 0 {
			b.row[col] = r.consts[g.slot]
		}
	}
	return r.store.HasRow(b.pred, t, b.row)
}

// enumerate assigns free variable k and those after it (temporal ones
// first), appending an answer for every assignment the query holds under.
func (r *run) enumerate(k int) {
	p := r.p
	switch {
	case k == 0 && p.perClass && r.first != nil:
		r.enumerateClasses()
	case k < len(p.freeT):
		for t := 0; t < r.n && !r.full(); t++ {
			r.times[p.freeT[k].slot] = t
			r.enumerate(k + 1)
		}
	case k < len(p.freeT)+len(p.freeN):
		k -= len(p.freeT)
		for i := 0; i < len(r.cids) && !r.full(); i++ {
			r.consts[p.freeN[k].slot] = r.cids[i]
			r.pick[k] = uint32(i)
			r.enumerate(len(p.freeT) + k + 1)
		}
	case !r.full() && r.eval(p.root):
		for _, v := range p.freeT {
			r.hits = append(r.hits, uint32(r.times[v.slot]))
		}
		r.hits = append(r.hits, r.pick...)
		r.found++
	}
}

func (r *run) full() bool { return r.max > 0 && r.found >= r.max }

// enumerateClasses is enumerate at the first free temporal variable when
// the formula reads it only at offset 0 (program.perClass) and the
// structure offers classes: only the first member of a class is
// evaluated, and a later member copies its answers, which start at
// start[class] and run while their time point is the first member's,
// with its own time point in their place. start is the one allocation
// of O(classes) an enumeration makes.
func (r *run) enumerateClasses() {
	class, _ := r.s.StateClasses()
	start := make([]uint32, len(r.first))
	w := len(r.p.freeT) + len(r.p.freeN)
	for t := 0; t < r.n && !r.full(); t++ {
		c := class[t]
		if f := int(r.first[c]); f != t {
			for i, end := int(start[c]), r.found; i < end && int(r.hits[i*w]) == f && !r.full(); i++ {
				r.hits = append(r.hits, r.hits[i*w:(i+1)*w]...)
				r.hits[len(r.hits)-w] = uint32(t)
				r.found++
			}
			continue
		}
		start[c] = uint32(r.found)
		r.times[r.p.freeT[0].slot] = t
		r.enumerate(1)
	}
}

// answers builds the answers enumerate recorded. A sort without free
// variables gets no map: the answers of an open query are most of what a
// warm call allocates, and an empty map is a third of an answer's objects.
func (r *run) answers() []Answer {
	if r.found == 0 {
		return nil
	}
	p, hits := r.p, r.hits
	out := make([]Answer, r.found)
	for i := range out {
		if len(p.freeT) > 0 {
			out[i].Temporal = make(map[string]int, len(p.freeT))
			for _, v := range p.freeT {
				out[i].Temporal[v.name], hits = int(hits[0]), hits[1:]
			}
		}
		if len(p.freeN) > 0 {
			out[i].NonTemporal = make(map[string]string, len(p.freeN))
			for _, v := range p.freeN {
				out[i].NonTemporal[v.name], hits = r.cdom[hits[0]], hits[1:]
			}
		}
	}
	return out
}

// Window is the baseline structure: the least model restricted to 0..M
// with temporal quantifiers ranging over 0..M. It is exact for ground
// atomic queries whose depth is at most M, and for existential-positive
// queries when M is large enough; unlike a specification it gives no
// soundness guarantee for universal or negated temporal subqueries (the
// model is infinite). It exists as the comparison point for experiments
// and for non-invariant queries (Section 8).
type Window struct {
	Eval *engine.Evaluator
	M    int
}

// Store implements Structure; the window is extended on demand, once per
// evaluation.
func (w Window) Store() *engine.Store {
	w.Eval.EnsureWindow(w.M)
	return w.Eval.Store()
}

// TimePoints implements Structure: 0..M.
func (w Window) TimePoints() int { return w.M + 1 }

// NormalizeTime implements Structure: the identity, cut off at M.
func (w Window) NormalizeTime(t int) (int, bool) { return t, t <= w.M }

// ConstantDomain implements Structure.
func (w Window) ConstantDomain() []string { return w.Store().Constants() }

// StateClasses implements Structure: a window offers none.
func (w Window) StateClasses() (class, first []uint32) { return nil, nil }
