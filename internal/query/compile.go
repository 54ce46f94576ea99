package query

import (
	"fmt"
	"slices"
	"strings"

	"tdd/internal/ast"
)

// Compiled is a query with its variables resolved to slots, ready to be
// evaluated in any structure, any number of times, from any number of
// goroutines. Compiling is independent of the structure: names are
// resolved to ids when an evaluation binds the query to a store.
type Compiled struct {
	q ast.Query
	// prog is nil when q is a single ground atom, which is probed
	// directly: the most common ask compiles to nothing.
	prog *program
}

// program is the compiled form: the formula as a node table over atom
// templates, with one slot per binder (free variable or quantifier), so
// an inner quantifier that reuses a name shadows by having its own slot.
type program struct {
	nodes   []node
	root    int32
	atoms   []atom
	nargs   int // total argument count over atoms
	ntimes  int // temporal slots
	nconsts int // non-temporal slots
	// freeT and freeN are the free variables, sorted by name — the order
	// Answers enumerates them in.
	freeT, freeN []binding
	// perClass reports that the formula reads the first free temporal
	// variable only at offset 0: Answers evaluates it at the first member
	// of each state class (run.enumerateClasses).
	perClass bool
}

type op uint8

const (
	opAtom op = iota
	opNot
	opAnd
	opOr
	opExists
	opForall
	// opFalse and opTrue are subformulas an evaluation has found constant
	// when it bound the atoms (run.fold); Compile emits neither.
	opFalse
	opTrue
)

// node is one connective. a (and b for the binary ones) index nodes,
// except under opAtom, where a indexes atoms; a quantifier binds slot of
// the sort temporal says. A temporal quantifier is perClass when its body
// reads its variable only at offset 0, so that the body's value at a time
// point is a function of the state there (Proposition 3.1): it visits the
// first member of each state class only.
type node struct {
	op       op
	temporal bool
	perClass bool
	a, b     int32
	slot     int32
}

// atom is an atom template: its time is the ground term depth (tslot <
// 0) or the slot's value plus depth.
type atom struct {
	pred     string
	temporal bool
	tslot    int32
	depth    int
	args     []arg
}

// arg is one non-temporal argument: a variable's slot, or (slot < 0) the
// constant name.
type arg struct {
	name string
	slot int32
}

// binding is a variable in scope.
type binding struct {
	name     string
	temporal bool
	slot     int32
}

// Compile resolves the variables of q. It fails on an AST the parser
// would not produce: an unknown node type, or a variable that a
// quantifier binds at one sort and an atom uses at the other (which
// ast.FreeVars counts as bound, so no enumeration would ever assign it).
func Compile(q ast.Query) (Compiled, error) {
	if a, ok := q.(ast.QAtom); ok && a.Atom.Ground() {
		return Compiled{q: q}, nil
	}
	// Sized for the usual handful of atoms, so a typical query compiles
	// in one allocation per table rather than one per append.
	c := compiler{
		p:    &program{nodes: make([]node, 0, 8), atoms: make([]atom, 0, 4)},
		args: make([]arg, 0, 8),
	}
	root, err := c.compile(q)
	if err != nil {
		return Compiled{}, err
	}
	c.p.root = root
	byName := func(a, b binding) int { return strings.Compare(a.name, b.name) }
	slices.SortFunc(c.p.freeT, byName)
	slices.SortFunc(c.p.freeN, byName)
	for i := range c.p.nodes {
		nd := &c.p.nodes[i]
		nd.perClass = nd.temporal && !c.p.shifted(nd.slot)
	}
	c.p.perClass = len(c.p.freeT) > 0 && !c.p.shifted(c.p.freeT[0].slot)
	return Compiled{q: q, prog: c.p}, nil
}

// shifted reports whether some atom reads the temporal slot at an offset.
func (p *program) shifted(slot int32) bool {
	for _, a := range p.atoms {
		if a.tslot == slot && a.depth != 0 {
			return true
		}
	}
	return false
}

// Query returns the query c was compiled from.
func (c Compiled) Query() ast.Query { return c.q }

// Closed reports whether the query has no free variables.
func (c Compiled) Closed() bool {
	return c.prog == nil || len(c.prog.freeT)+len(c.prog.freeN) == 0
}

// FreeVars returns the free temporal and non-temporal variables, each
// sorted by name (what ast.FreeVars computes).
func (c Compiled) FreeVars() (temporal, nonTemporal []string) {
	if c.prog == nil {
		return nil, nil
	}
	for _, b := range c.prog.freeT {
		temporal = append(temporal, b.name)
	}
	for _, b := range c.prog.freeN {
		nonTemporal = append(nonTemporal, b.name)
	}
	return temporal, nonTemporal
}

// UsesConstantDomain reports whether evaluating the query reads the
// structure's constant domain: it has a non-temporal variable, quantified
// or free.
func (c Compiled) UsesConstantDomain() bool { return c.prog != nil && c.prog.nconsts > 0 }

type compiler struct {
	p     *program
	scope []binding // quantifiers enclosing the node being compiled, innermost last
	args  []arg     // arena the atoms' args are cut from
}

func (c *compiler) compile(q ast.Query) (int32, error) {
	var nd node
	var err error
	switch q := q.(type) {
	case ast.QAtom:
		nd.op = opAtom
		nd.a, err = c.atom(q.Atom)
	case ast.QNot:
		nd.op = opNot
		nd.a, err = c.compile(q.Sub)
	case ast.QAnd:
		nd.op = opAnd
		nd.a, nd.b, err = c.pair(q.Left, q.Right)
	case ast.QOr:
		nd.op = opOr
		nd.a, nd.b, err = c.pair(q.Left, q.Right)
	case ast.QExists:
		nd, err = c.quant(opExists, q.Var, q.Sort, q.Sub)
	case ast.QForall:
		nd, err = c.quant(opForall, q.Var, q.Sort, q.Sub)
	default:
		err = fmt.Errorf("query: unknown node %T", q)
	}
	if err != nil {
		return 0, err
	}
	c.p.nodes = append(c.p.nodes, nd)
	return int32(len(c.p.nodes) - 1), nil
}

func (c *compiler) pair(l, r ast.Query) (a, b int32, err error) {
	if a, err = c.compile(l); err != nil {
		return 0, 0, err
	}
	b, err = c.compile(r)
	return a, b, err
}

func (c *compiler) quant(o op, v string, sort ast.Sort, sub ast.Query) (node, error) {
	nd := node{op: o, temporal: sort == ast.SortTemporal}
	nd.slot = c.newSlot(nd.temporal)
	c.scope = append(c.scope, binding{name: v, temporal: nd.temporal, slot: nd.slot})
	var err error
	nd.a, err = c.compile(sub)
	c.scope = c.scope[:len(c.scope)-1]
	return nd, err
}

func (c *compiler) newSlot(temporal bool) int32 {
	n := &c.p.nconsts
	if temporal {
		n = &c.p.ntimes
	}
	*n++
	return int32(*n - 1)
}

// lookup resolves a variable occurrence to its slot: the innermost
// enclosing quantifier of that name, else the free variable of that name
// and sort (allocated on first sight).
func (c *compiler) lookup(name string, temporal bool) (int32, error) {
	for i := len(c.scope) - 1; i >= 0; i-- {
		b := c.scope[i]
		if b.name != name {
			continue
		}
		if b.temporal != temporal {
			if temporal {
				return 0, fmt.Errorf("query: unbound temporal variable %s (its quantifier ranges over constants)", name)
			}
			return 0, fmt.Errorf("query: unbound variable %s (its quantifier ranges over time)", name)
		}
		return b.slot, nil
	}
	free := &c.p.freeN
	if temporal {
		free = &c.p.freeT
	}
	for _, b := range *free {
		if b.name == name {
			return b.slot, nil
		}
	}
	slot := c.newSlot(temporal)
	*free = append(*free, binding{name: name, temporal: temporal, slot: slot})
	return slot, nil
}

func (c *compiler) atom(a ast.Atom) (int32, error) {
	at := atom{pred: a.Pred, tslot: -1}
	if a.Time != nil {
		at.temporal, at.depth = true, a.Time.Depth
		if !a.Time.Ground() {
			var err error
			if at.tslot, err = c.lookup(a.Time.Var, true); err != nil {
				return 0, err
			}
		}
	}
	start := len(c.args)
	for _, s := range a.Args {
		g := arg{name: s.Name, slot: -1}
		if s.IsVar {
			var err error
			if g.slot, err = c.lookup(s.Name, false); err != nil {
				return 0, err
			}
		}
		c.args = append(c.args, g)
	}
	at.args = c.args[start:len(c.args):len(c.args)]
	c.p.nargs += len(at.args)
	c.p.atoms = append(c.p.atoms, at)
	return int32(len(c.p.atoms) - 1), nil
}
