package parser

import (
	"tdd/internal/ast"
)

// Sort inference. The surface syntax does not annotate which predicates are
// temporal; following the paper's convention that the temporal argument is
// the distinguished first argument, a predicate is inferred to be temporal
// when
//
//   - a @temporal directive names it, or
//   - some occurrence has a first argument with explicitly temporal syntax
//     (an integer literal or V+k with k >= 1), or
//   - some occurrence has as first argument a variable known to be temporal
//     in that clause (because it occurs in a V+k term or as the first
//     argument of another temporal predicate).
//
// The last condition makes inference a fixpoint across the unit. Predicates
// never marked temporal are non-temporal — plain Datalog relations — and an
// integer in their columns is an ordinary constant. @nontemporal overrides
// the integer-literal heuristic (for relations like score(10, john) whose
// first column happens to be numeric); it cannot override variable-based
// evidence, which would make the clause ill-sorted.

type sorter struct {
	temporal map[string]bool // pred -> temporal
	forced   map[string]bool // pred -> forced value (from directives)
	// known holds signatures fixed before the unit was read (a fact
	// batch's database). A known sort overrides the unit's directives and
	// evidence alike.
	known   map[string]ast.PredInfo
	clauses []rawClause
	// tempVars is the unit's one set of temporal variables: a fact adds none.
	tempVars map[clauseVar]bool
}

// clauseVar is the variable name of clause ci.
type clauseVar struct {
	ci   int
	name string
}

func newSorter(u *rawUnit, known map[string]ast.PredInfo) (*sorter, error) {
	s := &sorter{
		temporal: make(map[string]bool),
		forced:   make(map[string]bool),
		known:    known,
		clauses:  u.clauses,
		tempVars: make(map[clauseVar]bool),
	}
	for _, d := range u.directives {
		if prev, ok := s.forced[d.pred]; ok && prev != d.temporal {
			return nil, errAt(d.line, d.col, "conflicting sort directives for %s", d.pred)
		}
		s.forced[d.pred] = d.temporal
		if d.temporal {
			s.temporal[d.pred] = true
		}
	}
	return s, nil
}

// forcedSort reports the sort a known signature or a directive fixes for
// pred, if any.
func (s *sorter) forcedSort(pred string) (temporal, ok bool) {
	if pi, ok := s.known[pred]; ok {
		return pi.Temporal, true
	}
	temporal, ok = s.forced[pred]
	return temporal, ok
}

// isTemporal reports whether pred is temporal: by its known signature, or
// else by the directives and evidence inferred so far.
func (s *sorter) isTemporal(pred string) bool {
	if pi, ok := s.known[pred]; ok {
		return pi.Temporal
	}
	return s.temporal[pred]
}

// markTemporal records pred as temporal, checking directives.
func (s *sorter) markTemporal(pred string, line, col int) error {
	if v, ok := s.forcedSort(pred); ok && !v {
		return errAt(line, col, "predicate %s is declared @nontemporal but used with a temporal first argument", pred)
	}
	s.temporal[pred] = true
	return nil
}

func (s *sorter) infer() error {
	// Seed: explicit temporal syntax.
	for ci, c := range s.clauses {
		for k := 0; k <= len(c.body); k++ {
			a := c.atom(k)
			if len(a.args) == 0 {
				continue
			}
			first := a.args[0]
			if first.kind == rawVarPlus {
				if err := s.markTemporal(a.pred, a.line, a.col); err != nil {
					return err
				}
			}
			if first.kind == rawInt || first.kind == rawRange {
				// Integer or interval first argument is temporal evidence
				// unless the predicate is forced non-temporal.
				if v, ok := s.forcedSort(a.pred); !ok || v {
					s.temporal[a.pred] = true
				}
			}
			// V+k anywhere marks V temporal in this clause; the term
			// builder later rejects V+k outside the first position.
			for _, t := range a.args {
				if t.kind == rawVarPlus {
					s.tempVars[clauseVar{ci, t.name}] = true
				}
			}
		}
	}
	// Fixpoint: propagate between predicates and variables.
	for changed := true; changed; {
		changed = false
		for ci, c := range s.clauses {
			for k := 0; k <= len(c.body); k++ {
				a := c.atom(k)
				if len(a.args) == 0 {
					continue
				}
				first := a.args[0]
				if first.kind != rawVar {
					continue
				}
				v := clauseVar{ci, first.name}
				if s.isTemporal(a.pred) && !s.tempVars[v] {
					s.tempVars[v] = true
					changed = true
				}
				if s.tempVars[v] && !s.isTemporal(a.pred) {
					if err := s.markTemporal(a.pred, a.line, a.col); err != nil {
						return err
					}
					changed = true
				}
			}
		}
	}
	return nil
}

// buildAtom converts a raw atom of clause ci to a typed atom.
func (s *sorter) buildAtom(ci int, a rawAtom) (ast.Atom, error) {
	if s.isTemporal(a.pred) {
		if len(a.args) == 0 {
			return ast.Atom{}, errAt(a.line, a.col, "temporal predicate %s needs a temporal first argument", a.pred)
		}
		first := a.args[0]
		var tt ast.TemporalTerm
		switch first.kind {
		case rawInt:
			tt = ast.TemporalTerm{Depth: first.num}
		case rawVar:
			tt = ast.TemporalTerm{Var: first.name}
		case rawVarPlus:
			tt = ast.TemporalTerm{Var: first.name, Depth: first.num}
		case rawConst:
			return ast.Atom{}, errAt(first.line, first.col, "constant %s in the temporal position of %s (declare @nontemporal %s if intended)", first.name, a.pred, a.pred)
		case rawRange:
			return ast.Atom{}, errAt(first.line, first.col, "interval %s is only allowed in ground facts", first)
		}
		rest, err := s.buildArgs(ci, a.pred, a.args[1:])
		if err != nil {
			return ast.Atom{}, err
		}
		out := ast.TemporalAtom(a.pred, tt, rest...)
		out.Pos = ast.Pos{Line: a.line, Col: a.col}
		return out, nil
	}
	args, err := s.buildArgs(ci, a.pred, a.args)
	if err != nil {
		return ast.Atom{}, err
	}
	out := ast.NonTemporalAtom(a.pred, args...)
	out.Pos = ast.Pos{Line: a.line, Col: a.col}
	return out, nil
}

// buildArgs converts non-temporal argument positions.
func (s *sorter) buildArgs(ci int, pred string, raws []rawTerm) ([]ast.Symbol, error) {
	out := make([]ast.Symbol, len(raws))
	for i, t := range raws {
		switch t.kind {
		case rawInt:
			out[i] = ast.Const(itoa(t.num))
		case rawConst:
			out[i] = ast.Const(t.name)
		case rawVar:
			if s.tempVars[clauseVar{ci, t.name}] {
				return nil, errAt(t.line, t.col, "temporal variable %s used in a non-temporal position of %s", t.name, pred)
			}
			out[i] = ast.Var(t.name)
		case rawVarPlus:
			return nil, errAt(t.line, t.col, "temporal term %s may appear only as the first argument of a temporal predicate", t)
		case rawRange:
			return nil, errAt(t.line, t.col, "interval %s may appear only as the temporal argument of a ground fact", t)
		}
	}
	return out, nil
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// maxIntervalPoints bounds interval-fact expansion per unit, cumulative
// across all interval facts. Each point becomes a database fact, so
// unbounded intervals would let a few characters of source
// (`p(0..999999999).`) allocate gigabytes; a million points is far
// beyond any legitimate unit file.
const maxIntervalPoints = 1 << 20

// resolveUnit runs sort inference and splits a raw unit into a program and
// a database. known, when non-nil, fixes the sorts of predicates whose
// signatures are already known: the unit's directives and evidence sort
// only the predicates it introduces.
func resolveUnit(u *rawUnit, known map[string]ast.PredInfo) (*ast.Program, *ast.Database, error) {
	s, err := newSorter(u, known)
	if err != nil {
		return nil, nil, err
	}
	if err := s.infer(); err != nil {
		return nil, nil, err
	}
	// Size the fact list once: a fact per unit clause, but an interval's,
	// whose points are sized for once its first point has built.
	nfacts := 0
	for _, c := range u.clauses {
		if c.fact() && (len(c.head.args) == 0 || c.head.args[0].kind != rawRange) {
			nfacts++
		}
	}
	facts := make([]ast.Fact, 0, nfacts)
	var rules []ast.Rule
	points := 0
	for ci, c := range u.clauses {
		// Interval facts like winter(0..90). expand to one fact per day
		// (the paper's footnote 1: "we could provide an abbreviation for
		// intervals"); of a known non-temporal predicate, to one fact per
		// integer constant.
		_, isKnown := known[c.head.pred]
		if c.fact() && len(c.head.args) > 0 && c.head.args[0].kind == rawRange && (isKnown || s.isTemporal(c.head.pred)) {
			r := c.head.args[0]
			points += r.hi - r.num + 1
			if points > maxIntervalPoints {
				return nil, nil, errAt(r.line, r.col, "interval %d..%d expands the unit past %d points", r.num, r.hi, maxIntervalPoints)
			}
			pt := c.head
			pt.args = append([]rawTerm(nil), pt.args...)
			for t := r.num; t <= r.hi; t++ {
				pt.args[0] = rawTerm{kind: rawInt, num: t, line: r.line, col: r.col}
				f, err := s.fact(ci, pt)
				if err != nil {
					return nil, nil, err
				}
				if t == r.num { // only now: the points differ only in time, so all build
					facts = append(make([]ast.Fact, 0, cap(facts)+r.hi-r.num+1), facts...)
				}
				facts = append(facts, f)
			}
			continue
		}
		if c.fact() {
			f, err := s.fact(ci, c.head)
			if err != nil {
				return nil, nil, err
			}
			facts = append(facts, f)
			continue
		}
		head, err := s.buildAtom(ci, c.head)
		if err != nil {
			return nil, nil, err
		}
		r := ast.Rule{Head: head, Body: make([]ast.Atom, len(c.body)), Pos: ast.Pos{Line: c.head.line, Col: c.head.col}}
		for i, b := range c.body {
			if r.Body[i], err = s.buildAtom(ci, b); err != nil {
				return nil, nil, err
			}
		}
		rules = append(rules, r)
	}
	prog, err := ast.NewProgram(rules)
	if err != nil {
		return nil, nil, err
	}
	db, err := ast.NewDatabase(facts)
	if err != nil {
		return nil, nil, err
	}
	// Cross-check rule and fact signatures.
	if err := db.CheckAgainst(prog); err != nil {
		return nil, nil, err
	}
	return prog, db, nil
}

// fact builds the ground fact the head a of unit clause ci states straight
// into an ast.Fact, by buildAtom's and buildArgs' cases for a ground head;
// a head that is no ground fact fails through buildAtom, or as not ground.
func (s *sorter) fact(ci int, a rawAtom) (ast.Fact, error) {
	f := ast.Fact{Pred: a.pred, Temporal: s.isTemporal(a.pred)}
	args, ground := a.args, true
	if f.Temporal {
		ground = len(args) > 0 && args[0].kind == rawInt
		if ground {
			f.Time, args = args[0].num, args[1:]
		}
	}
	f.Args = make([]string, len(args))
	for i := 0; i < len(args) && ground; i++ {
		switch t := args[i]; t.kind {
		case rawInt:
			f.Args[i] = itoa(t.num)
		case rawConst:
			f.Args[i] = t.name
		default:
			ground = false
		}
	}
	if ground {
		return f, nil
	}
	head, err := s.buildAtom(ci, a)
	if err == nil {
		err = errAt(a.line, a.col, "unit clause %s is not ground; rules need a body, facts need constants", head)
	}
	return ast.Fact{}, err
}
