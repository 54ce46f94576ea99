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
	// tempVars[i] is the set of temporal variables of clause i.
	tempVars []map[string]bool
}

func newSorter(u *rawUnit) (*sorter, error) {
	s := &sorter{
		temporal: make(map[string]bool),
		forced:   make(map[string]bool),
		clauses:  u.clauses,
		tempVars: make([]map[string]bool, len(u.clauses)),
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
	for i := range s.tempVars {
		s.tempVars[i] = make(map[string]bool)
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
		atoms := append([]rawAtom{c.head}, c.body...)
		for _, a := range atoms {
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
					s.tempVars[ci][t.name] = true
				}
			}
		}
	}
	// Fixpoint: propagate between predicates and variables.
	for changed := true; changed; {
		changed = false
		for ci, c := range s.clauses {
			atoms := append([]rawAtom{c.head}, c.body...)
			for _, a := range atoms {
				if len(a.args) == 0 {
					continue
				}
				first := a.args[0]
				if first.kind != rawVar {
					continue
				}
				if s.isTemporal(a.pred) && !s.tempVars[ci][first.name] {
					s.tempVars[ci][first.name] = true
					changed = true
				}
				if s.tempVars[ci][first.name] && !s.isTemporal(a.pred) {
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
	tv := s.tempVars[ci]
	out := make([]ast.Symbol, len(raws))
	for i, t := range raws {
		switch t.kind {
		case rawInt:
			out[i] = ast.Const(itoa(t.num))
		case rawConst:
			out[i] = ast.Const(t.name)
		case rawVar:
			if tv[t.name] {
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
	s, err := newSorter(u)
	if err != nil {
		return nil, nil, err
	}
	s.known = known
	if err := s.infer(); err != nil {
		return nil, nil, err
	}
	var rules []ast.Rule
	var facts []ast.Fact
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
			for day := r.num; day <= r.hi; day++ {
				expanded := c.head
				expanded.args = append([]rawTerm(nil), c.head.args...)
				expanded.args[0] = rawTerm{kind: rawInt, num: day, line: r.line, col: r.col}
				head, err := s.buildAtom(ci, expanded)
				if err != nil {
					return nil, nil, err
				}
				if !head.Ground() {
					return nil, nil, errAt(c.line, c.col, "unit clause %s is not ground; rules need a body, facts need constants", head)
				}
				facts = append(facts, ast.FactOf(head))
			}
			continue
		}
		head, err := s.buildAtom(ci, c.head)
		if err != nil {
			return nil, nil, err
		}
		if c.fact() {
			if !head.Ground() {
				return nil, nil, errAt(c.line, c.col, "unit clause %s is not ground; rules need a body, facts need constants", head)
			}
			facts = append(facts, ast.FactOf(head))
			continue
		}
		r := ast.Rule{Head: head, Pos: ast.Pos{Line: c.line, Col: c.col}}
		for _, b := range c.body {
			atom, err := s.buildAtom(ci, b)
			if err != nil {
				return nil, nil, err
			}
			r.Body = append(r.Body, atom)
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
