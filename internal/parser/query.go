package parser

import (
	"tdd/internal/ast"
)

// Query grammar:
//
//	Query   := Or
//	Or      := And   { ("|" | "or") And }
//	And     := Unary { ("&" | "and") Unary }
//	Unary   := ("!" | "not") Unary
//	        |  ("exists" | "forall") Var {"," Var} Unary
//	        |  "(" Query ")"
//	        |  Atom
//
// Conjunction is written "&" (not ","; commas separate atom arguments).
// Quantifier sorts are inferred: a variable is temporal when it occurs in a
// V+k term or in the temporal position of a temporal predicate, with the
// caveat that all occurrences of a variable name in one query share a sort.

// raw query tree; leaves carry raw atoms until sorts are resolved.
type rawQuery struct {
	kind  rawQKind
	atom  rawAtom
	sub   *rawQuery
	left  *rawQuery
	right *rawQuery
	v     string
	line  int
	col   int
}

type rawQKind int

const (
	rqAtom rawQKind = iota
	rqNot
	rqAnd
	rqOr
	rqExists
	rqForall
)

// ParseQuery parses a temporal first-order query. The preds map supplies
// predicate signatures from the program and database the query will be
// evaluated against; predicates not in the map are inferred from the query
// text alone.
func ParseQuery(src string, preds map[string]ast.PredInfo) (ast.Query, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	rq, err := p.parseQueryOr()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, errAt(p.tok.line, p.tok.col, "unexpected %s after query", p.tok)
	}
	return resolveQuery(rq, preds)
}

func (p *parser) parseQueryOr() (*rawQuery, error) {
	left, err := p.parseQueryAnd()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokPipe || (p.tok.kind == tokIdent && p.tok.text == "or") {
		line, col := p.tok.line, p.tok.col
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseQueryAnd()
		if err != nil {
			return nil, err
		}
		left = &rawQuery{kind: rqOr, left: left, right: right, line: line, col: col}
	}
	return left, nil
}

func (p *parser) parseQueryAnd() (*rawQuery, error) {
	left, err := p.parseQueryUnary()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokAmp || (p.tok.kind == tokIdent && p.tok.text == "and") {
		line, col := p.tok.line, p.tok.col
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseQueryUnary()
		if err != nil {
			return nil, err
		}
		left = &rawQuery{kind: rqAnd, left: left, right: right, line: line, col: col}
	}
	return left, nil
}

func (p *parser) parseQueryUnary() (*rawQuery, error) {
	tok := p.tok
	switch {
	case tok.kind == tokBang || (tok.kind == tokIdent && tok.text == "not"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		sub, err := p.parseQueryUnary()
		if err != nil {
			return nil, err
		}
		return &rawQuery{kind: rqNot, sub: sub, line: tok.line, col: tok.col}, nil
	case tok.kind == tokIdent && (tok.text == "exists" || tok.text == "forall"):
		kind := rqExists
		if tok.text == "forall" {
			kind = rqForall
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		var vars []string
		v, err := p.expect(tokVar)
		if err != nil {
			return nil, err
		}
		vars = append(vars, v.text)
		for p.tok.kind == tokComma {
			if err := p.advance(); err != nil {
				return nil, err
			}
			v, err := p.expect(tokVar)
			if err != nil {
				return nil, err
			}
			vars = append(vars, v.text)
		}
		sub, err := p.parseQueryUnary()
		if err != nil {
			return nil, err
		}
		// Desugar multi-variable quantifiers right to left.
		for i := len(vars) - 1; i >= 0; i-- {
			sub = &rawQuery{kind: kind, v: vars[i], sub: sub, line: tok.line, col: tok.col}
		}
		return sub, nil
	case tok.kind == tokLParen:
		if err := p.advance(); err != nil {
			return nil, err
		}
		q, err := p.parseQueryOr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return q, nil
	case tok.kind == tokIdent:
		a, err := p.parseAtom()
		if err != nil {
			return nil, err
		}
		return &rawQuery{kind: rqAtom, atom: a, line: a.line, col: a.col}, nil
	}
	return nil, errAt(tok.line, tok.col, "expected a query, found %s", tok)
}

func queryAtoms(q *rawQuery, out *[]rawAtom) {
	switch q.kind {
	case rqAtom:
		*out = append(*out, q.atom)
	case rqNot, rqExists, rqForall:
		queryAtoms(q.sub, out)
	case rqAnd, rqOr:
		queryAtoms(q.left, out)
		queryAtoms(q.right, out)
	}
}

// resolveQuery runs sort inference over the query's atoms (treated as a
// single clause, seeded with external signatures) and builds the typed
// query.
func resolveQuery(rq *rawQuery, preds map[string]ast.PredInfo) (ast.Query, error) {
	var atoms []rawAtom
	queryAtoms(rq, &atoms)
	u := &rawUnit{clauses: []rawClause{{head: rawAtom{pred: "$query$"}, body: atoms}}}
	s, err := newSorter(u, preds)
	if err != nil {
		return nil, err
	}
	if err := s.infer(); err != nil {
		return nil, err
	}
	// Arity / sort agreement with the supplied signatures.
	for _, a := range atoms {
		info, ok := preds[a.pred]
		if !ok {
			continue
		}
		want := len(a.args)
		if s.isTemporal(a.pred) {
			want--
		}
		if want != info.Arity {
			return nil, errAt(a.line, a.col, "predicate %s used with %d non-temporal arguments, declared with %d", a.pred, want, info.Arity)
		}
	}
	return buildQuery(rq, s)
}

func buildQuery(rq *rawQuery, s *sorter) (ast.Query, error) {
	switch rq.kind {
	case rqAtom:
		atom, err := s.buildAtom(0, rq.atom)
		if err != nil {
			return nil, err
		}
		return ast.QAtom{Atom: atom}, nil
	case rqNot:
		sub, err := buildQuery(rq.sub, s)
		if err != nil {
			return nil, err
		}
		return ast.QNot{Sub: sub}, nil
	case rqAnd, rqOr:
		left, err := buildQuery(rq.left, s)
		if err != nil {
			return nil, err
		}
		right, err := buildQuery(rq.right, s)
		if err != nil {
			return nil, err
		}
		if rq.kind == rqAnd {
			return ast.QAnd{Left: left, Right: right}, nil
		}
		return ast.QOr{Left: left, Right: right}, nil
	case rqExists, rqForall:
		sub, err := buildQuery(rq.sub, s)
		if err != nil {
			return nil, err
		}
		sort := ast.SortNonTemporal
		if s.tempVars[clauseVar{0, rq.v}] {
			sort = ast.SortTemporal
		}
		if !varOccurs(sub, rq.v, sort) {
			return nil, errAt(rq.line, rq.col, "quantified variable %s does not occur in its scope", rq.v)
		}
		if rq.kind == rqExists {
			return ast.QExists{Var: rq.v, Sort: sort, Sub: sub}, nil
		}
		return ast.QForall{Var: rq.v, Sort: sort, Sub: sub}, nil
	}
	return nil, errAt(rq.line, rq.col, "internal: unknown query node")
}

// varOccurs reports whether variable v of the given sort occurs (free or
// bound — inner rebinding is uncommon and harmless here) in q.
func varOccurs(q ast.Query, v string, sort ast.Sort) bool {
	for _, a := range ast.QueryAtoms(q) {
		if sort == ast.SortTemporal {
			if a.Time != nil && a.Time.Var == v {
				return true
			}
			continue
		}
		for _, s := range a.Args {
			if s.IsVar && s.Name == v {
				return true
			}
		}
	}
	return false
}
