package parser

import (
	"fmt"
	"strings"

	"tdd/internal/ast"
)

type parser struct {
	lex *lexer
	tok token // lookahead
	// terms is the arena of every atom's arguments, sized once: a term follows a '(' or a ','.
	terms []rawTerm
	// clauses bounds the clauses of src: every clause ends in a '.'.
	clauses int
}

func newParser(src string) (*parser, error) {
	terms, clauses := presize(src)
	p := &parser{lex: newLexer(src), terms: make([]rawTerm, 0, terms), clauses: clauses}
	return p, p.advance()
}

// presize counts, in one byte scan of src, the '(' and ',' that a term
// follows and the '.' that ends a clause, outside comments and quoted
// constants (as the lexer reads them), so neither a comment nor a
// constant sizes a buffer. A ".." is an interval, not a clause end.
func presize(src string) (terms, clauses int) {
	for i := 0; i < len(src); i++ {
		if !presizeStop[src[i]] {
			continue
		}
		switch src[i] {
		case '(', ',':
			terms++
		case '.':
			if strings.HasPrefix(src[i:], "..") {
				i++
			} else {
				clauses++
			}
		case '%', '/':
			if src[i] == '/' && !strings.HasPrefix(src[i:], "//") {
				continue
			}
			if n := strings.IndexByte(src[i:], '\n'); n >= 0 {
				i += n
			} else {
				i = len(src)
			}
		case '\'':
			for i++; i < len(src) && src[i] != '\''; i++ {
				if src[i] == '\\' {
					i++
				}
			}
		}
	}
	return terms, clauses
}

// presizeStop marks the bytes presize acts on: the scan passes every
// other byte with one table load instead of the switch's comparisons.
var presizeStop = [256]bool{'(': true, ',': true, '.': true, '%': true, '/': true, '\'': true}

func (p *parser) advance() error {
	tok, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = tok
	return nil
}

func (p *parser) expect(kind tokenKind) (token, error) {
	if p.tok.kind != kind {
		return token{}, errAt(p.tok.line, p.tok.col, "expected %s, found %s", kind, p.tok)
	}
	tok := p.tok
	return tok, p.advance()
}

// parseUnit parses a sequence of clauses and directives. Every clause
// ends in a '.', so their count sizes the clause list once.
func (p *parser) parseUnit() (*rawUnit, error) {
	u := &rawUnit{clauses: make([]rawClause, 0, p.clauses)}
	for p.tok.kind != tokEOF {
		if p.tok.kind == tokAt {
			d, err := p.parseDirective()
			if err != nil {
				return nil, err
			}
			u.directives = append(u.directives, d)
			continue
		}
		c, err := p.parseClause()
		if err != nil {
			return nil, err
		}
		u.clauses = append(u.clauses, c)
	}
	return u, nil
}

func (p *parser) parseDirective() (directive, error) {
	at := p.tok
	if err := p.advance(); err != nil {
		return directive{}, err
	}
	name, err := p.expect(tokIdent)
	if err != nil {
		return directive{}, err
	}
	d := directive{line: at.line, col: at.col}
	switch name.text {
	case "temporal":
		d.temporal = true
	case "nontemporal":
		d.temporal = false
	default:
		return directive{}, errAt(name.line, name.col, "unknown directive @%s (want @temporal or @nontemporal)", name.text)
	}
	pred, err := p.expect(tokIdent)
	if err != nil {
		return directive{}, err
	}
	d.pred = pred.text
	if _, err := p.expect(tokDot); err != nil {
		return directive{}, err
	}
	return d, nil
}

func (p *parser) parseClause() (rawClause, error) {
	head, err := p.parseAtom()
	if err != nil {
		return rawClause{}, err
	}
	c := rawClause{head: head}
	if p.tok.kind == tokImplies {
		if err := p.advance(); err != nil {
			return rawClause{}, err
		}
		for {
			a, err := p.parseAtom()
			if err != nil {
				return rawClause{}, err
			}
			c.body = append(c.body, a)
			if p.tok.kind != tokComma {
				break
			}
			if err := p.advance(); err != nil {
				return rawClause{}, err
			}
		}
	}
	if _, err := p.expect(tokDot); err != nil {
		return rawClause{}, err
	}
	return c, nil
}

func (p *parser) parseAtom() (rawAtom, error) {
	name, err := p.expect(tokIdent)
	if err != nil {
		return rawAtom{}, err
	}
	a := rawAtom{pred: name.text, line: name.line, col: name.col}
	if p.tok.kind != tokLParen {
		return a, nil
	}
	if err := p.advance(); err != nil {
		return rawAtom{}, err
	}
	start := len(p.terms)
	for {
		t, err := p.parseTerm()
		if err != nil {
			return rawAtom{}, err
		}
		p.terms = append(p.terms, t)
		if p.tok.kind == tokComma {
			if err := p.advance(); err != nil {
				return rawAtom{}, err
			}
			continue
		}
		break
	}
	if _, err := p.expect(tokRParen); err != nil {
		return rawAtom{}, err
	}
	// Capped at its end: appending to one atom's arguments cannot overwrite the next's.
	a.args = p.terms[start:len(p.terms):len(p.terms)]
	return a, nil
}

func (p *parser) parseTerm() (rawTerm, error) {
	tok := p.tok
	switch tok.kind {
	case tokInt:
		if err := p.advance(); err != nil {
			return rawTerm{}, err
		}
		// "3+2" is not a term; integers never take +.
		if p.tok.kind == tokPlus {
			return rawTerm{}, errAt(p.tok.line, p.tok.col, "'+' may only follow a temporal variable")
		}
		// lo..hi — the paper's interval abbreviation (footnote 1), legal
		// only as the temporal argument of a ground fact.
		if p.tok.kind == tokDotDot {
			if err := p.advance(); err != nil {
				return rawTerm{}, err
			}
			hi, err := p.expect(tokInt)
			if err != nil {
				return rawTerm{}, err
			}
			if hi.num < tok.num {
				return rawTerm{}, errAt(tok.line, tok.col, "empty interval %d..%d", tok.num, hi.num)
			}
			return rawTerm{kind: rawRange, num: tok.num, hi: hi.num, line: tok.line, col: tok.col}, nil
		}
		return rawTerm{kind: rawInt, num: tok.num, line: tok.line, col: tok.col}, nil
	case tokQuoted:
		if err := p.advance(); err != nil {
			return rawTerm{}, err
		}
		return rawTerm{kind: rawConst, name: tok.text, line: tok.line, col: tok.col}, nil
	case tokIdent:
		if err := p.advance(); err != nil {
			return rawTerm{}, err
		}
		return rawTerm{kind: rawConst, name: tok.text, line: tok.line, col: tok.col}, nil
	case tokVar:
		if err := p.advance(); err != nil {
			return rawTerm{}, err
		}
		if p.tok.kind == tokPlus {
			if err := p.advance(); err != nil {
				return rawTerm{}, err
			}
			k, err := p.expect(tokInt)
			if err != nil {
				return rawTerm{}, err
			}
			if k.num == 0 {
				return rawTerm{kind: rawVar, name: tok.text, line: tok.line, col: tok.col}, nil
			}
			return rawTerm{kind: rawVarPlus, name: tok.text, num: k.num, line: tok.line, col: tok.col}, nil
		}
		return rawTerm{kind: rawVar, name: tok.text, line: tok.line, col: tok.col}, nil
	}
	return rawTerm{}, errAt(tok.line, tok.col, "expected a term, found %s", tok)
}

// ParseUnit parses a mixed source text of rules, ground facts, and sort
// directives, resolving sorts across the whole unit. Ground unit clauses
// become database facts; everything else becomes rules.
func ParseUnit(src string) (*ast.Program, *ast.Database, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, nil, err
	}
	u, err := p.parseUnit()
	if err != nil {
		return nil, nil, err
	}
	return resolveUnit(u, nil)
}

// ParseProgram parses rules only. Ground unit clauses are rejected with a
// pointer to the database.
func ParseProgram(src string) (*ast.Program, error) {
	prog, db, err := ParseUnit(src)
	if err != nil {
		return nil, err
	}
	if len(db.Facts) > 0 {
		return nil, fmt.Errorf("parser: program source contains ground fact %s; facts belong in the database", db.Facts[0])
	}
	return prog, nil
}

// ParseDatabase parses ground facts only.
func ParseDatabase(src string) (*ast.Database, error) { return ParseFacts(src, nil) }

// ParseFacts parses a fact batch against known predicate signatures, as
// ParseQuery types a query against them: a known predicate keeps its sort
// whatever the batch looks like — best(10) stays a non-temporal fact of a
// non-temporal best, a @temporal directive for it is overridden, and
// best(0..2) abbreviates best(0), best(1), best(2) — while a predicate
// the batch introduces gets the sort ParseDatabase would infer for it.
func ParseFacts(src string, preds map[string]ast.PredInfo) (*ast.Database, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	u, err := p.parseUnit()
	if err != nil {
		return nil, err
	}
	prog, db, err := resolveUnit(u, preds)
	if err != nil {
		return nil, err
	}
	if len(prog.Rules) > 0 {
		return nil, fmt.Errorf("parser: database source contains rule %s", prog.Rules[0])
	}
	return db, nil
}
