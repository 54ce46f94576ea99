package parser

import "fmt"

// Raw (unsorted) parse trees. Terms are parsed without committing to the
// temporal / non-temporal distinction; sorts.go resolves sorts afterwards.

type rawKind int

const (
	rawInt rawKind = iota // integer literal
	rawConst
	rawVar
	rawVarPlus // V+k, k >= 1
	rawRange   // lo..hi, the paper's footnote-1 interval abbreviation
)

type rawTerm struct {
	kind rawKind
	name string // rawConst, rawVar, rawVarPlus
	num  int    // rawInt value, rawVarPlus offset, or rawRange low end
	hi   int    // rawRange high end
	line int
	col  int
}

func (t rawTerm) String() string {
	switch t.kind {
	case rawInt:
		return fmt.Sprintf("%d", t.num)
	case rawConst:
		return t.name
	case rawVar:
		return t.name
	case rawVarPlus:
		return fmt.Sprintf("%s+%d", t.name, t.num)
	case rawRange:
		return fmt.Sprintf("%d..%d", t.num, t.hi)
	}
	return "?"
}

type rawAtom struct {
	pred string
	args []rawTerm
	line int
	col  int
}

type rawClause struct {
	head rawAtom
	body []rawAtom
}

func (c rawClause) fact() bool { return len(c.body) == 0 }

// atom returns the clause's k-th atom: the head at 0, then the body.
func (c *rawClause) atom(k int) *rawAtom {
	if k == 0 {
		return &c.head
	}
	return &c.body[k-1]
}

// directive is a sort directive: @temporal p. or @nontemporal p.
type directive struct {
	temporal bool
	pred     string
	line     int
	col      int
}

type rawUnit struct {
	clauses    []rawClause
	directives []directive
}
