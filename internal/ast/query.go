package ast

import (
	"fmt"
	"strings"
)

// Query is a temporal first-order query (Section 3.1): a formula without
// equality built from temporal and non-temporal atoms, the standard
// connectives, and two-sorted quantifiers (one sort ranges over ground
// temporal terms, the other over non-temporal constants).
type Query interface {
	fmt.Stringer
	isQuery()
	// FreeVars appends the query's free variables to the two accumulators,
	// keyed by name. Used by evaluators and validators.
	freeVars(bound map[string]bool, temporal, nonTemporal map[string]bool)
}

// QAtom is an atomic query.
type QAtom struct{ Atom Atom }

// QNot is a negated query, evaluated under the Closed World Assumption.
type QNot struct{ Sub Query }

// QAnd is a conjunction.
type QAnd struct{ Left, Right Query }

// QOr is a disjunction.
type QOr struct{ Left, Right Query }

// Sort distinguishes the two quantifier sorts of the language.
type Sort int

const (
	// SortNonTemporal quantifies over non-temporal constants.
	SortNonTemporal Sort = iota
	// SortTemporal quantifies over ground temporal terms.
	SortTemporal
)

func (s Sort) String() string {
	if s == SortTemporal {
		return "temporal"
	}
	return "non-temporal"
}

// QExists is an existential quantifier over one variable of the given sort.
type QExists struct {
	Var  string
	Sort Sort
	Sub  Query
}

// QForall is a universal quantifier over one variable of the given sort.
type QForall struct {
	Var  string
	Sort Sort
	Sub  Query
}

func (QAtom) isQuery()   {}
func (QNot) isQuery()    {}
func (QAnd) isQuery()    {}
func (QOr) isQuery()     {}
func (QExists) isQuery() {}
func (QForall) isQuery() {}

func (q QAtom) String() string { return q.Atom.String() }
func (q QNot) String() string  { return "!" + parens(q.Sub) }
func (q QAnd) String() string  { return parens(q.Left) + " & " + parens(q.Right) }
func (q QOr) String() string   { return parens(q.Left) + " | " + parens(q.Right) }
func (q QExists) String() string {
	return "exists " + q.Var + " " + parens(q.Sub)
}
func (q QForall) String() string {
	return "forall " + q.Var + " " + parens(q.Sub)
}

func parens(q Query) string {
	if a, ok := q.(QAtom); ok {
		return a.String()
	}
	return "(" + q.String() + ")"
}

func (q QAtom) freeVars(bound map[string]bool, temporal, nonTemporal map[string]bool) {
	if q.Atom.Time != nil && q.Atom.Time.Var != "" && !bound[q.Atom.Time.Var] {
		temporal[q.Atom.Time.Var] = true
	}
	for _, s := range q.Atom.Args {
		if s.IsVar && !bound[s.Name] {
			nonTemporal[s.Name] = true
		}
	}
}

func (q QNot) freeVars(bound map[string]bool, temporal, nonTemporal map[string]bool) {
	q.Sub.freeVars(bound, temporal, nonTemporal)
}

func (q QAnd) freeVars(bound map[string]bool, temporal, nonTemporal map[string]bool) {
	q.Left.freeVars(bound, temporal, nonTemporal)
	q.Right.freeVars(bound, temporal, nonTemporal)
}

func (q QOr) freeVars(bound map[string]bool, temporal, nonTemporal map[string]bool) {
	q.Left.freeVars(bound, temporal, nonTemporal)
	q.Right.freeVars(bound, temporal, nonTemporal)
}

func (q QExists) freeVars(bound map[string]bool, temporal, nonTemporal map[string]bool) {
	quantFreeVars(q.Var, q.Sub, bound, temporal, nonTemporal)
}

func (q QForall) freeVars(bound map[string]bool, temporal, nonTemporal map[string]bool) {
	quantFreeVars(q.Var, q.Sub, bound, temporal, nonTemporal)
}

func quantFreeVars(v string, sub Query, bound map[string]bool, temporal, nonTemporal map[string]bool) {
	was := bound[v]
	bound[v] = true
	sub.freeVars(bound, temporal, nonTemporal)
	bound[v] = was
}

// FreeVars returns the free temporal and non-temporal variables of q, each
// sorted for determinism.
func FreeVars(q Query) (temporal, nonTemporal []string) {
	tm, nm := make(map[string]bool), make(map[string]bool)
	q.freeVars(make(map[string]bool), tm, nm)
	return sortedKeys(tm), sortedKeys(nm)
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	// insertion sort: tiny inputs
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Closed reports whether the query has no free variables (a yes-no query).
func Closed(q Query) bool {
	t, n := FreeVars(q)
	return len(t) == 0 && len(n) == 0
}

// QueryAtoms returns all atoms occurring in q, in left-to-right order.
func QueryAtoms(q Query) []Atom {
	var out []Atom
	var walk func(Query)
	walk = func(q Query) {
		switch q := q.(type) {
		case QAtom:
			out = append(out, q.Atom)
		case QNot:
			walk(q.Sub)
		case QAnd:
			walk(q.Left)
			walk(q.Right)
		case QOr:
			walk(q.Left)
			walk(q.Right)
		case QExists:
			walk(q.Sub)
		case QForall:
			walk(q.Sub)
		}
	}
	walk(q)
	return out
}

// FormatAnswer renders an answer substitution for display: variable names
// mapped to values, in sorted variable order.
func FormatAnswer(temporal map[string]int, nonTemporal map[string]string) string {
	var parts []string
	for _, k := range sortedKeys(boolKeys(temporal)) {
		parts = append(parts, fmt.Sprintf("%s=%d", k, temporal[k]))
	}
	nk := make(map[string]bool, len(nonTemporal))
	for k := range nonTemporal {
		nk[k] = true
	}
	for _, k := range sortedKeys(nk) {
		parts = append(parts, fmt.Sprintf("%s=%s", k, quoteConst(nonTemporal[k])))
	}
	return strings.Join(parts, ", ")
}

func boolKeys(m map[string]int) map[string]bool {
	out := make(map[string]bool, len(m))
	for k := range m {
		out[k] = true
	}
	return out
}
