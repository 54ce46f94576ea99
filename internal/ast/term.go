// Package ast defines the abstract syntax of temporal deductive databases
// (TDDs) as introduced by Chomicki (PODS 1990): Datalog extended with a
// single unary function symbol +1 that may appear only in one distinguished
// (temporal) argument of each temporal predicate.
//
// The syntax has two disjoint sorts of terms:
//
//   - temporal terms, built from the unique temporal constant 0, temporal
//     variables, and the postfix successor +1 (so every temporal term is
//     either the integer k, i.e. 0+1+...+1, or V+k for a temporal variable V);
//   - non-temporal terms, which are database constants or non-temporal
//     variables (no function symbols).
//
// A temporal atom is P(v, x1, ..., xn) where v is a temporal term; a
// non-temporal atom is R(x1, ..., xn). Rules are Horn clauses over these
// atoms; a database is a finite set of ground atoms.
package ast

import (
	"fmt"
	"strconv"
	"strings"
)

// TemporalTerm is a temporal term: either the ground term k (Var == "")
// or the term V+k for a temporal variable V (Var != ""). Depth is k and is
// always non-negative; the ground term 0 is {Var: "", Depth: 0}.
type TemporalTerm struct {
	Var   string
	Depth int
}

// Ground reports whether the term contains no variable.
func (t TemporalTerm) Ground() bool { return t.Var == "" }

// Shift returns the term with its depth increased by d. Shifting below
// zero panics; callers must keep depths non-negative (the Herbrand universe
// of the temporal sort has no negative elements).
func (t TemporalTerm) Shift(d int) TemporalTerm {
	if t.Depth+d < 0 {
		panic(fmt.Sprintf("ast: temporal term %v shifted to negative depth", t))
	}
	return TemporalTerm{Var: t.Var, Depth: t.Depth + d}
}

func (t TemporalTerm) String() string {
	if t.Var == "" {
		return strconv.Itoa(t.Depth)
	}
	if t.Depth == 0 {
		return t.Var
	}
	return t.Var + "+" + strconv.Itoa(t.Depth)
}

// Symbol is a non-temporal term: a database constant or a non-temporal
// variable. Following Prolog convention, variables begin with an upper-case
// letter or underscore; constants begin with a lower-case letter, a digit,
// or are quoted.
type Symbol struct {
	Name  string
	IsVar bool
}

// Const returns a constant symbol.
func Const(name string) Symbol { return Symbol{Name: name} }

// Var returns a variable symbol.
func Var(name string) Symbol { return Symbol{Name: name, IsVar: true} }

func (s Symbol) String() string {
	if s.IsVar {
		return s.Name
	}
	return quoteConst(s.Name)
}

// quoteConst renders a constant, quoting it when it would not scan as a
// plain constant token.
func quoteConst(name string) string {
	if name == "" {
		return `''`
	}
	plain := true
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z':
		case r >= '0' && r <= '9':
		case r == '_':
		case i > 0 && r >= 'A' && r <= 'Z':
		default:
			plain = false
		}
		if !plain {
			break
		}
	}
	if c := name[0]; c >= 'A' && c <= 'Z' || c == '_' {
		plain = false
	} else if c >= '0' && c <= '9' {
		// A leading digit scans as a number, which names the constant of
		// its value: only an all-digit name that scans back as itself — 0,
		// or no leading zero and at most nine digits, which the lexer's
		// integer bound always admits — may stay bare.
		if strings.Trim(name, "0123456789") != "" || c == '0' && name != "0" || len(name) > 9 {
			plain = false
		}
	}
	if plain {
		return name
	}
	var b strings.Builder
	b.WriteByte('\'')
	for _, r := range name {
		if r == '\'' || r == '\\' {
			b.WriteByte('\\')
		}
		b.WriteRune(r)
	}
	b.WriteByte('\'')
	return b.String()
}
