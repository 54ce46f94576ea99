package ast

import (
	"sort"
	"strings"
)

// Atom is a temporal or non-temporal atom. For a temporal atom, Time is
// non-nil and holds the temporal argument (which the language confines to
// one distinguished position, rendered first); Args holds the non-temporal
// arguments. For a non-temporal atom, Time is nil.
type Atom struct {
	Pred string
	Time *TemporalTerm
	Args []Symbol

	// Pos is the source position of the atom's predicate symbol, when the
	// atom came from the parser. It is carried for diagnostics only and is
	// ignored by Equal.
	Pos Pos
}

// TemporalAtom constructs a temporal atom P(time, args...).
func TemporalAtom(pred string, time TemporalTerm, args ...Symbol) Atom {
	t := time
	return Atom{Pred: pred, Time: &t, Args: args}
}

// NonTemporalAtom constructs a non-temporal atom R(args...).
func NonTemporalAtom(pred string, args ...Symbol) Atom {
	return Atom{Pred: pred, Args: args}
}

// Temporal reports whether the atom has a temporal argument.
func (a Atom) Temporal() bool { return a.Time != nil }

// Ground reports whether the atom contains no variables.
func (a Atom) Ground() bool {
	if a.Time != nil && !a.Time.Ground() {
		return false
	}
	for _, s := range a.Args {
		if s.IsVar {
			return false
		}
	}
	return true
}

// Depth returns the depth of the atom's temporal term, or -1 for a
// non-temporal atom.
func (a Atom) Depth() int {
	if a.Time == nil {
		return -1
	}
	return a.Time.Depth
}

// Clone returns a deep copy of the atom.
func (a Atom) Clone() Atom {
	c := Atom{Pred: a.Pred, Pos: a.Pos}
	if a.Time != nil {
		t := *a.Time
		c.Time = &t
	}
	c.Args = append([]Symbol(nil), a.Args...)
	return c
}

// Equal reports structural equality of two atoms.
func (a Atom) Equal(b Atom) bool {
	if a.Pred != b.Pred || (a.Time == nil) != (b.Time == nil) || len(a.Args) != len(b.Args) {
		return false
	}
	if a.Time != nil && *a.Time != *b.Time {
		return false
	}
	for i := range a.Args {
		if a.Args[i] != b.Args[i] {
			return false
		}
	}
	return true
}

func (a Atom) String() string {
	var b strings.Builder
	b.WriteString(a.Pred)
	if a.Time == nil && len(a.Args) == 0 {
		return b.String()
	}
	b.WriteByte('(')
	first := true
	if a.Time != nil {
		b.WriteString(a.Time.String())
		first = false
	}
	for _, s := range a.Args {
		if !first {
			b.WriteString(", ")
		}
		b.WriteString(s.String())
		first = false
	}
	b.WriteByte(')')
	return b.String()
}

// Fact is a ground atom as stored in a temporal database: either a temporal
// tuple P(k, c1..cn) or a non-temporal tuple R(c1..cn).
type Fact struct {
	Pred     string
	Temporal bool
	Time     int // meaningful only when Temporal
	Args     []string
}

// FactOf converts a ground atom to a Fact. It panics if the atom is not
// ground; use Atom.Ground to check first.
func FactOf(a Atom) Fact {
	if !a.Ground() {
		panic("ast: FactOf on non-ground atom " + a.String())
	}
	f := Fact{Pred: a.Pred}
	if a.Time != nil {
		f.Temporal = true
		f.Time = a.Time.Depth
	}
	f.Args = make([]string, len(a.Args))
	for i, s := range a.Args {
		f.Args[i] = s.Name
	}
	return f
}

// Atom converts the fact back to a ground atom.
func (f Fact) Atom() Atom {
	a := Atom{Pred: f.Pred}
	if f.Temporal {
		a.Time = &TemporalTerm{Depth: f.Time}
	}
	a.Args = make([]Symbol, len(f.Args))
	for i, c := range f.Args {
		a.Args[i] = Const(c)
	}
	return a
}

func (f Fact) String() string { return f.Atom().String() }

// SortFacts orders facts deterministically: non-temporal before temporal,
// then by predicate, time, and arguments. It is used by pretty-printers and
// tests that need stable output.
func SortFacts(fs []Fact) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Temporal != b.Temporal {
			return !a.Temporal
		}
		if a.Pred != b.Pred {
			return a.Pred < b.Pred
		}
		if a.Temporal && a.Time != b.Time {
			return a.Time < b.Time
		}
		if len(a.Args) != len(b.Args) {
			return len(a.Args) < len(b.Args)
		}
		for k := range a.Args {
			if a.Args[k] != b.Args[k] {
				return a.Args[k] < b.Args[k]
			}
		}
		return false
	})
}
