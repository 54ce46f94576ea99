package ast

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// PredInfo records the signature of a predicate as used by a program or
// database: whether it is temporal and how many non-temporal arguments it
// takes (the temporal argument is not counted in Arity).
type PredInfo struct {
	Name     string
	Temporal bool
	Arity    int
}

func (p PredInfo) String() string {
	kind := "non-temporal"
	if p.Temporal {
		kind = "temporal"
	}
	return fmt.Sprintf("%s/%d (%s)", p.Name, p.Arity, kind)
}

// SignatureKey renders a signature map canonically: per predicate, sorted
// by name, the map key (quoted), its arity and its sort. It is what a
// query typed against the map reads of it, so two maps with equal keys
// type every query text alike. Name is left out: typing reads the key.
func SignatureKey(preds map[string]PredInfo) string {
	names := make([]string, 0, len(preds))
	for name := range preds {
		names = append(names, name)
	}
	sort.Strings(names)
	var b []byte
	for _, name := range names {
		info := preds[name]
		b = strconv.AppendQuote(b, name)
		b = append(b, '/')
		b = strconv.AppendInt(b, int64(info.Arity), 10)
		if info.Temporal {
			b = append(b, 't')
		} else {
			b = append(b, 'n')
		}
	}
	return string(b)
}

// Program is a finite set of temporal rules together with the predicate
// signatures they induce.
type Program struct {
	Rules []Rule
	Preds map[string]PredInfo
}

// NewProgram builds a program from rules, inferring predicate signatures.
// It returns an error if a predicate is used inconsistently (different
// arities, or temporal in one literal and non-temporal in another).
func NewProgram(rules []Rule) (*Program, error) {
	p := &Program{Rules: rules, Preds: make(map[string]PredInfo)}
	for _, r := range rules {
		for k := 0; k <= len(r.Body); k++ {
			a := r.AtomAt(k)
			if err := p.note(*a); err != nil {
				return nil, err
			}
		}
	}
	return p, nil
}

// note records the signature of atom a, checking consistency with
// previously seen uses.
func (p *Program) note(a Atom) error {
	info := PredInfo{Name: a.Pred, Temporal: a.Time != nil, Arity: len(a.Args)}
	prev, ok := p.Preds[a.Pred]
	if !ok {
		p.Preds[a.Pred] = info
		return nil
	}
	if prev != info {
		return fmt.Errorf("ast: inconsistent use of predicate %s: %v vs %v", a.Pred, prev, info)
	}
	return nil
}

// Clone returns a deep copy of the program.
func (p *Program) Clone() *Program {
	c := &Program{Rules: make([]Rule, len(p.Rules)), Preds: make(map[string]PredInfo, len(p.Preds))}
	for i, r := range p.Rules {
		c.Rules[i] = r.Clone()
	}
	for k, v := range p.Preds {
		c.Preds[k] = v
	}
	return c
}

func (p *Program) String() string {
	var b strings.Builder
	for _, r := range p.Rules {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Derived returns the names of the predicates derived by the program, i.e.
// appearing in the head of some rule, in sorted order.
func (p *Program) Derived() []string {
	set := make(map[string]bool)
	for _, r := range p.Rules {
		set[r.Head.Pred] = true
	}
	out := make([]string, 0, len(set))
	for name := range set {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// DerivedSet returns the derived predicates as a set.
func (p *Program) DerivedSet() map[string]bool {
	set := make(map[string]bool)
	for _, r := range p.Rules {
		set[r.Head.Pred] = true
	}
	return set
}

// EDB returns the names of predicates that occur only in rule bodies
// (extensional predicates), in sorted order.
func (p *Program) EDB() []string {
	derived := p.DerivedSet()
	var out []string
	for name := range p.Preds {
		if !derived[name] {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Lookback returns g, the number of preceding states a state of the least
// model can depend on: the maximum over shift-normalized rules of the
// head's temporal depth (at least 1 when the program has any temporal
// rule). It is the block size used when comparing states of semi-normal
// rule sets (Section 3.2 redefines periodicity over g subsequent states).
func (p *Program) Lookback() int {
	g := 0
	temporal := false
	for _, r := range p.Rules {
		if r.MinDepth() < 0 {
			continue
		}
		temporal = true
		s := r.ShiftNormalize()
		if s.Head.Time != nil && !s.Head.Time.Ground() && s.Head.Time.Depth > g {
			g = s.Head.Time.Depth
		}
	}
	if temporal && g < 1 {
		g = 1
	}
	return g
}

// Database is a finite temporal database: a set of ground temporal and
// non-temporal facts.
type Database struct {
	Facts []Fact
	Preds map[string]PredInfo
}

// NewDatabase builds a database from facts, inferring and checking
// predicate signatures for internal consistency.
func NewDatabase(facts []Fact) (*Database, error) {
	d := &Database{Facts: facts, Preds: make(map[string]PredInfo)}
	for _, f := range facts {
		info := PredInfo{Name: f.Pred, Temporal: f.Temporal, Arity: len(f.Args)}
		prev, ok := d.Preds[f.Pred]
		if !ok {
			d.Preds[f.Pred] = info
			continue
		}
		if prev != info {
			return nil, fmt.Errorf("ast: inconsistent use of predicate %s in database: %v vs %v", f.Pred, prev, info)
		}
	}
	return d, nil
}

// Clone returns a copy of the database whose fact list and signature map
// can grow independently of the original. Facts themselves are shared:
// they are immutable once built.
func (d *Database) Clone() *Database {
	c := &Database{
		Facts: append(make([]Fact, 0, len(d.Facts)), d.Facts...),
		Preds: make(map[string]PredInfo, len(d.Preds)),
	}
	for k, v := range d.Preds {
		c.Preds[k] = v
	}
	return c
}

// MaxDepth returns c, the maximum depth of a temporal term in the database
// (0 for a database with no temporal facts). The paper measures database
// size as max(n, c) with temporal terms encoded in unary.
func (d *Database) MaxDepth() int {
	c := 0
	for _, f := range d.Facts {
		if f.Temporal && f.Time > c {
			c = f.Time
		}
	}
	return c
}

// Size returns the paper's database size measure max(n, c) where n is the
// number of tuples and c the maximum temporal depth.
func (d *Database) Size() int {
	n := len(d.Facts)
	if c := d.MaxDepth(); c > n {
		return c
	}
	return n
}

// Constants returns the non-temporal constants appearing in the database,
// sorted.
func (d *Database) Constants() []string {
	set := make(map[string]bool)
	for _, f := range d.Facts {
		for _, c := range f.Args {
			set[c] = true
		}
	}
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

func (d *Database) String() string {
	fs := append([]Fact(nil), d.Facts...)
	SortFacts(fs)
	var b strings.Builder
	for _, f := range fs {
		b.WriteString(f.String())
		b.WriteString(".\n")
	}
	return b.String()
}

// CheckAgainst verifies that the database's predicate signatures are
// consistent with the program's.
func (d *Database) CheckAgainst(p *Program) error {
	for name, info := range d.Preds {
		if prev, ok := p.Preds[name]; ok && prev != info {
			return fmt.Errorf("ast: predicate %s used as %v in program but %v in database", name, prev, info)
		}
	}
	return nil
}
