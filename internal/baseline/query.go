package baseline

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"tdd/internal/ast"
	"tdd/internal/engine"
)

// Structure is a finite structure a temporal query is evaluated in: the
// four methods of query.Structure, declared here so the reference imports
// nothing it is the reference for.
type Structure interface {
	Store() *engine.Store
	TimePoints() int
	NormalizeTime(t int) (rep int, ok bool)
	ConstantDomain() []string
}

// Answers is the reference query evaluator. Instead of query's top-down
// recursion over compiled slots it evaluates bottom-up in
// relational-algebra style — each subformula yields the SET of satisfying
// assignments over its free variables (complementation against the active
// domains gives CWA negation, projection gives exists, division gives
// forall) — and reads the store only through its string surface
// (Store.Has on a rendered fact).
//
// It returns every assignment of q's free variables under which q holds,
// rendered by ast.FormatAnswer, in the order query.Answers promises: free
// temporal variables outermost in name order, ascending, then free
// non-temporal variables in name order over the constant domain. A closed
// query yields one empty answer when true and none when false. The cost is
// |domain|^variables per subformula: keep both small.
func Answers(st Structure, q ast.Query) []string {
	e := &evaluator{st: st, store: st.Store(), cdom: st.ConstantDomain()}
	for t := 0; t < st.TimePoints(); t++ {
		e.tdom = append(e.tdom, strconv.Itoa(t))
	}
	res := e.eval(q)
	var rows [][]string
	for row := range res.rows {
		rows = append(rows, strings.Split(row, "\x00"))
	}
	// res.vars is in name order: compare the temporal columns, then the
	// non-temporal ones.
	sort.Slice(rows, func(a, b int) bool {
		for _, temporal := range []bool{true, false} {
			for i, v := range res.vars {
				if x, y := rows[a][i], rows[b][i]; v.temporal == temporal && x != y {
					if temporal {
						return atoi(x) < atoi(y)
					}
					return x < y
				}
			}
		}
		return false
	})
	out := make([]string, len(rows))
	for r, row := range rows {
		tv, nv := map[string]int{}, map[string]string{}
		for i, v := range res.vars {
			if v.temporal {
				tv[v.name] = atoi(row[i])
			} else {
				nv[v.name] = row[i]
			}
		}
		out[r] = ast.FormatAnswer(tv, nv)
	}
	return out
}

// Holds reports whether the closed query q holds in st.
func Holds(st Structure, q ast.Query) bool { return len(Answers(st, q)) == 1 }

type variable struct {
	name     string
	temporal bool
}

// relation is a set of assignments over vars (sorted by name), each
// encoded as its values joined by NUL.
type relation struct {
	vars []variable
	rows map[string]bool
}

// has tests whether the projection of asg onto r's variables is in r.
func (r relation) has(asg map[string]string) bool {
	vals := make([]string, len(r.vars))
	for i, v := range r.vars {
		vals[i] = asg[v.name]
	}
	return r.rows[strings.Join(vals, "\x00")]
}

func atoi(s string) int {
	n, _ := strconv.Atoi(s)
	return n
}

type evaluator struct {
	st         Structure
	store      *engine.Store
	tdom, cdom []string
}

func (e *evaluator) domain(temporal bool) []string {
	if temporal {
		return e.tdom
	}
	return e.cdom
}

// eval returns the relation of q: every assignment of its free variables,
// over the domains of their sorts, that satisfies it.
func (e *evaluator) eval(q ast.Query) relation {
	tv, nv := ast.FreeVars(q)
	var vars []variable
	for _, v := range tv {
		vars = append(vars, variable{name: v, temporal: true})
	}
	for _, v := range nv {
		vars = append(vars, variable{name: v})
	}
	sort.Slice(vars, func(i, j int) bool { return vars[i].name < vars[j].name })

	var holds func(asg map[string]string) bool
	switch q := q.(type) {
	case ast.QAtom:
		holds = func(asg map[string]string) bool {
			f := ast.Fact{Pred: q.Atom.Pred}
			for _, s := range q.Atom.Args {
				if s.IsVar {
					f.Args = append(f.Args, asg[s.Name])
				} else {
					f.Args = append(f.Args, s.Name)
				}
			}
			if t := q.Atom.Time; t != nil {
				f.Temporal, f.Time = true, t.Depth
				if !t.Ground() {
					f.Time += atoi(asg[t.Var])
				}
				var ok bool
				if f.Time, ok = e.st.NormalizeTime(f.Time); !ok {
					return false
				}
			}
			return e.store.Has(f)
		}
	case ast.QNot:
		sub := e.eval(q.Sub)
		holds = func(asg map[string]string) bool { return !sub.has(asg) }
	case ast.QAnd:
		l, r := e.eval(q.Left), e.eval(q.Right)
		holds = func(asg map[string]string) bool { return l.has(asg) && r.has(asg) }
	case ast.QOr:
		l, r := e.eval(q.Left), e.eval(q.Right)
		holds = func(asg map[string]string) bool { return l.has(asg) || r.has(asg) }
	case ast.QExists:
		sub := e.eval(q.Sub)
		holds = func(asg map[string]string) bool { return e.quantify(sub, asg, q.Var, q.Sort, false) }
	case ast.QForall:
		sub := e.eval(q.Sub)
		holds = func(asg map[string]string) bool { return e.quantify(sub, asg, q.Var, q.Sort, true) }
	default:
		panic(fmt.Sprintf("baseline: unknown query node %T", q))
	}

	out := relation{vars: vars, rows: map[string]bool{}}
	vals := make([]string, len(vars))
	var rec func(i int)
	rec = func(i int) {
		if i < len(vars) {
			for _, d := range e.domain(vars[i].temporal) {
				vals[i] = d
				rec(i + 1)
			}
			return
		}
		asg := make(map[string]string, len(vars)+1)
		for j, v := range vars {
			asg[v.name] = vals[j]
		}
		if holds(asg) {
			out.rows[strings.Join(vals, "\x00")] = true
		}
	}
	rec(0)
	return out
}

// quantify decides ∃ (forall false) or ∀ (forall true) x of sort s over
// sub, under asg.
func (e *evaluator) quantify(sub relation, asg map[string]string, x string, s ast.Sort, forall bool) bool {
	for _, d := range e.domain(s == ast.SortTemporal) {
		asg[x] = d
		if sub.has(asg) != forall {
			return !forall
		}
	}
	return forall
}
