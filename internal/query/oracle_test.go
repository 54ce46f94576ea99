package query

// An independent oracle for the query evaluator: instead of top-down
// recursion with an environment, evaluate bottom-up in relational-algebra
// style — each subformula yields the SET of satisfying assignments over
// its free variables (complementation against the active domains gives
// CWA negation, projection gives exists, division gives forall). The two
// strategies share no code; differential tests run them against random
// queries including negation and universal quantifiers. The oracle reads
// a structure through the store's string surface (Store.Has on a rendered
// fact), never through the id-level probes the evaluator compiles to.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"tdd/internal/ast"
	"tdd/internal/parser"
	"tdd/internal/spec"
)

// vars is a sorted list of variable names with sorts.
type ovar struct {
	name     string
	temporal bool
}

type oset struct {
	vars []ovar
	rows map[string]bool // canonical encoding of assignments
}

func encode(vals []string) string { return strings.Join(vals, "\x00") }

func (s oset) project(keep []ovar) oset {
	idx := make([]int, len(keep))
	for i, k := range keep {
		idx[i] = -1
		for j, v := range s.vars {
			if v == k {
				idx[i] = j
			}
		}
		if idx[i] < 0 {
			panic("oracle: projecting onto a missing variable")
		}
	}
	out := oset{vars: keep, rows: map[string]bool{}}
	for row := range s.rows {
		parts := strings.Split(row, "\x00")
		if len(s.vars) == 0 {
			parts = nil
		}
		vals := make([]string, len(keep))
		for i, j := range idx {
			vals[i] = parts[j]
		}
		out.rows[encode(vals)] = true
	}
	return out
}

// oracle evaluates q bottom-up over structure st.
func oracle(st Structure, q ast.Query) oset {
	store := st.Store()
	tdom := make([]string, st.TimePoints())
	for t := range tdom {
		tdom[t] = fmt.Sprintf("%d", t)
	}
	cdom := st.ConstantDomain()
	domainOf := func(v ovar) []string {
		if v.temporal {
			return tdom
		}
		return cdom
	}
	holds := func(f ast.Fact) bool {
		if f.Temporal {
			var ok bool
			if f.Time, ok = st.NormalizeTime(f.Time); !ok {
				return false
			}
		}
		return store.Has(f)
	}
	// all enumerates every assignment over vars, calling f with the values.
	var all func(vars []ovar, f func(vals []string))
	all = func(vars []ovar, f func(vals []string)) {
		if len(vars) == 0 {
			f(nil)
			return
		}
		var rec func(i int, acc []string)
		rec = func(i int, acc []string) {
			if i == len(vars) {
				f(append([]string(nil), acc...))
				return
			}
			for _, d := range domainOf(vars[i]) {
				rec(i+1, append(acc, d))
			}
		}
		rec(0, nil)
	}
	freeOf := func(q ast.Query) []ovar {
		tv, nv := ast.FreeVars(q)
		var out []ovar
		for _, v := range tv {
			out = append(out, ovar{name: v, temporal: true})
		}
		for _, v := range nv {
			out = append(out, ovar{name: v})
		}
		sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
		return out
	}
	// holds evaluates q under a total assignment of its free variables.
	var eval func(q ast.Query) oset
	eval = func(q ast.Query) oset {
		vars := freeOf(q)
		out := oset{vars: vars, rows: map[string]bool{}}
		switch q := q.(type) {
		case ast.QAtom:
			all(vars, func(vals []string) {
				f := ast.Fact{Pred: q.Atom.Pred}
				lookup := func(name string) string {
					for i, v := range vars {
						if v.name == name {
							return vals[i]
						}
					}
					panic("oracle: unbound " + name)
				}
				if q.Atom.Time != nil {
					f.Temporal = true
					if q.Atom.Time.Ground() {
						f.Time = q.Atom.Time.Depth
					} else {
						var t int
						fmt.Sscanf(lookup(q.Atom.Time.Var), "%d", &t)
						f.Time = t + q.Atom.Time.Depth
					}
				}
				for _, s := range q.Atom.Args {
					if s.IsVar {
						f.Args = append(f.Args, lookup(s.Name))
					} else {
						f.Args = append(f.Args, s.Name)
					}
				}
				if holds(f) {
					out.rows[encode(vals)] = true
				}
			})
		case ast.QNot:
			sub := eval(q.Sub)
			all(vars, func(vals []string) {
				if !sub.rows[encode(vals)] {
					out.rows[encode(vals)] = true
				}
			})
		case ast.QAnd, ast.QOr:
			var l, r ast.Query
			and := false
			if a, ok := q.(ast.QAnd); ok {
				l, r, and = a.Left, a.Right, true
			} else {
				o := q.(ast.QOr)
				l, r = o.Left, o.Right
			}
			ls, rs := eval(l), eval(r)
			all(vars, func(vals []string) {
				asg := map[string]string{}
				for i, v := range vars {
					asg[v.name] = vals[i]
				}
				inL := member(ls, asg)
				inR := member(rs, asg)
				if (and && inL && inR) || (!and && (inL || inR)) {
					out.rows[encode(vals)] = true
				}
			})
		case ast.QExists:
			sub := eval(q.Sub)
			all(vars, func(vals []string) {
				asg := map[string]string{}
				for i, v := range vars {
					asg[v.name] = vals[i]
				}
				found := false
				for _, d := range domainOf(ovar{name: q.Var, temporal: q.Sort == ast.SortTemporal}) {
					asg[q.Var] = d
					if member(sub, asg) {
						found = true
						break
					}
				}
				if found {
					out.rows[encode(vals)] = true
				}
			})
		case ast.QForall:
			sub := eval(q.Sub)
			all(vars, func(vals []string) {
				asg := map[string]string{}
				for i, v := range vars {
					asg[v.name] = vals[i]
				}
				ok := true
				for _, d := range domainOf(ovar{name: q.Var, temporal: q.Sort == ast.SortTemporal}) {
					asg[q.Var] = d
					if !member(sub, asg) {
						ok = false
						break
					}
				}
				if ok {
					out.rows[encode(vals)] = true
				}
			})
		}
		return out
	}
	return eval(q)
}

// member tests whether the projection of asg onto s.vars is in s. A
// variable absent from asg cannot occur (freeness bookkeeping guarantees
// it).
func member(s oset, asg map[string]string) bool {
	vals := make([]string, len(s.vars))
	for i, v := range s.vars {
		val, ok := asg[v.name]
		if !ok {
			panic("oracle: assignment missing " + v.name)
		}
		vals[i] = val
	}
	return s.rows[encode(vals)]
}

// substituted is a structure with its constant domain replaced — what
// tdd's sliced ask evaluates in (a sliced specification quantifying over
// the full database's constants).
type substituted struct {
	Structure
	consts []string
}

func (s substituted) ConstantDomain() []string { return s.consts }

// structures returns the four implementers of Structure over one ski
// model: the computed specification, its Export→Import round trip, a
// window short enough that T+1 runs off its end, and a structure whose
// substituted constant domain names a constant the store has never seen.
func structures(t testing.TB, f fixture) map[string]Structure {
	t.Helper()
	data, err := f.s.Export(f.preds)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := spec.Import(data)
	if err != nil {
		t.Fatal(err)
	}
	consts := append([]string{"aspen"}, f.s.ConstantDomain()...)
	sort.Strings(consts)
	return map[string]Structure{
		"spec":   f.s,
		"loaded": loaded,
		"window": Window{Eval: f.eval, M: 12},
		"sliced": substituted{Structure: f.s, consts: consts},
	}
}

// answerKeys renders answers the way the oracle encodes its rows.
func answerKeys(vars []ovar, ans []Answer) map[string]bool {
	out := map[string]bool{}
	for _, a := range ans {
		vals := make([]string, len(vars))
		for i, v := range vars {
			if v.temporal {
				vals[i] = fmt.Sprintf("%d", a.Temporal[v.name])
			} else {
				vals[i] = a.NonTemporal[v.name]
			}
		}
		out[encode(vals)] = true
	}
	return out
}

func TestOracleAgreesOnHandwrittenQueries(t *testing.T) {
	f := setup(t, skiSrc)
	for name, st := range structures(t, f) {
		for _, src := range []string{
			"plane(0, hunter)",
			"plane(3, hunter)",
			"exists T (plane(T, hunter) & winter(T))",
			"forall T (winter(T) | holiday(T) | offseason(T))",
			"forall X (!resort(X) | exists T plane(T, X))",
			"!(winter(3) & holiday(3))",
			"exists X (resort(X) & !plane(1, X))",
			"forall T exists X (plane(T, X) | !plane(T, X))", // tautology
			// Shadowing: the inner quantifier has its own binding, and
			// the outer one is intact after it.
			"exists T (holiday(T) & (exists T (plane(T, hunter) & offseason(T))) & plane(T, hunter))",
			"forall T (winter(T) | exists T (offseason(T) & !winter(T)))",
			"exists X (resort(X) & forall X (resort(X) | !plane(0, X)))",
			// Names the store has never seen are constant-false atoms.
			"nosuch(3)",
			"!nosuch(3, hunter)",
			"exists T (winter(T) & !nosuch(T))",
			"resort(zermatt)",
			"forall T !plane(T, zermatt)",
			"exists X (ghost(X) | resort(X))",
			// These differ between the plain and the substituted domain.
			"forall X resort(X)",
			"exists X !resort(X)",
			"forall X (resort(X) | !exists T plane(T+1, X))",
		} {
			q := f.query(t, src)
			want, err := Eval(st, q)
			if err != nil {
				t.Fatal(err)
			}
			got := len(oracle(st, q).rows) == 1
			if got != want {
				t.Errorf("%s: %q: oracle=%v eval=%v", name, src, got, want)
			}
		}
	}
	// The substituted constant is in no fact, yet it counts under ∀ and ¬.
	sliced := structures(t, f)["sliced"]
	for src, want := range map[string]bool{"forall X resort(X)": false, "exists X !resort(X)": true} {
		if got, err := Eval(sliced, f.query(t, src)); err != nil || got != want {
			t.Errorf("sliced: %q = %v, %v; want %v", src, got, err, want)
		}
		if got, err := Eval(f.s, f.query(t, src)); err != nil || got == want {
			t.Errorf("spec: %q = %v, %v; want %v", src, got, err, !want)
		}
	}
}

func TestOracleAgreesOnOpenQueries(t *testing.T) {
	f := setup(t, skiSrc)
	for name, st := range structures(t, f) {
		for _, src := range []string{
			"plane(T, X)",
			"plane(T, hunter) & winter(T)",
			"resort(X) & !plane(0, X)",
			"!resort(X)",
			"winter(T) & exists T (holiday(T) & plane(T, X))", // T free outside, bound inside
			"plane(T+1, X) & !nosuch(T)",
			"plane(T, zermatt)",
		} {
			q := f.query(t, src)
			ans, err := Answers(st, q)
			if err != nil {
				t.Fatal(err)
			}
			want := oracle(st, q)
			got := answerKeys(want.vars, ans)
			if len(got) != len(ans) {
				t.Errorf("%s: %q: %d answers, %d distinct", name, src, len(ans), len(got))
			}
			if len(got) != len(want.rows) {
				t.Errorf("%s: %q: oracle %d answers, Answers %d", name, src, len(want.rows), len(got))
			}
			for k := range got {
				if !want.rows[k] {
					t.Errorf("%s: %q: answer %q not in the oracle's set", name, src, k)
				}
			}
		}
	}
}

// randomQuery builds a random formula of the given depth over the ski
// predicates. Atoms draw their variables from scope; quantified variables
// get fresh names, except that one quantifier in four reuses (shadows) a
// name already in scope.
func randomQuery(rng *rand.Rand, prog *ast.Program, depth int, scope []ovar) ast.Query {
	names := []string{"plane", "winter", "holiday", "offseason", "resort"}
	pick := func(temporal bool) string {
		var vs []string
		for _, v := range scope {
			if v.temporal == temporal {
				vs = append(vs, v.name)
			}
		}
		if len(vs) == 0 || rng.Intn(2) == 0 {
			return ""
		}
		return vs[rng.Intn(len(vs))]
	}
	if depth == 0 {
		name := names[rng.Intn(len(names))]
		info := prog.Preds[name]
		a := ast.Atom{Pred: name}
		if info.Temporal {
			if tv := pick(true); tv != "" {
				a.Time = &ast.TemporalTerm{Var: tv, Depth: rng.Intn(2)}
			} else {
				a.Time = &ast.TemporalTerm{Depth: rng.Intn(15)}
			}
		}
		for i := 0; i < info.Arity; i++ {
			if cv := pick(false); cv != "" {
				a.Args = append(a.Args, ast.Var(cv))
			} else {
				a.Args = append(a.Args, ast.Const("hunter"))
			}
		}
		return ast.QAtom{Atom: a}
	}
	sub := func(scope []ovar) ast.Query { return randomQuery(rng, prog, depth-1, scope) }
	bind := func(temporal bool) ovar {
		v := ovar{name: fmt.Sprintf("X%d", len(scope)), temporal: temporal}
		if temporal {
			v.name = fmt.Sprintf("T%d", len(scope))
		}
		if shadowed := pick(temporal); shadowed != "" && rng.Intn(2) == 0 {
			v.name = shadowed
		}
		return v
	}
	switch rng.Intn(6) {
	case 0:
		return ast.QAnd{Left: sub(scope), Right: sub(scope)}
	case 1:
		return ast.QOr{Left: sub(scope), Right: sub(scope)}
	case 2:
		return ast.QNot{Sub: sub(scope)}
	case 3:
		v := bind(true)
		return ast.QExists{Var: v.name, Sort: ast.SortTemporal, Sub: forceUse(sub(append(scope, v)), v)}
	case 4:
		v := bind(false)
		return ast.QExists{Var: v.name, Sort: ast.SortNonTemporal, Sub: forceUse(sub(append(scope, v)), v)}
	default:
		v := bind(rng.Intn(2) == 0)
		sort := ast.SortNonTemporal
		if v.temporal {
			sort = ast.SortTemporal
		}
		return ast.QForall{Var: v.name, Sort: sort, Sub: forceUse(sub(append(scope, v)), v)}
	}
}

// Random closed queries with negation and both quantifiers at both
// sorts: the two evaluation strategies must agree everywhere, in every
// structure.
func TestOracleAgreesOnRandomQueries(t *testing.T) {
	f := setup(t, skiSrc)
	prog, _, err := parser.ParseUnit(skiSrc)
	if err != nil {
		t.Fatal(err)
	}
	sts := structures(t, f)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 120; i++ {
		q := randomQuery(rng, prog, 1+rng.Intn(3), nil)
		if !ast.Closed(q) {
			t.Fatalf("random query %s is open", q)
		}
		for name, st := range sts {
			want, err := Eval(st, q)
			if err != nil {
				t.Fatal(err)
			}
			got := len(oracle(st, q).rows) == 1
			if got != want {
				t.Fatalf("%s: random query %s: oracle=%v eval=%v", name, q, got, want)
			}
		}
	}
}

// The order of Answers is part of the contract (a limited call is a
// prefix of the unlimited one, and the served /answers pages rely on it):
// free temporal variables outermost in name order, ascending, then free
// non-temporal variables in name order over the sorted constant domain.
func TestAnswersOrderProperty(t *testing.T) {
	f := setup(t, skiSrc)
	prog, _, err := parser.ParseUnit(skiSrc)
	if err != nil {
		t.Fatal(err)
	}
	st := structures(t, f)["sliced"] // two constants, so the inner order shows
	free := []ovar{{name: "A", temporal: true}, {name: "B", temporal: true}, {name: "C"}, {name: "D"}}
	rng := rand.New(rand.NewSource(11))
	open := 0
	for i := 0; i < 80; i++ {
		q := randomQuery(rng, prog, 1+rng.Intn(2), free)
		tv, nv := ast.FreeVars(q)
		if len(tv)+len(nv) == 0 {
			continue
		}
		open++
		all, err := Answers(st, q)
		if err != nil {
			t.Fatal(err)
		}
		want := oracle(st, q)
		if len(all) != len(want.rows) {
			t.Fatalf("%s: %d answers, oracle %d", q, len(all), len(want.rows))
		}
		less := func(a, b Answer) bool {
			for _, v := range tv {
				if a.Temporal[v] != b.Temporal[v] {
					return a.Temporal[v] < b.Temporal[v]
				}
			}
			for _, v := range nv {
				if a.NonTemporal[v] != b.NonTemporal[v] {
					return a.NonTemporal[v] < b.NonTemporal[v]
				}
			}
			return false
		}
		for j := 1; j < len(all); j++ {
			if !less(all[j-1], all[j]) {
				t.Fatalf("%s: answers %d and %d out of order: %v, %v", q, j-1, j, all[j-1], all[j])
			}
		}
		for _, k := range []int{1, 2, len(all)} {
			if k == 0 || k > len(all) {
				continue
			}
			lim, err := AnswersLimit(st, q, k)
			if err != nil {
				t.Fatal(err)
			}
			if len(lim) != k {
				t.Fatalf("%s: limit %d returned %d answers", q, k, len(lim))
			}
			for j := range lim {
				if lim[j].String() != all[j].String() {
					t.Fatalf("%s: limit %d answer %d = %v, unlimited has %v", q, k, j, lim[j], all[j])
				}
			}
		}
	}
	if open < 40 {
		t.Fatalf("only %d of 80 random queries were open", open)
	}
}

// forceUse conjoins a harmless atom mentioning v so quantifiers always
// bind an occurring variable (mirroring the parser's requirement).
func forceUse(q ast.Query, v ovar) ast.Query {
	var atom ast.Atom
	if v.temporal {
		atom = ast.TemporalAtom("winter", ast.TemporalTerm{Var: v.name})
	} else {
		atom = ast.NonTemporalAtom("resort", ast.Var(v.name))
	}
	return ast.QOr{Left: q, Right: ast.QAnd{Left: ast.QAtom{Atom: atom}, Right: ast.QNot{Sub: ast.QAtom{Atom: atom}}}}
}
