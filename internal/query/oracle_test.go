package query

// The evaluator against the reference: baseline.Answers evaluates
// bottom-up in relational-algebra style and shares no code with the
// compiled evaluator. Differential tests run both on handwritten and
// random queries, including negation and universal quantifiers, in every
// implementer of Structure.

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"tdd/internal/ast"
	"tdd/internal/baseline"
	"tdd/internal/parser"
	"tdd/internal/spec"
)

// ovar is a variable in scope of a random query.
type ovar struct {
	name     string
	temporal bool
}

// strs renders answers the way baseline.Answers does.
func strs(ans []Answer) []string {
	out := make([]string, len(ans))
	for i, a := range ans {
		out[i] = a.String()
	}
	return out
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
			if got := baseline.Holds(st, q); got != want {
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
			if got, want := strs(ans), baseline.Answers(st, q); !slices.Equal(got, want) {
				t.Errorf("%s: %q: Answers %q, oracle %q", name, src, got, want)
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
			if got := baseline.Holds(st, q); got != want {
				t.Fatalf("%s: random query %s: oracle=%v eval=%v", name, q, got, want)
			}
		}
	}
}

// The order of Answers is part of the contract (a limited call is a
// prefix of the unlimited one, and the served /answers pages rely on it):
// free temporal variables outermost in name order, ascending, then free
// non-temporal variables in name order over the sorted constant domain —
// the order the oracle lists its answers in.
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
		if ast.Closed(q) {
			continue
		}
		open++
		all, err := Answers(st, q)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := strs(all), baseline.Answers(st, q); !slices.Equal(got, want) {
			t.Fatalf("%s: answers %q, oracle %q", q, got, want)
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
