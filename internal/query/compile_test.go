package query

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"tdd/internal/ast"
)

// ASTs the parser cannot produce are reachable through the Go API; they
// come back as errors from the compile step, never as a panic mid-way
// through an evaluation.
func TestCompileRejectsMalformedAST(t *testing.T) {
	f := setup(t, skiSrc)
	winterV := ast.QAtom{Atom: ast.TemporalAtom("winter", ast.TemporalTerm{Var: "V"})}
	resortV := ast.QAtom{Atom: ast.NonTemporalAtom("resort", ast.Var("V"))}
	for name, tc := range map[string]struct {
		q    ast.Query
		want string
	}{
		// ast.FreeVars calls both closed (the quantifier binds the name),
		// yet no binding of the sort the atom needs exists.
		"unbound variable":          {ast.QExists{Var: "V", Sort: ast.SortTemporal, Sub: ast.QAnd{Left: winterV, Right: resortV}}, "unbound variable V"},
		"unbound temporal variable": {ast.QForall{Var: "V", Sort: ast.SortNonTemporal, Sub: ast.QOr{Left: resortV, Right: winterV}}, "unbound temporal variable V"},
		"unknown node":              {ast.QNot{Sub: nil}, "unknown node"},
		"nil query":                 {nil, "unknown node"},
	} {
		if _, err := Eval(f.s, tc.q); err == nil || !strings.Contains(err.Error(), tc.want) || errors.Is(err, ErrOpenQuery) {
			t.Errorf("%s: Eval error = %v, want one mentioning %q", name, err, tc.want)
		}
		if ans, err := AnswersLimit(f.s, tc.q, 3); err == nil || ans != nil {
			t.Errorf("%s: AnswersLimit = %v, %v, want an error", name, ans, err)
		}
	}
}

// The compiled form reports the free variables ast.FreeVars computes.
func TestCompiledFreeVars(t *testing.T) {
	f := setup(t, skiSrc)
	for _, src := range []string{
		"plane(0, hunter)",
		"plane(T, X)",
		"exists T plane(T, X)",
		"winter(T) & exists T (holiday(T) & plane(T, X))",
		"plane(B, Y) & plane(A, X) & exists A winter(A)",
		"forall X (resort(X) | exists T plane(T, X))",
	} {
		q := f.query(t, src)
		c, err := Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		tv, nv := c.FreeVars()
		wantT, wantN := ast.FreeVars(q)
		if fmt.Sprint(tv, nv) != fmt.Sprint(wantT, wantN) || c.Closed() != ast.Closed(q) {
			t.Errorf("%q: FreeVars = %v %v closed=%v, ast says %v %v", src, tv, nv, c.Closed(), wantT, wantN)
		}
	}
}

// seasons is a model whose specification has n representatives.
func seasons(n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "winter(T+%d) :- winter(T).\noffseason(T+%d) :- offseason(T).\nresort(hunter).\n", n, n)
	for t := 0; t < n; t++ {
		if t < 4 {
			fmt.Fprintf(&b, "winter(%d). ", t)
		} else {
			fmt.Fprintf(&b, "offseason(%d). ", t)
		}
	}
	return b.String()
}

// A closed query allocates its compiled form and one evaluation's
// scratch — a count that does not depend on |T| (the string evaluator
// allocated a domain slice per quantifier and an argument slice per
// probe: about 2 300 allocations for this query on the benchmark's ski
// specification). A ground atom allocates nothing at all.
func TestAllocBudgetClosedQuery(t *testing.T) {
	counts := map[int]float64{}
	for _, n := range []int{10, 400} {
		f := setup(t, seasons(n))
		if f.s.TimePoints() < n {
			t.Fatalf("seasons(%d) has %d representatives", n, f.s.TimePoints())
		}
		q := f.query(t, "forall T (winter(T) | offseason(T))")
		counts[n] = testing.AllocsPerRun(50, func() {
			if ok, err := Eval(f.s, q); err != nil || !ok {
				t.Fatalf("Eval = %v, %v", ok, err)
			}
		})
		ground := f.query(t, "winter(1000003)")
		if a := testing.AllocsPerRun(50, func() {
			if _, err := Eval(f.s, ground); err != nil {
				t.Fatal(err)
			}
		}); a != 0 {
			t.Errorf("n=%d: a ground ask allocates %.0f times, want 0", n, a)
		}
	}
	if counts[10] != counts[400] || counts[10] > 16 {
		t.Errorf("allocations per closed ask: %.0f at |T|=10, %.0f at |T|=400; want equal and <= 16", counts[10], counts[400])
	}
}

// An open query allocates two objects per answer — the one map a bound
// sort needs, header and bucket — plus a scratch that does not grow with
// the answers. A sort without free variables gets no map (three objects
// per answer before: the empty map was a third of them), and the answers
// themselves are allocated once, at their final count.
func TestAllocBudgetOpenQuery(t *testing.T) {
	f := setup(t, seasons(400))
	q := f.query(t, "offseason(T)")
	var ans []Answer
	allocs := testing.AllocsPerRun(20, func() {
		var err error
		if ans, err = Answers(f.s, q); err != nil {
			t.Fatal(err)
		}
	})
	if len(ans) < 396 {
		t.Fatalf("%d answers, want at least the 396 of one period", len(ans))
	}
	if max := float64(2*len(ans) + 32); allocs > max {
		t.Errorf("%d answers allocate %.0f times, want <= %.0f", len(ans), allocs, max)
	}
	for _, a := range ans {
		if len(a.Temporal) != 1 || a.NonTemporal != nil {
			t.Fatalf("answer %v: want one temporal binding and no non-temporal map", a)
		}
	}
	for _, src := range []string{"winter(0)", "exists T winter(T)"} {
		ans, err := Answers(f.s, f.query(t, src))
		if err != nil || len(ans) != 1 || ans[0].Temporal != nil || ans[0].NonTemporal != nil {
			t.Errorf("%s: Answers = %#v, %v; want one answer without bindings", src, ans, err)
		}
	}
}
