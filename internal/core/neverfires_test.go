package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"tdd/internal/ast"
	"tdd/internal/baseline"
	"tdd/internal/parser"
	"tdd/internal/randgen"
)

// lineageSrc has one never-firing rule: p holds at even times only and r
// at 1, so q's body never matches — until r(2) is asserted.
const lineageSrc = "p(T+2) :- p(T).\nq(T+1) :- p(T), r(T).\np(0).\nr(1).\n"

// TestNeverFiresLineage pins TDL004 along an Assert lineage: the parent
// reports the rule, a fork that makes its body match does not, and the
// parent, whose counters the fork's growth does not touch, still does.
func TestNeverFiresLineage(t *testing.T) {
	neverFires := func(b *BT) []int {
		var out []int
		for _, d := range b.Lint(lineageSrc).Diagnostics {
			if d.Code == "TDL004" {
				out = append(out, d.RuleIdx)
			}
		}
		return out
	}
	b := mustBT(t, lineageSrc)
	if got := neverFires(b); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("parent: TDL004 on rules %v, want [1]", got)
	}
	nb, _, err := b.Assert([]ast.Fact{tfact("r", 2)})
	if err != nil {
		t.Fatal(err)
	}
	if got := neverFires(nb); got != nil {
		t.Fatalf("fork after r(2): TDL004 on rules %v, want none", got)
	}
	if got := neverFires(b); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("parent after the fork: TDL004 on rules %v, want [1]", got)
	}
}

// TestNeverFiresExact checks TDL004 against the naive T_P reference.
// Over 300 random programs, each opened fresh and also grown by an
// Assert lineage (half the facts at open, the other half asserted once
// the parent is certified and linted), the rules TDL004 flags must be
// exactly the rules that have a body, are not flagged TDL003, and that
// naive T_P over [0, b+p+span] never instantiates (b+p the certified
// base plus period, span the rules' deepest temporal term). TDL004 reads
// only the certified window, so this is the coverage lemma at
// period.Lookback checked against a window that reaches past it.
func TestNeverFiresExact(t *testing.T) {
	const (
		trials    = 300
		maxWindow = 1024
	)
	// Crafted first, two programs over a 14-cycle of next facts. flag's
	// only instantiations read q at times 22, 36, ..., so the rule fires
	// only in a window past 22; the certificate width counts flag's depth
	// 9 (period.Lookback) to reach them. never, whose head and body both
	// sit at depth 9, certifies (b=1, p=14) at window 22, short of
	// b+p+span = 24.
	var next, parity strings.Builder
	for i := 0; i < 14; i++ {
		fmt.Fprintf(&next, "next(c%d, c%d).\n", i, (i+1)%14)
		fmt.Fprintf(&parity, "%s(c%d).\n", [2]string{"even", "odd"}[i%2], i)
	}
	deep := "q(T+1, Y) :- q(T, X), next(X, Y).\nflag(X) :- q(T+9, X), special(X).\nq(0, c0).\nspecial(c8).\n" + next.String()
	never := "step(T+1, Y) :- step(T, X), next(X, Y).\nnever(T+9) :- step(T+9, X), odd(X), even(X).\nstep(0, c0).\n" + next.String() + parity.String()
	for _, src := range []string{deep, never, lineageSrc} {
		prog, db, err := parser.ParseUnit(src)
		if err != nil {
			t.Fatal(err)
		}
		b, err := New(prog.Clone(), db.Clone(), WithMaxWindow(maxWindow))
		if err != nil {
			t.Fatal(err)
		}
		matchNaive(t, "crafted", b, prog, db)
	}
	flagged := 0
	for seed := int64(0); seed < trials; seed++ {
		rng := rand.New(rand.NewSource(seed))
		opts := randgen.Default()
		opts.NonTemporalHeads = seed%2 == 1
		g := randgen.New(rng, opts)
		prog, err := g.Program(rng)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		db, err := g.Database(rng)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fresh, err := New(prog.Clone(), db.Clone(), WithMaxWindow(maxWindow))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		flagged += matchNaive(t, fmt.Sprintf("seed %d fresh", seed), fresh, prog, db)

		half := len(db.Facts) / 2
		first, err := ast.NewDatabase(append([]ast.Fact(nil), db.Facts[:half]...))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		parent, err := New(prog.Clone(), first, WithMaxWindow(maxWindow))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		parent.Lint("")
		fork, _, err := parent.Assert(db.Facts[half:])
		if err != nil {
			continue // the union is not certifiable within the budget
		}
		flagged += matchNaive(t, fmt.Sprintf("seed %d lineage", seed), fork, prog, db)
	}
	if flagged == 0 {
		t.Fatal("no trial flagged TDL004; the check is vacuous")
	}
	t.Logf("%d of %d lints flagged TDL004", flagged, 2*trials)
}

// matchNaive lints b, whose facts are db's, and compares its TDL004
// rules with the naive reference's unfired rules. Reports 1 when some
// rule was flagged.
func matchNaive(t *testing.T, label string, b *BT, prog *ast.Program, db *ast.Database) int {
	t.Helper()
	res := b.Lint("")
	var got []int
	dead := make(map[int]bool)
	for _, d := range res.Diagnostics {
		switch d.Code {
		case "TDL004":
			got = append(got, d.RuleIdx)
		case "TDL003":
			dead[d.RuleIdx] = true
		}
	}
	var want []int
	if s, err := b.Specification(); err == nil && len(db.Facts) > 0 {
		span := 0
		for _, r := range prog.Rules {
			if d := r.MaxDepth(); d > span {
				span = d
			}
		}
		_, st, err := baseline.NaiveTP(prog, db, s.Period.Base+s.Period.P+span)
		if err != nil {
			t.Fatalf("%s: naive T_P: %v", label, err)
		}
		for i, r := range prog.Rules {
			if len(r.Body) > 0 && !dead[i] && st.Rules[i] == 0 {
				want = append(want, i)
			}
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: TDL004 flags rules %v, naive T_P never instantiates %v\nprogram:\n%sdb:\n%s", label, got, want, prog, db)
	}
	if len(got) > 0 {
		return 1
	}
	return 0
}
