package progan_test

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"tdd/internal/parser"
	"tdd/internal/progan"
	"tdd/internal/randgen"
)

func analyzeUnit(t *testing.T, src string) *progan.Report {
	t.Helper()
	prog, db, err := parser.ParseUnit(src)
	if err != nil {
		t.Fatal(err)
	}
	return progan.Analyze(prog, db)
}

const layeredSrc = `
q(T+2, X) :- q(T, X), rel(X).
mid(T+1, X) :- q(T, X).
top(T+1, X) :- mid(T, X), q(T, X).
even(T+1) :- odd(T).
odd(T+1) :- even(T).
ghost(T+1, X) :- ghost(T, X), nothing(X).
q(0, a).
rel(a).
even(0).
`

func TestAnalyzeStructure(t *testing.T) {
	r := analyzeUnit(t, layeredSrc)

	// Recursion classes.
	cases := map[string]progan.RecursionClass{
		"q":    progan.SelfRecursive,
		"mid":  progan.NonRecursive,
		"top":  progan.NonRecursive,
		"even": progan.MutualRecursive,
		"odd":  progan.MutualRecursive,
		"rel":  progan.NonRecursive,
	}
	for name, want := range cases {
		n := r.Pred(name)
		if n == nil {
			t.Fatalf("missing predicate %s", name)
		}
		if got := r.SCCs[n.SCC].Recursion; got != want {
			t.Errorf("%s: recursion %s, want %s", name, got, want)
		}
	}
	if evenSCC, oddSCC := r.Pred("even").SCC, r.Pred("odd").SCC; evenSCC != oddSCC {
		t.Errorf("even/odd in different SCCs %d/%d", evenSCC, oddSCC)
	}

	// Reverse topological order: dependencies carry smaller ids.
	if !(r.Pred("q").SCC < r.Pred("mid").SCC && r.Pred("mid").SCC < r.Pred("top").SCC) {
		t.Errorf("SCC ids not in dependency order: q=%d mid=%d top=%d",
			r.Pred("q").SCC, r.Pred("mid").SCC, r.Pred("top").SCC)
	}

	// Base-reachability: ghost depends on the never-asserted `nothing`, so
	// its rule can never fire and the predicate is provably empty.
	if r.Pred("ghost").Populated {
		t.Error("ghost should be unpopulated")
	}
	if r.Pred("nothing").Populated {
		t.Error("nothing should be unpopulated")
	}
	if r.Pred("q").Populated == false || r.Pred("top").Populated == false {
		t.Error("q/top should be populated")
	}
	ghost := r.SCCs[r.Pred("ghost").SCC]
	if ghost.BaseReachable || ghost.AnyPopulated {
		t.Errorf("ghost SCC should be base-unreachable: %+v", ghost)
	}
	for i, can := range r.CanFire {
		head := r.Program().Rules[i].Head.Pred
		if (head == "ghost") == can {
			t.Errorf("rule %d (head %s): CanFire=%v", i, head, can)
		}
	}

	// Temporal depth metadata of the q component: head T+2, body T+0.
	qc := r.SCCs[r.Pred("q").SCC]
	if qc.MaxHeadDepth != 2 || qc.MaxBodyDepth != 0 {
		t.Errorf("q SCC depths head=%d body=%d, want 2/0", qc.MaxHeadDepth, qc.MaxBodyDepth)
	}
}

func TestSliceClosure(t *testing.T) {
	r := analyzeUnit(t, layeredSrc)

	sl := progan.SliceOf(r.Program(), []string{"top"})
	wantPreds := []string{"mid", "q", "rel", "top"}
	if !reflect.DeepEqual(sl.Preds, wantPreds) {
		t.Fatalf("top slice preds %v, want %v", sl.Preds, wantPreds)
	}
	if !sl.Proper() {
		t.Fatal("top slice should be proper (drops even/odd/ghost rules)")
	}
	if len(sl.Rules) != 3 {
		t.Fatalf("top slice has %d rules, want 3", len(sl.Rules))
	}

	// Sliced program and database reconstruct.
	prog, err := sl.Program()
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Rules) != 3 {
		t.Fatalf("sliced program has %d rules", len(prog.Rules))
	}
	full, _, err := parser.ParseUnit(layeredSrc)
	if err != nil {
		t.Fatal(err)
	}
	_ = full
	whole := progan.SliceOf(r.Program(), []string{"top", "even", "ghost"})
	if whole.Proper() {
		t.Fatalf("goal set covering every rule head should not be proper: %v", whole.Preds)
	}
}

// Slice monotonicity: the slice of a superset goal set contains the
// slice of any subset — predicates and rules alike.
func TestSliceMonotonic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		g := randgen.New(rng, randgen.Default())
		prog, err := g.Program(rng)
		if err != nil {
			t.Fatal(err)
		}
		db, err := g.Database(rng)
		if err != nil {
			t.Fatal(err)
		}
		r := progan.Analyze(prog, db)
		var names []string
		for _, n := range r.Preds {
			names = append(names, n.Name)
		}
		// Random subset pair A ⊆ B.
		var sub, super []string
		for _, n := range names {
			if rng.Intn(2) == 0 {
				super = append(super, n)
				if rng.Intn(2) == 0 {
					sub = append(sub, n)
				}
			}
		}
		small, big := progan.SliceOf(r.Program(), sub), progan.SliceOf(r.Program(), super)
		for _, p := range small.Preds {
			if !big.Contains(p) {
				t.Fatalf("trial %d: pred %s in slice(%v) but not slice(%v)", trial, p, sub, super)
			}
		}
		ruleSet := make(map[int]bool, len(big.Rules))
		for _, i := range big.Rules {
			ruleSet[i] = true
		}
		for _, i := range small.Rules {
			if !ruleSet[i] {
				t.Fatalf("trial %d: rule %d in subset slice only", trial, i)
			}
		}
	}
}

// Purity: analysis, slices, and bounds are pure functions of the AST —
// repeated runs (and runs over cloned ASTs) produce identical reports,
// fingerprints, and bounds.
func TestAnalysisDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		g := randgen.New(rng, randgen.Default())
		prog, err := g.Program(rng)
		if err != nil {
			t.Fatal(err)
		}
		db, err := g.Database(rng)
		if err != nil {
			t.Fatal(err)
		}
		r0 := progan.Analyze(prog, db)
		base, err := json.Marshal(r0.JSON())
		if err != nil {
			t.Fatal(err)
		}
		goals := []string{r0.Preds[0].Name}
		if len(r0.Preds) > 2 {
			goals = append(goals, r0.Preds[2].Name)
		}
		fp := progan.SliceOf(prog, goals).Fingerprint()
		b0, err := json.Marshal(progan.ComputeBounds(prog, db))
		if err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 20; run++ {
			p, d := prog, db
			if run%2 == 1 {
				p = prog.Clone()
				d = db.Clone()
			}
			r := progan.Analyze(p, d)
			got, err := json.Marshal(r.JSON())
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(base) {
				t.Fatalf("trial %d run %d: report differs\n%s\nvs\n%s", trial, run, base, got)
			}
			if f := progan.SliceOf(p, goals).Fingerprint(); f != fp {
				t.Fatalf("trial %d run %d: slice fingerprint %s vs %s", trial, run, f, fp)
			}
			b, err := json.Marshal(progan.ComputeBounds(p, d))
			if err != nil {
				t.Fatal(err)
			}
			if string(b) != string(b0) {
				t.Fatalf("trial %d run %d: bounds differ\n%s\nvs\n%s", trial, run, b0, b)
			}
		}
	}
}

func TestBounds(t *testing.T) {
	prog, db, err := parser.ParseUnit(layeredSrc)
	if err != nil {
		t.Fatal(err)
	}
	b := progan.ComputeBounds(prog, db)
	if !b.Empty["ghost"] || !b.Empty["nothing"] {
		t.Errorf("Empty = %v, want ghost and nothing", b.Empty)
	}
	if b.Empty["q"] || b.Empty["rel"] {
		t.Errorf("Empty wrongly marks populated preds: %v", b.Empty)
	}
	// Support: top reaches q(0,a), rel(a), even(0)? No — top's closure is
	// {top, mid, q, rel}: facts q(0,a) and rel(a). The count function is
	// the database's, read per predicate as the engine reads its store.
	count := func(pred string) int {
		n := 0
		for _, f := range db.Facts {
			if f.Pred == pred {
				n++
			}
		}
		return n
	}
	if got, ok := b.Support("top", count); !ok || got != 2 {
		t.Errorf("Support(top) = %d, %v, want 2, true", got, ok)
	}
	if _, ok := b.Support("ghost", count); ok {
		t.Errorf("Support should skip unpopulated ghost")
	}
}

func TestRender(t *testing.T) {
	r := analyzeUnit(t, layeredSrc)
	out := r.Render()
	for _, want := range []string{
		"dependency graph:",
		"[self]",
		"[mutual]",
		"BASE-UNREACHABLE",
		"provably empty:",
		"ghost",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Render() missing %q:\n%s", want, out)
		}
	}
}
