package experiments

import (
	"fmt"
	"time"

	"tdd/internal/ast"
	"tdd/internal/baseline"
	"tdd/internal/classify"
	"tdd/internal/core"
	"tdd/internal/engine"
	"tdd/internal/parser"
	"tdd/internal/period"
	"tdd/internal/progan"
	"tdd/internal/spec"
	"tdd/internal/workload"
)

// build parses and compiles a workload into an evaluator.
func build(rules, facts string) (*engine.Evaluator, *ast.Program, *ast.Database, error) {
	prog, db, err := parser.ParseUnit(rules + facts)
	if err != nil {
		return nil, nil, nil, err
	}
	e, err := engine.New(prog, db)
	if err != nil {
		return nil, nil, nil, err
	}
	return e, prog, db, nil
}

// E1 — Theorem 4.1 / algorithm BT: for a polynomially periodic rule set,
// computing the relational specification (and hence answering queries)
// takes time polynomial in the database size. Workload: the ski family
// with a fixed year, growing databases.
func E1(quick bool) (*Table, error) {
	sizes := []int{4, 16, 64, 256}
	if quick {
		sizes = []int{4, 16}
	}
	t := &Table{
		ID:     "E1",
		Title:  "BT scaling on a polynomially periodic family (ski, year=50)",
		Claim:  "Thm 4.1: polynomial periods => specification computable in time polynomial in |D|",
		Expect: "time and derived facts grow ~linearly with |D|; window and |T| stay flat",
		Header: []string{"resorts", "db_facts", "window", "period", "reps|T|", "derived", "time_ms"},
	}
	for _, r := range sizes {
		rules, facts := workload.Ski(workload.SkiParams{YearLen: 50, Resorts: r, Planes: 2 * r, Holidays: 5, Seed: 42})
		e, _, db, err := build(rules, facts)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		s, err := spec.Compute(e, 1<<20)
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		reps, _ := s.Size()
		t.Rows = append(t.Rows, []string{
			itoa(r), itoa(len(db.Facts)), itoa(e.Window()),
			s.Period.String(), itoa(reps), itoa(e.Stats().Derived), ms(elapsed),
		})
	}
	return t, nil
}

// E2 — Theorem 5.1: inflationary rule sets have period (P(n)+1, 1).
// Workload: bounded reachability on random graphs.
func E2(quick bool) (*Table, error) {
	sizes := []int{8, 16, 32, 64}
	if quick {
		sizes = []int{8, 16}
	}
	t := &Table{
		ID:     "E2",
		Title:  "Inflationary periods (bounded reachability on random digraphs)",
		Claim:  "Thm 5.1: inflationary => period p=1 with base bounded by the state-size polynomial",
		Expect: "p=1 in every row; base grows at most ~linearly (graph diameter), far below n^2+1",
		Header: []string{"nodes", "edges", "db_facts", "period_p", "base", "state_bound", "time_ms"},
	}
	for _, n := range sizes {
		rules, facts := workload.Reachability(workload.ReachParams{Nodes: n, Edges: 3 * n, Seed: 7})
		e, _, db, err := build(rules, facts)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		p, _, err := period.Detect(e, 1<<20)
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		if p.P != 1 {
			return nil, fmt.Errorf("E2: inflationary family produced period %v", p)
		}
		// The Theorem 5.1 bound: states can grow for at most
		// P1(n) = (#path tuples possible) steps.
		bound := n*n + 1
		t.Rows = append(t.Rows, []string{
			itoa(n), itoa(3 * n), itoa(len(db.Facts)), itoa(p.P), itoa(p.Base), itoa(bound), ms(elapsed),
		})
	}
	return t, nil
}

// E3 — Theorems 3.2/3.3 lower-bound shape: a fixed rule set whose least
// model's period is exponential in the database size (the n-bit counter).
func E3(quick bool) (*Table, error) {
	bits := []int{2, 4, 6, 8, 10, 12}
	if quick {
		bits = []int{2, 4, 6}
	}
	t := &Table{
		ID:     "E3",
		Title:  "Exponential periods (n-bit binary counter)",
		Claim:  "Thms 3.2/3.3: without class restrictions, periods (and query time) can be exponential in |D|",
		Expect: "period doubles per added bit (2^n); detection time roughly doubles too",
		Header: []string{"bits", "db_facts", "period_p", "2^bits", "window", "time_ms"},
	}
	for _, n := range bits {
		rules, facts := workload.Counter(n)
		e, _, db, err := build(rules, facts)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		p, st, err := period.Detect(e, 1<<22)
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		if p.P != 1<<n {
			return nil, fmt.Errorf("E3: counter(%d) period %v, want 2^%d", n, p, n)
		}
		t.Rows = append(t.Rows, []string{
			itoa(n), itoa(len(db.Facts)), itoa(p.P), itoa(1 << n), itoa(st.Window), ms(elapsed),
		})
	}
	return t, nil
}

// E4 — Theorem 5.2: the inflationary property is decidable. Run the
// decision procedure over a suite of programs and time it.
func E4(quick bool) (*Table, error) {
	copies := []int{1, 8, 64}
	if !quick {
		copies = append(copies, 256)
	}
	t := &Table{
		ID:     "E4",
		Title:  "Deciding the inflationary property (Theorem 5.2 procedure)",
		Claim:  "Thm 5.2: inflationary-ness is decidable; the test is cheap (one tiny least model per derived predicate)",
		Expect: "verdicts match ground truth; time grows ~linearly in the number of predicates",
		Header: []string{"program", "rules", "inflationary", "expected", "time_ms"},
	}
	reach, _ := workload.Reachability(workload.ReachParams{Nodes: 2, Edges: 1, Seed: 1})
	ski, _ := workload.Ski(workload.SkiParams{YearLen: 10, Resorts: 1, Planes: 1, Holidays: 1, Seed: 1})
	cases := []struct {
		name   string
		src    string
		expect bool
	}{
		{"reachability", reach, true},
		{"ski", ski, false},
		{"counter", workload.CounterRules, false},
	}
	for _, k := range copies {
		var b []byte
		for i := 0; i < k; i++ {
			b = append(b, fmt.Sprintf("p%d(T+1, X) :- p%d(T, X).\n", i, i)...)
		}
		cases = append(cases, struct {
			name   string
			src    string
			expect bool
		}{fmt.Sprintf("copy-chain(%d)", k), string(b), true})
	}
	for _, c := range cases {
		prog, err := parser.ParseProgram(c.src)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		got, err := classify.Inflationary(prog)
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		if got != c.expect {
			return nil, fmt.Errorf("E4: %s classified %v, want %v", c.name, got, c.expect)
		}
		t.Rows = append(t.Rows, []string{c.name, itoa(len(prog.Rules)), fmt.Sprint(got), fmt.Sprint(c.expect), ms(elapsed)})
	}
	return t, nil
}

// E5 — Theorems 6.3/6.5: multi-separable rule sets are I-periodic — the
// period does not depend on the database. Grow the ski database 100x and
// watch the detected period stay put.
func E5(quick bool) (*Table, error) {
	sizes := []int{2, 8, 32, 128}
	if quick {
		sizes = []int{2, 8}
	}
	const year = 12
	t := &Table{
		ID:     "E5",
		Title:  "I-periodicity: period vs database size (ski, year=12)",
		Claim:  "Thms 6.3/6.5: multi-separable => one database-independent period",
		Expect: "period column constant (=12) down the sweep while db_facts grows ~100x",
		Header: []string{"resorts", "db_facts", "period_p", "base", "time_ms"},
	}
	for _, r := range sizes {
		rules, facts := workload.Ski(workload.SkiParams{YearLen: year, Resorts: r, Planes: 3 * r, Holidays: 3, Seed: 11})
		e, prog, db, err := build(rules, facts)
		if err != nil {
			return nil, err
		}
		if ok, reason := classify.MultiSeparable(prog); !ok {
			return nil, fmt.Errorf("E5: workload not multi-separable: %s", reason)
		}
		start := time.Now()
		p, _, err := period.Detect(e, 1<<20)
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		if year%p.P != 0 {
			return nil, fmt.Errorf("E5: detected period %v incompatible with year %d", p, year)
		}
		t.Rows = append(t.Rows, []string{itoa(r), itoa(len(db.Facts)), itoa(p.P), itoa(p.Base), ms(elapsed)})
	}
	return t, nil
}

// E6 — Theorem 3.3 vs Theorem 4.1: specification size is polynomial for
// the tractable families and exponential for the counter.
func E6(quick bool) (*Table, error) {
	t := &Table{
		ID:     "E6",
		Title:  "Relational specification size: tractable vs adversarial families",
		Claim:  "Thm 4.1: poly spec size <=> poly time; Thm 3.3: spec size can be exponential in |D|",
		Expect: "ski rows: |T| flat, |B| ~linear in db_facts; counter rows: |T| and |B| double per bit",
		Header: []string{"family", "param", "db_facts", "reps|T|", "facts|B|", "time_ms"},
	}
	skiSizes := []int{4, 16, 64}
	counterBits := []int{2, 4, 6, 8}
	if quick {
		skiSizes = []int{4, 16}
		counterBits = []int{2, 4}
	}
	for _, r := range skiSizes {
		rules, facts := workload.Ski(workload.SkiParams{YearLen: 30, Resorts: r, Planes: 2 * r, Holidays: 4, Seed: 5})
		e, _, db, err := build(rules, facts)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		s, err := spec.Compute(e, 1<<20)
		if err != nil {
			return nil, err
		}
		reps, nfacts := s.Size()
		t.Rows = append(t.Rows, []string{"ski", itoa(r), itoa(len(db.Facts)), itoa(reps), itoa(nfacts), ms(time.Since(start))})
	}
	for _, n := range counterBits {
		rules, facts := workload.Counter(n)
		e, _, db, err := build(rules, facts)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		s, err := spec.Compute(e, 1<<22)
		if err != nil {
			return nil, err
		}
		reps, nfacts := s.Size()
		t.Rows = append(t.Rows, []string{"counter", itoa(n), itoa(len(db.Facts)), itoa(reps), itoa(nfacts), ms(time.Since(start))})
	}
	return t, nil
}

// E7 — Section 3.3: after the one-time specification, a ground query of
// any temporal depth h costs one rewrite plus a lookup, while the direct
// baseline must materialize the model out to h.
func E7(quick bool) (*Table, error) {
	depths := []int{100, 1000, 10000, 100000}
	if quick {
		depths = []int{100, 1000}
	}
	t := &Table{
		ID:     "E7",
		Title:  "Query answering: relational specification vs direct materialization",
		Claim:  "Sec 3.3: spec-based answers are O(1) in the query depth h; direct evaluation is Θ(h)",
		Expect: "spec_us flat as h grows; direct_ms grows ~linearly in h; crossover almost immediately",
		Header: []string{"depth_h", "spec_us_per_query", "direct_ms", "answers_agree"},
	}
	rules, facts := workload.Ski(workload.SkiParams{YearLen: 40, Resorts: 4, Planes: 8, Holidays: 4, Seed: 9})

	// One-time specification.
	e, _, _, err := build(rules, facts)
	if err != nil {
		return nil, err
	}
	s, err := spec.Compute(e, 1<<20)
	if err != nil {
		return nil, err
	}
	for _, h := range depths {
		f := ast.Fact{Pred: "plane", Temporal: true, Time: h, Args: []string{"r0"}}
		const reps = 1000
		start := time.Now()
		var specAns bool
		for i := 0; i < reps; i++ {
			specAns = s.HoldsFact(f)
		}
		perQuery := time.Since(start) / reps

		// Direct: a fresh evaluator materializing out to h.
		direct, _, _, err := build(rules, facts)
		if err != nil {
			return nil, err
		}
		start = time.Now()
		direct.EnsureWindow(h)
		directAns := direct.Holds(f)
		directTime := time.Since(start)
		if specAns != directAns {
			return nil, fmt.Errorf("E7: disagreement at h=%d: spec=%v direct=%v", h, specAns, directAns)
		}
		t.Rows = append(t.Rows, []string{
			itoa(h), fmt.Sprintf("%.2f", float64(perQuery.Nanoseconds())/1e3), ms(directTime), "yes",
		})
	}
	return t, nil
}

// E8 — ablation: the production time-stratified engine vs the naive
// Figure-1 T_P iteration.
func E8(quick bool) (*Table, error) {
	sizes := []int{6, 10, 14}
	if quick {
		sizes = []int{6}
	}
	t := &Table{
		ID:     "E8",
		Title:  "Ablation: time-stratified engine vs naive T_P iteration (Figure 1 as printed)",
		Claim:  "BT's bound holds for naive iteration; the engine's time-stratified sweep removes the rederivation factor",
		Expect: "naive firings exceed engine firings by a growing factor; times follow",
		Header: []string{"nodes", "window", "engine_firings", "naive_firings", "firing_ratio", "engine_ms", "naive_ms"},
	}
	for _, n := range sizes {
		rules, facts := workload.Reachability(workload.ReachParams{Nodes: n, Edges: 2 * n, Seed: 13})
		m := 2 * n

		e, prog, db, err := build(rules, facts)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		e.EnsureWindow(m)
		engineTime := time.Since(start)
		engineFirings := e.Stats().Firings

		start = time.Now()
		naiveStore, naiveStats, err := baseline.NaiveTP(prog, db, m)
		if err != nil {
			return nil, err
		}
		naiveTime := time.Since(start)
		// Differential check while we are here.
		for tm := 0; tm <= m; tm++ {
			if naiveStore.StateKey(tm) != e.Store().StateKey(tm) {
				return nil, fmt.Errorf("E8: naive and engine disagree at t=%d (n=%d)", tm, n)
			}
		}
		ratio := float64(naiveStats.Firings) / float64(engineFirings)
		t.Rows = append(t.Rows, []string{
			itoa(n), itoa(m), itoa(engineFirings), itoa(naiveStats.Firings),
			fmt.Sprintf("%.1fx", ratio), ms(engineTime), ms(naiveTime),
		})
	}
	return t, nil
}

// E9 — extension (Section 8 future work): query-relevance pruning. A
// database describing k independent periodic subsystems has a global
// period equal to the lcm of the subsystem periods, but a query touches
// only one subsystem; slicing the rules to the query's dependency closure
// shrinks the certified period — and the work — from the lcm to the single
// subsystem's period.
func E9(quick bool) (*Table, error) {
	ks := []int{2, 3, 4, 5, 6}
	if quick {
		ks = []int{2, 3}
	}
	t := &Table{
		ID:     "E9",
		Title:  "Extension: dependency slicing before BT (Section 8's optimization direction)",
		Claim:  "answers on the query's predicates are invariant under slicing; the certified period shrinks from lcm(all) to the touched subsystem's",
		Expect: "full period = product of the first k primes (grows exponentially); pruned period = 2 throughout; identical answers",
		Header: []string{"subsystems", "full_period", "full_window", "full_ms", "pruned_period", "pruned_ms", "answers_agree"},
	}
	for _, k := range ks {
		rules, facts := workload.Cycles(workload.Primes(k))
		prog, db, err := parser.ParseUnit(rules + facts)
		if err != nil {
			return nil, err
		}
		q, err := parser.ParseQuery("cyc0(1000000)", prog.Preds)
		if err != nil {
			return nil, err
		}

		start := time.Now()
		full, err := core.New(prog.Clone(), db)
		if err != nil {
			return nil, err
		}
		fullAns, err := full.Ask(q)
		if err != nil {
			return nil, err
		}
		fullPeriod, err := full.Period()
		if err != nil {
			return nil, err
		}
		fullTime := time.Since(start)

		start = time.Now()
		sl := progan.SliceOf(prog, progan.QueryPreds(q))
		pp, err := sl.Program()
		if err != nil {
			return nil, err
		}
		pdb, err := sl.Database(db)
		if err != nil {
			return nil, err
		}
		slim, err := core.New(pp, pdb)
		if err != nil {
			return nil, err
		}
		slimAns, err := slim.Ask(q)
		if err != nil {
			return nil, err
		}
		slimPeriod, err := slim.Period()
		if err != nil {
			return nil, err
		}
		slimTime := time.Since(start)

		if fullAns != slimAns {
			return nil, fmt.Errorf("E9: pruning changed the answer at k=%d", k)
		}
		if slimPeriod.P != 2 {
			return nil, fmt.Errorf("E9: pruned period %v, want 2", slimPeriod)
		}
		t.Rows = append(t.Rows, []string{
			itoa(k), itoa(fullPeriod.P), itoa(full.Evaluator().Window()), ms(fullTime),
			itoa(slimPeriod.P), ms(slimTime), "yes",
		})
	}
	return t, nil
}

// E10 — the Section 7 generalization: with more than one function symbol
// (functional deductive databases, [6]) the term universe branches and the
// depth-m model of even a two-rule program is Θ(|Σ|^m); Theorem 4.1's
// equivalence breaks down and no tractable subclasses are known. We
// count the depth-m model of the "reach everything" program as the
// alphabet grows from 1 (a plain TDD) to 3. Every row is enumerated by
// reachLevels and checked against the closed form; the one-symbol row is
// also run on the TDD engine as reach(T+1) :- reach(T), which must derive
// the same facts level by level — the sense in which it is exactly a TDD.
func E10(quick bool) (*Table, error) {
	depth := 12
	if quick {
		depth = 8
	}
	t := &Table{
		ID:     "E10",
		Title:  "Functional generalization ([6], Section 7): model growth vs alphabet size",
		Claim:  "Sec 7: with >= 2 unary function symbols, depth-m models (and specifications) blow up as |Sigma|^m",
		Expect: "|Sigma|=1: facts grow linearly in depth (this is a TDD); |Sigma|=2: doubling per level; |Sigma|=3: tripling",
		Header: []string{"alphabet", "depth", "facts_total", "facts_at_depth", "time_ms"},
	}
	for _, alphabet := range []string{"f", "fg", "fgh"} {
		k, m := len(alphabet), depth
		if k == 3 {
			m = depth * 2 / 3 // keep 3^m within reason
		}
		start := time.Now()
		levels := reachLevels(alphabet, m)
		total, atDepth := 0, len(levels[m])
		for _, level := range levels {
			total += len(level)
		}
		if k == 1 {
			e, _, _, err := build("reach(T+1) :- reach(T).\n", "reach(0).\n")
			if err != nil {
				return nil, err
			}
			e.EnsureWindow(m)
			st := e.Store()
			for i, level := range levels {
				agree := st.StateSize(i) == len(level)
				for w := range level {
					agree = agree && st.Has(ast.Fact{Pred: "reach", Temporal: true, Time: len(w)})
				}
				if !agree {
					return nil, fmt.Errorf("E10: engine state %d disagrees with enumeration level %d", i, i)
				}
			}
			total, atDepth = st.Len(), st.StateSize(m)
		}
		elapsed := time.Since(start)
		pow, sum := 1, 1
		for i := 0; i < m; i++ {
			pow *= k
			sum += pow
		}
		if atDepth != pow || total != sum {
			return nil, fmt.Errorf("E10: |Sigma|=%d depth %d: %d facts (%d at depth), want %d (%d)", k, m, total, atDepth, sum, pow)
		}
		t.Rows = append(t.Rows, []string{alphabet, itoa(m), itoa(total), itoa(atDepth), ms(elapsed)})
	}
	return t, nil
}

// reachLevels enumerates the depth-stratified model of the functional
// program reach(ε) plus one rule reach(σ(V)) :- reach(V) per symbol σ of
// alphabet. Level 0 is {ε}; level i+1 applies every rule to every term of
// level i. The term σ1(σ2(…ε)) is the word σ1σ2…, and the map keeps each
// derived fact once.
func reachLevels(alphabet string, m int) []map[string]bool {
	levels := []map[string]bool{{"": true}}
	for i := 0; i < m; i++ {
		next := make(map[string]bool, len(levels[i])*len(alphabet))
		for w := range levels[i] {
			for _, sym := range alphabet {
				next[string(sym)+w] = true
			}
		}
		levels = append(levels, next)
	}
	return levels
}
