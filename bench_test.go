package tdd

// One benchmark family per experiment in EXPERIMENTS.md. The experiment
// tables themselves are produced by `tdd experiments`; the benchmarks here
// give per-configuration timings with allocation counts
// (go test -bench=. -benchmem).

import (
	"fmt"
	"sort"
	"testing"
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

func mustBuild(b *testing.B, rules, facts string) *engine.Evaluator {
	b.Helper()
	prog, db, err := parser.ParseUnit(rules + facts)
	if err != nil {
		b.Fatal(err)
	}
	e, err := engine.New(prog, db)
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// BenchmarkE1BTPolyScaling: end-to-end specification computation on the
// ski family as the database grows (Theorem 4.1's polynomial bound).
func BenchmarkE1BTPolyScaling(b *testing.B) {
	for _, resorts := range []int{4, 16, 64, 256} {
		rules, facts := workload.Ski(workload.SkiParams{YearLen: 50, Resorts: resorts, Planes: 2 * resorts, Holidays: 5, Seed: 42})
		b.Run(fmt.Sprintf("resorts=%d", resorts), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := mustBuild(b, rules, facts)
				if _, err := spec.Compute(e, 1<<20); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE2InflationaryPeriod: period detection on the inflationary
// reachability family (Theorem 5.1: p must be 1).
func BenchmarkE2InflationaryPeriod(b *testing.B) {
	for _, nodes := range []int{8, 16, 32, 64} {
		rules, facts := workload.Reachability(workload.ReachParams{Nodes: nodes, Edges: 3 * nodes, Seed: 7})
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := mustBuild(b, rules, facts)
				p, _, err := period.Detect(e, 1<<20)
				if err != nil {
					b.Fatal(err)
				}
				if p.P != 1 {
					b.Fatalf("period %v", p)
				}
			}
		})
	}
}

// BenchmarkE3ExponentialPeriod: the n-bit counter — period and work double
// per bit (Theorems 3.2/3.3 lower-bound shape).
func BenchmarkE3ExponentialPeriod(b *testing.B) {
	for _, bits := range []int{2, 4, 6, 8, 10} {
		rules, facts := workload.Counter(bits)
		b.Run(fmt.Sprintf("bits=%d", bits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := mustBuild(b, rules, facts)
				p, _, err := period.Detect(e, 1<<22)
				if err != nil {
					b.Fatal(err)
				}
				if p.P != 1<<bits {
					b.Fatalf("period %v", p)
				}
			}
		})
	}
}

// BenchmarkE4InflationaryCheck: the Theorem 5.2 decision procedure on
// programs of growing size.
func BenchmarkE4InflationaryCheck(b *testing.B) {
	for _, k := range []int{1, 8, 64, 256} {
		var src []byte
		for i := 0; i < k; i++ {
			src = append(src, fmt.Sprintf("p%d(T+1, X) :- p%d(T, X).\n", i, i)...)
		}
		prog, err := parser.ParseProgram(string(src))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("rules=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ok, err := classify.Inflationary(prog)
				if err != nil || !ok {
					b.Fatalf("ok=%v err=%v", ok, err)
				}
			}
		})
	}
}

// BenchmarkE5IPeriodStability: period detection cost on multi-separable
// rules as the database grows 64x; the detected period stays put.
func BenchmarkE5IPeriodStability(b *testing.B) {
	for _, resorts := range []int{2, 8, 32, 128} {
		rules, facts := workload.Ski(workload.SkiParams{YearLen: 12, Resorts: resorts, Planes: 3 * resorts, Holidays: 3, Seed: 11})
		b.Run(fmt.Sprintf("resorts=%d", resorts), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := mustBuild(b, rules, facts)
				p, _, err := period.Detect(e, 1<<20)
				if err != nil {
					b.Fatal(err)
				}
				if 12%p.P != 0 {
					b.Fatalf("period %v", p)
				}
			}
		})
	}
}

// BenchmarkE6SpecSize: specification construction on both families,
// reporting |T| and |B| as custom metrics.
func BenchmarkE6SpecSize(b *testing.B) {
	run := func(name, rules, facts string, window int) {
		b.Run(name, func(b *testing.B) {
			var reps, facts2 int
			for i := 0; i < b.N; i++ {
				e := mustBuild(b, rules, facts)
				s, err := spec.Compute(e, window)
				if err != nil {
					b.Fatal(err)
				}
				reps, facts2 = s.Size()
			}
			b.ReportMetric(float64(reps), "reps|T|")
			b.ReportMetric(float64(facts2), "facts|B|")
		})
	}
	for _, r := range []int{4, 16, 64} {
		rules, facts := workload.Ski(workload.SkiParams{YearLen: 30, Resorts: r, Planes: 2 * r, Holidays: 4, Seed: 5})
		run(fmt.Sprintf("ski/resorts=%d", r), rules, facts, 1<<20)
	}
	for _, bits := range []int{2, 4, 6, 8} {
		rules, facts := workload.Counter(bits)
		run(fmt.Sprintf("counter/bits=%d", bits), rules, facts, 1<<22)
	}
}

// BenchmarkE7SpecVsDirect: per-query cost at depth h through the
// specification (flat) vs direct materialization (linear in h).
func BenchmarkE7SpecVsDirect(b *testing.B) {
	rules, facts := workload.Ski(workload.SkiParams{YearLen: 40, Resorts: 4, Planes: 8, Holidays: 4, Seed: 9})
	for _, h := range []int{100, 1000, 10000, 100000} {
		f := ast.Fact{Pred: "plane", Temporal: true, Time: h, Args: []string{"r0"}}
		b.Run(fmt.Sprintf("spec/h=%d", h), func(b *testing.B) {
			e := mustBuild(b, rules, facts)
			s, err := spec.Compute(e, 1<<20)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.HoldsFact(f)
			}
		})
		b.Run(fmt.Sprintf("direct/h=%d", h), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := mustBuild(b, rules, facts)
				e.EnsureWindow(h)
				e.Holds(f)
			}
		})
	}
}

// BenchmarkE8NaiveVsEngine: the time-stratified engine vs the literal
// Figure 1 T_P iteration on the same window.
func BenchmarkE8NaiveVsEngine(b *testing.B) {
	for _, nodes := range []int{6, 10, 14} {
		rules, facts := workload.Reachability(workload.ReachParams{Nodes: nodes, Edges: 2 * nodes, Seed: 13})
		prog, db, err := parser.ParseUnit(rules + facts)
		if err != nil {
			b.Fatal(err)
		}
		m := 2 * nodes
		b.Run(fmt.Sprintf("engine/nodes=%d", nodes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e, err := engine.New(prog, db)
				if err != nil {
					b.Fatal(err)
				}
				e.EnsureWindow(m)
			}
		})
		b.Run(fmt.Sprintf("naive/nodes=%d", nodes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := baseline.NaiveTP(prog, db, m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQueryAnswering: public-API query evaluation over the ski
// specification (micro-benchmark for the query evaluator).
func BenchmarkQueryAnswering(b *testing.B) {
	rules, facts := workload.Ski(workload.SkiParams{YearLen: 40, Resorts: 8, Planes: 16, Holidays: 4, Seed: 3})
	db, err := Open(rules, facts)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := db.Period(); err != nil {
		b.Fatal(err)
	}
	b.Run("ground", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := db.HoldsAt("plane", 1_000_000+i, "r0"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("exists", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := db.Ask("exists T (plane(T, r0) & holiday(T))"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("open", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := db.Answers("plane(T, r0) & winter(T)"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTraceOverhead: the full pipeline — open, certify, incremental
// ingestion, deep query — on the chain workload with tracing disabled
// (the default nil-trace no-op path) vs a trace attached. The disabled
// variant is the <5% overhead acceptance gate for the instrumentation;
// the traced variant prices what ?trace=1 and -trace actually cost.
func BenchmarkTraceOverhead(b *testing.B) {
	rules, facts, stream := workload.Chain(16)
	pipeline := func(b *testing.B, traced bool) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			var opts []Option
			if traced {
				opts = append(opts, WithTrace(NewTrace()))
			}
			db, err := Open(rules, facts, opts...)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := db.Period(); err != nil {
				b.Fatal(err)
			}
			for _, batch := range stream {
				if _, err := db.Assert(batch); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := db.Ask("path(1000000, n0, n15)"); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("disabled", func(b *testing.B) { pipeline(b, false) })
	b.Run("traced", func(b *testing.B) { pipeline(b, true) })
}

// BenchmarkProfileOverhead: the same pipeline with the join profiler off
// (the default one-nil-check path) vs enabled. The disabled variant must
// stay within 1% of BenchmarkTraceOverhead/disabled and the profiled
// variant within 5% of it — the E17 acceptance gates. scripts/ci.sh
// enforces the second on the paired sub-benchmark: the pipeline takes
// about 2 ms, a shared runner slows everything by tens of per cent for
// seconds at a time, and two separately timed runs mostly compare the
// neighbours' load; paired runs the two variants back to back, order
// alternating, and reports the median of the per-pair time ratios, which
// a disturbance hits on both sides or, when it hits one, leaves as an
// outlier the median ignores.
func BenchmarkProfileOverhead(b *testing.B) {
	rules, facts, stream := workload.Chain(16)
	once := func(b *testing.B, profiled bool) {
		var opts []Option
		if profiled {
			opts = append(opts, WithProfile())
		}
		db, err := Open(rules, facts, opts...)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := db.Period(); err != nil {
			b.Fatal(err)
		}
		for _, batch := range stream {
			if _, err := db.Assert(batch); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := db.Ask("path(1000000, n0, n15)"); err != nil {
			b.Fatal(err)
		}
	}
	pipeline := func(b *testing.B, profiled bool) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			once(b, profiled)
		}
	}
	b.Run("disabled", func(b *testing.B) { pipeline(b, false) })
	b.Run("profiled", func(b *testing.B) { pipeline(b, true) })
	b.Run("paired", func(b *testing.B) {
		ratios := make([]float64, 0, b.N)
		for i := 0; i < b.N; i++ {
			var took [2]time.Duration
			for k := 0; k < 2; k++ {
				profiled := (i+k)%2 == 1
				start := time.Now()
				once(b, profiled)
				if profiled {
					took[1] = time.Since(start)
				} else {
					took[0] = time.Since(start)
				}
			}
			ratios = append(ratios, float64(took[1])/float64(took[0]))
		}
		sort.Float64s(ratios)
		b.ReportMetric(ratios[len(ratios)/2], "profiled/disabled")
	})
}

// BenchmarkE9Pruning: end-to-end deep ground query with and without
// dependency slicing on k independent prime-period subsystems.
func BenchmarkE9Pruning(b *testing.B) {
	for _, k := range []int{3, 4, 5} {
		rules, facts := workload.Cycles(workload.Primes(k))
		prog, db, err := parser.ParseUnit(rules + facts)
		if err != nil {
			b.Fatal(err)
		}
		q, err := parser.ParseQuery("cyc0(1000000)", prog.Preds)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("full/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bt, err := core.New(prog.Clone(), db)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := bt.Ask(q); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("pruned/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sl := progan.SliceOf(prog, progan.QueryPreds(q))
				pp, err := sl.Program()
				if err != nil {
					b.Fatal(err)
				}
				pdb, err := sl.Database(db)
				if err != nil {
					b.Fatal(err)
				}
				bt, err := core.New(pp, pdb)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := bt.Ask(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSlicedAsk is the E19 pair: a cold existential ask on the
// Distractor workload. The relevant chain has period 2; the distractor
// cycles blow the full model's period up to 210 and fill every state with
// irrelevant facts, so the full path certifies 210 states where the sliced
// path certifies a handful. cold is OpenUnit plus the first Ask, which the
// facade answers from the query's relevance slice; certified-first puts a
// Period call in front, after which the same Ask is a probe of the full
// model — the path every ask takes once a snapshot is warm. The ci.sh
// perf gate holds the cold/certified-first ratio at <= 0.6 (min of 3).
func BenchmarkSlicedAsk(b *testing.B) {
	rules, facts := workload.Distractor([]int{3, 5, 7}, 40)
	unit := rules + facts
	// c1 has no witness, so the existential cannot short-circuit.
	const query = "exists T q(T, c1)"
	run := func(b *testing.B, certifyFirst bool) {
		for i := 0; i < b.N; i++ {
			db, err := OpenUnit(unit)
			if err != nil {
				b.Fatal(err)
			}
			if certifyFirst {
				if _, err := db.Period(); err != nil {
					b.Fatal(err)
				}
			}
			if ok, err := db.Ask(query); err != nil || ok {
				b.Fatalf("ask: ok=%v err=%v (want a witness-free no)", ok, err)
			}
		}
	}
	b.Run("cold", func(b *testing.B) { run(b, false) })
	b.Run("certified-first", func(b *testing.B) { run(b, true) })
}
