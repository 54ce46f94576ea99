package period

import (
	"fmt"
	"testing"

	"tdd/internal/engine"
	"tdd/internal/parser"
	"tdd/internal/workload"
)

func benchDetect(b *testing.B, rules, facts string, maxWindow int) {
	b.Helper()
	prog, db, err := parser.ParseUnit(rules + facts)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		e, err := engine.New(prog, db)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := Detect(e, maxWindow); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetect covers the three characteristic shapes: constant small
// period (ski), period 1 with a long base (reachability), exponential
// period (counter).
func BenchmarkDetect(b *testing.B) {
	skiRules, skiFacts := workload.Ski(workload.SkiParams{YearLen: 30, Resorts: 8, Planes: 16, Holidays: 4, Seed: 1})
	b.Run("ski", func(b *testing.B) { benchDetect(b, skiRules, skiFacts, 1<<20) })
	reachRules, reachFacts := workload.Reachability(workload.ReachParams{Nodes: 24, Edges: 72, Seed: 2})
	b.Run("reachability", func(b *testing.B) { benchDetect(b, reachRules, reachFacts, 1<<20) })
	for _, bits := range []int{4, 8} {
		rules, facts := workload.Counter(bits)
		b.Run(fmt.Sprintf("counter/bits=%d", bits), func(b *testing.B) { benchDetect(b, rules, facts, 1<<22) })
	}
}

// BenchmarkScan isolates the period-scanning pass from evaluation: states
// for a long window with a known repeating suffix.
func BenchmarkScan(b *testing.B) {
	for _, m := range []int{1 << 10, 1 << 14} {
		keys := make([]int, m+1)
		for t := range keys {
			if t < 37 {
				keys[t] = -t
				continue
			}
			keys[t] = (t - 37) % 12
		}
		eq := func(t1, t2 int) bool { return keys[t1] == keys[t2] }
		b.Run(fmt.Sprintf("window=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p, ok := scan(m, 0, 3, 0, 0, eq)
				if !ok || p.P != 12 {
					b.Fatalf("scan = %v, %v", p, ok)
				}
			}
		})
	}
}
