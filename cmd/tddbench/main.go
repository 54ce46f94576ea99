// Command tddbench runs the reproduction experiments E1–E10 and E18 and
// prints the tables recorded in EXPERIMENTS.md. Each experiment validates
// one of the paper's measurable claims; the runners fail loudly if a
// claim's shape does not hold (wrong period, pipeline disagreement, ...).
//
// Usage:
//
//	tddbench [-quick] [E1 E3 ...]      # default: all experiments
package main

import (
	"flag"
	"fmt"
	"os"

	"tdd/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "run reduced sweeps")
	flag.Parse()

	ids := flag.Args()
	if len(ids) == 0 {
		ids = experiments.IDs()
	}
	failed := 0
	for _, id := range ids {
		run, ok := experiments.All[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "tddbench: unknown experiment %q (have %v)\n", id, experiments.IDs())
			failed++
			continue
		}
		tab, err := run(*quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tddbench: %s failed: %v\n", id, err)
			failed++
			continue
		}
		fmt.Println(tab.String())
	}
	if failed > 0 {
		os.Exit(1)
	}
}
