package main

import (
	"flag"
	"fmt"
	"os"

	"tdd/internal/experiments"
)

// runExperiments implements `tdd experiments`: run the reproduction
// experiments E1–E10 and print the tables recorded in EXPERIMENTS.md.
// Each experiment validates one of the paper's measurable claims; the
// runners fail loudly if a claim's shape does not hold (wrong period,
// pipeline disagreement, ...).
//
//	tdd experiments [-quick] [E1 E3 ...]      # default: all experiments
func runExperiments(args []string) error {
	fs := flag.NewFlagSet("tdd experiments", flag.ExitOnError)
	quick := fs.Bool("quick", false, "run reduced sweeps")
	fs.Parse(args) //nolint:errcheck // ExitOnError

	ids := fs.Args()
	if len(ids) == 0 {
		ids = experiments.IDs()
	}
	failed := 0
	for _, id := range ids {
		run, ok := experiments.All[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "tdd experiments: unknown experiment %q (have %v)\n", id, experiments.IDs())
			failed++
			continue
		}
		tab, err := run(*quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tdd experiments: %s failed: %v\n", id, err)
			failed++
			continue
		}
		fmt.Println(tab.String())
	}
	if failed > 0 {
		return fmt.Errorf("%d experiment(s) failed", failed)
	}
	return nil
}
