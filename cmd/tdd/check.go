package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"tdd"
	"tdd/internal/parser"
)

// runCheck implements `tdd check`: classify a set of temporal rules along
// every axis of the paper — validity (range restriction, semi-normality,
// forwardness), recursion structure, the inflationary test of Theorem
// 5.2, multi-separability (Section 6), and — on request — the
// database-independent I-period of Theorem 6.3.
//
//	tdd check [-iperiod] rules.tdd
//
// Ground facts in the file are ignored for classification (the classes
// are properties of rule sets alone), but not by the trailing lint
// section, which runs the Tier-A static analyzer (see internal/lint and
// `tdd lint`) over the whole unit — rules and facts — and prints its
// coded, positioned diagnostics.
func runCheck(args []string) error {
	fs := flag.NewFlagSet("tdd check", flag.ExitOnError)
	iperiod := fs.Bool("iperiod", false, "compute the I-period (Theorem 6.3 construction; exponential in the predicate count)")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("need exactly one rules file")
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	// Accept unit files: classification looks at the rules only.
	prog, _, err := parser.ParseUnit(string(src))
	if err != nil {
		return err
	}
	rep, err := tdd.Classify(prog.String(), *iperiod)
	if err != nil {
		return err
	}
	fmt.Print(rep.String())

	// The lint section re-reads the raw unit so positions and inline
	// suppressions refer to the file as written, not the re-rendered rules.
	fmt.Println("lint:")
	printLint(os.Stdout, "  ", tdd.LintUnit(string(src)))
	return nil
}

// runGraph implements `tdd graph`: the whole-program dependency analysis
// (internal/progan) of one unit file — the predicate dependency SCC
// condensation in topological order with recursion classes, temporal
// depth bounds, and base-reachability. -json emits the same report as
// JSON, and -q prints the relevance slice the given query's predicates
// select.
//
//	tdd graph [-json] [-q query] unit.tdd
func runGraph(args []string) error {
	fs := flag.NewFlagSet("tdd graph", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit the dependency report as JSON")
	q := fs.String("q", "", "also print the relevance slice this query's predicates select")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("graph needs exactly one unit file")
	}
	// The analysis never evaluates, but Open validates, which is exactly
	// the checking we want first.
	db, _, err := open(fs.Arg(0), openOptions{})
	if err != nil {
		return err
	}
	var slice *tdd.SliceInfo
	if *q != "" {
		info, err := db.SliceFor(*q)
		if err != nil {
			return err
		}
		slice = &info
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(struct {
			Graph tdd.GraphReport `json:"graph"`
			Slice *tdd.SliceInfo  `json:"slice,omitempty"`
		}{db.GraphJSON(), slice})
	}
	fmt.Print(db.Graph())
	if slice != nil {
		fmt.Printf("slice for %s:\n", *q)
		fmt.Printf("  goals: %v\n", slice.Goals)
		fmt.Printf("  predicates: %v\n", slice.Preds)
		fmt.Printf("  rules: %d of %d", slice.Rules, slice.Total)
		if slice.Proper {
			fmt.Printf(" (proper slice %s)", slice.Fingerprint)
		} else {
			fmt.Print(" (whole program)")
		}
		fmt.Println()
	}
	return nil
}
