package main

import (
	"flag"
	"fmt"
	"os"

	"tdd"
)

// runQuery implements `tdd query`: load a temporal deductive database and
// answer queries against its (possibly infinite) least model.
//
//	tdd query [flags] file.tdd [query ...]
//
// The file holds rules, ground facts, and sort directives in one unit
// (see internal/parser). Each query argument is evaluated in order:
// closed queries print yes/no, open queries print their answer
// substitutions (representative terms; combine with the rewrite rule
// printed by -spec to enumerate the infinite families).
//
//	-rules f   read rules from f instead of the unit file
//	-facts f   read facts from f instead of the unit file
//	-spec      print the relational specification (T, B, W)
//	-period    print the certified minimal period
//	-state t   print the model state M[t]
//	-work      print the work certificate (window, derived facts, ...)
//	-explain   print derivation trees for ground atomic queries
//	-savespec f  write the relational specification (JSON) to f
//	-fromspec f  answer queries from a saved specification (no TDD file)
//	-window n  override the period-certification window budget
//	-trace     print the EXPLAIN-style phase tree (parse, classify,
//	           certify-period with fixpoint sweeps, spec-construct,
//	           per-query answer) after the queries run
//	-profile   print the EXPLAIN ANALYZE join-cost tree after the
//	           queries run: per rule and body-literal position, tuples
//	           scanned, bindings matched, selectivity, and attributed
//	           wall time, bucketed by timestamp stratum, plus the
//	           per-predicate cardinality tables (not available with
//	           -fromspec: a saved specification never re-enters the
//	           engine, so there is no join work to profile)
//
// Example:
//
//	tdd query examples/quickstart/even.tdd 'even(1000000)' 'even(T)'
func runQuery(args []string) error {
	fs := flag.NewFlagSet("tdd query", flag.ExitOnError)
	var o openOptions
	fs.StringVar(&o.rules, "rules", "", "rules file (with -facts)")
	fs.StringVar(&o.facts, "facts", "", "facts file (with -rules)")
	showSpec := fs.Bool("spec", false, "print the relational specification")
	showPeriod := fs.Bool("period", false, "print the certified minimal period")
	stateAt := fs.Int("state", -1, "print the model state at this time")
	showWork := fs.Bool("work", false, "print the work summary")
	fs.BoolVar(&o.explain, "explain", false, "print derivation trees for ground atomic queries")
	fs.IntVar(&o.window, "window", 0, "period-certification window budget (0 = default)")
	saveSpec := fs.String("savespec", "", "write the relational specification (JSON) to this file")
	fromSpec := fs.String("fromspec", "", "answer queries from a saved specification instead of a TDD file")
	traceFlag := fs.Bool("trace", false, "print the phase tree of the whole pipeline")
	fs.BoolVar(&o.profile, "profile", false, "print the EXPLAIN ANALYZE join-cost tree")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	queries := fs.Args()
	out := os.Stdout

	if *traceFlag {
		o.trace = tdd.NewTrace()
	}
	// The phase tree prints last, after every phase has run.
	printTrace := func() {
		if o.trace != nil {
			fmt.Fprint(out, o.trace.Tree())
		}
	}

	if *fromSpec != "" {
		if o.profile {
			return fmt.Errorf("-profile needs a TDD file; a saved specification (-fromspec) has no join work to profile")
		}
		data, err := os.ReadFile(*fromSpec)
		if err != nil {
			return err
		}
		sdb, err := tdd.ImportSpec(data)
		if err != nil {
			return err
		}
		if *showPeriod {
			printPeriod(out, sdb.Period())
		}
		for _, q := range queries {
			if _, err := printAnswers(out, sdb, q, o.trace); err != nil {
				return err
			}
		}
		printTrace()
		return nil
	}

	unit := ""
	if o.rules == "" || o.facts == "" {
		if len(queries) == 0 {
			fs.Usage()
			return fmt.Errorf("need a unit file or -rules/-facts")
		}
		unit, queries = queries[0], queries[1:]
	}
	db, _, err := open(unit, o)
	if err != nil {
		return err
	}

	if *showPeriod {
		if err := printDBPeriod(out, db); err != nil {
			return err
		}
	}
	if *showSpec {
		if err := printSpec(out, db); err != nil {
			return err
		}
	}
	if *stateAt >= 0 {
		if err := printState(out, db, *stateAt); err != nil {
			return err
		}
	}
	if *showWork {
		w, err := db.Work()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, w)
	}
	if *saveSpec != "" {
		data, err := db.ExportSpec()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*saveSpec, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "specification written to %s (%d bytes)\n", *saveSpec, len(data))
	}

	for _, q := range queries {
		n, err := printAnswers(out, db, q, o.trace)
		if err != nil {
			return err
		}
		if o.explain && n > 0 {
			tree, err := db.Explain(q, 0)
			if err != nil {
				fmt.Fprintf(out, "(no derivation tree: %v)\n", err)
				continue
			}
			fmt.Fprint(out, tree)
		}
	}
	if o.profile {
		// Queries answered, so whatever certification they triggered is in
		// the profile; render the cost tree after them, like the trace.
		if p := db.ProfileReport(); p != nil {
			fmt.Fprint(out, p.Tree())
		}
	}
	printTrace()
	return nil
}
