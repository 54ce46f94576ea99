package main

import (
	"fmt"
	"io"
	"os"

	"tdd"
)

// The session: how every subcommand opens a database, and the one printer
// for each thing a database reports. `tdd query` prints to stdout and
// stops at the first error; `tdd repl` prints to its session writer and
// reports the error on it — both go through these functions.

// openOptions is what an Open can be asked for on the command line.
type openOptions struct {
	rules, facts string     // -rules / -facts: read the two halves from these files
	window       int        // -window: period-certification budget (0 = default)
	explain      bool       // -explain: record provenance for derivation trees
	profile      bool       // -profile: record the join-cost profile
	trace        *tdd.Trace // -trace (or the repl's session trace); nil for none
}

// open opens a database: the -rules/-facts pair when unit is "", else the
// unit file. It also returns the unit source as written ("" for a pair),
// which lint positions and inline suppressions refer to.
func open(unit string, o openOptions) (*tdd.DB, string, error) {
	var opts []tdd.Option
	if o.window > 0 {
		opts = append(opts, tdd.WithMaxWindow(o.window))
	}
	if o.explain {
		opts = append(opts, tdd.WithProvenance())
	}
	if o.trace != nil {
		opts = append(opts, tdd.WithTrace(o.trace))
	}
	if o.profile {
		opts = append(opts, tdd.WithProfile())
	}
	if unit != "" {
		src, err := os.ReadFile(unit)
		if err != nil {
			return nil, "", err
		}
		db, err := tdd.OpenUnit(string(src), opts...)
		return db, string(src), err
	}
	rules, err := os.ReadFile(o.rules)
	if err != nil {
		return nil, "", err
	}
	facts, err := os.ReadFile(o.facts)
	if err != nil {
		return nil, "", err
	}
	db, err := tdd.Open(string(rules), string(facts), opts...)
	return db, "", err
}

func printPeriod(w io.Writer, p tdd.Period) { fmt.Fprintf(w, "period %v\n", p) }

func printDBPeriod(w io.Writer, db *tdd.DB) error {
	p, err := db.Period()
	if err != nil {
		return err
	}
	printPeriod(w, p)
	return nil
}

func printSpec(w io.Writer, db *tdd.DB) error {
	s, err := db.Specification()
	if err != nil {
		return err
	}
	_, err = fmt.Fprint(w, s)
	return err
}

func printState(w io.Writer, db *tdd.DB, t int) error {
	state, err := db.StateAt(t)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "M[%d]:\n", t)
	for _, f := range state {
		fmt.Fprintf(w, "  %s\n", f)
	}
	return nil
}

// answerer is what printAnswers needs of a query processor: a live DB and
// a specification imported with -fromspec both have it.
type answerer interface {
	AnswersLimitTrace(q string, max int, tr *tdd.Trace) ([]tdd.Answer, error)
}

// printAnswers evaluates q and prints "?- q" followed by yes, no, or the
// answer substitutions; it returns how many answers there were.
func printAnswers(w io.Writer, a answerer, q string, tr *tdd.Trace) (int, error) {
	ans, err := a.AnswersLimitTrace(q, 0, tr)
	if err != nil {
		return 0, fmt.Errorf("query %q: %w", q, err)
	}
	fmt.Fprintf(w, "?- %s\n", q)
	if len(ans) == 0 {
		fmt.Fprintln(w, "no")
	} else {
		fmt.Fprint(w, tdd.FormatAnswers(ans))
	}
	return len(ans), nil
}

// printLint lists the Tier-A findings of one unit, each line behind indent.
func printLint(w io.Writer, indent string, res tdd.LintResult) {
	if len(res.Diagnostics) == 0 {
		fmt.Fprintf(w, "%sclean (no findings)\n", indent)
	}
	for _, d := range res.Diagnostics {
		fmt.Fprintf(w, "%s%s\n", indent, d)
	}
	if res.Suppressed > 0 {
		fmt.Fprintf(w, "%s(%d finding(s) suppressed by tddlint:ignore)\n", indent, res.Suppressed)
	}
}
