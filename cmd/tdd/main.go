// Command tdd is the command-line front end to a temporal deductive
// database: one binary whose subcommands share one way of opening a
// tdd.DB and one printer for each thing it certifies (session.go).
//
//	tdd query [flags] file.tdd [query ...]    answer queries, print the period, spec, states
//	tdd repl [-data DIR] file.tdd             interactive / streaming session on stdin
//	tdd check [-iperiod] rules.tdd            classify a rule set along the paper's axes
//	tdd graph [-json] [-q query] unit.tdd     dependency condensation and relevance slices
//	tdd lint [flags] file.tdd ...             static analysis of unit files
//	tdd experiments [-quick] [E1 E3 ...]      the reproduction experiments E1–E10
//
// Each subcommand's flags are documented above its run function and by
// `tdd <subcommand> -h`.
package main

import (
	"fmt"
	"io"
	"os"
)

func main() { os.Exit(run(os.Args[1:])) }

func usage(w io.Writer) {
	fmt.Fprint(w, `usage: tdd <subcommand> [flags] [arguments]

  query [flags] file.tdd [query ...]   answer queries against the least model
  repl [-data DIR] file.tdd            queries, facts and :commands on stdin
  check [-iperiod] rules.tdd           classify the rule set, then lint the unit
  graph [-json] [-q query] unit.tdd    predicate dependency analysis
  lint [flags] file.tdd ...            static analysis of unit files
  experiments [-quick] [E1 E3 ...]     the paper's reproduction experiments

'tdd <subcommand> -h' lists a subcommand's flags.
`)
}

// run dispatches to a subcommand and returns the process exit status: 0,
// 1 for a failure the subcommand reports (for lint: findings), 2 for a
// misuse of the tool itself.
func run(args []string) int {
	if len(args) == 0 {
		usage(os.Stderr)
		return 2
	}
	sub, rest := args[0], args[1:]
	var err error
	switch sub {
	case "query":
		err = runQuery(rest)
	case "repl":
		err = runRepl(rest)
	case "check":
		err = runCheck(rest)
	case "graph":
		err = runGraph(rest)
	case "lint":
		return runLint(rest)
	case "experiments":
		err = runExperiments(rest)
	case "help", "-h", "-help", "--help":
		usage(os.Stdout)
		return 0
	default:
		fmt.Fprintf(os.Stderr, "tdd: unknown subcommand %q\n", sub)
		usage(os.Stderr)
		return 2
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tdd %s: %v\n", sub, err)
		return 1
	}
	return 0
}
