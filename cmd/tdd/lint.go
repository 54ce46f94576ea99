package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"tdd/internal/lint"
)

// runLint implements `tdd lint`: it lints TDD unit files —
// object-language programs and databases. (The checks over this
// repository's own Go sources are tests in internal/gocheck.)
//
//	tdd lint [-format text|json|sarif] [-werror] [-max-window n] file.tdd ...
//
// Diagnostics are coded (TDL001..TDL203), positioned, and severity-ranked;
// see internal/lint for the code table and the paper theorems each code
// leans on. -format sarif emits one SARIF 2.1.0 run for code-scanning
// UIs; -json is shorthand for -format json. Exit status: 0 clean (infos
// allowed), 1 findings at error severity (or warnings under -werror),
// 2 tool failure. Inline suppressions: a `% tddlint:ignore TDL003`
// comment silences the listed codes (or all codes, with none listed) on
// its own and the next line; `% tddlint:export p q` declares the
// program's query surface for the TDL201 relevance pass.
func runLint(args []string) int {
	fs := flag.NewFlagSet("tdd lint", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "shorthand for -format json")
	format := fs.String("format", "text", "output format: text, json, or sarif")
	werror := fs.Bool("werror", false, "treat warnings as errors for the exit status")
	maxWindow := fs.Int("max-window", 0, "certification window budget for the never-fires probe (0 = default)")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if *asJSON {
		*format = "json"
	}
	switch *format {
	case "text", "json", "sarif":
	default:
		fmt.Fprintf(os.Stderr, "tdd lint: unknown format %q (want text, json, or sarif)\n", *format)
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "tdd lint: need at least one unit file")
		fs.Usage()
		return 2
	}

	exit := 0
	results := make(map[string]lint.Result, fs.NArg())
	for _, name := range fs.Args() {
		src, err := os.ReadFile(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tdd lint:", err)
			return 2
		}
		res := lint.RunSource(string(src), lint.Options{MaxWindow: *maxWindow})
		results[name] = res
		errs, warns, _ := res.Counts()
		if errs > 0 || (*werror && warns > 0) {
			exit = 1
		}
		if *format == "text" {
			fmt.Print(res.Format(name))
		}
	}
	switch *format {
	case "json":
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintln(os.Stderr, "tdd lint:", err)
			return 2
		}
	case "sarif":
		out, err := lint.SARIF(fs.Args(), results)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tdd lint:", err)
			return 2
		}
		os.Stdout.Write(out) //nolint:errcheck // stdout
		fmt.Println()
	}
	return exit
}
