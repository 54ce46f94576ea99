package gocheck

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// VetMain implements the `go vet -vettool=<binary>` wire protocol with
// the standard library only (golang.org/x/tools/go/analysis/unitchecker
// is not available in this module). The protocol, as spoken by cmd/go:
//
//  1. `tool -flags` — print a JSON array describing the tool's flags
//     (ours has none, so "[]").
//  2. `tool -V=full` — print "name version buildid"; go vet folds this
//     into its action cache key.
//  3. `tool <dir>/vet.cfg` — once per package in the build graph,
//     dependencies included. The cfg is JSON carrying ImportPath,
//     GoFiles, VetxOnly (true for pure dependency passes), and
//     VetxOutput, a path the tool MUST create (cmd/go stats it; missing
//     output fails the build). Facts go there in the real unitchecker;
//     our analyzers are package-local, so an empty file satisfies the
//     contract.
//
// Diagnostics print to stderr as file:line:col lines and the process
// exits 2, which go vet reports per package. Exit 0 means clean.
//
// VetMain returns the process exit code; it is the entire main of
// cmd/tdd when invoked by go vet (detected by the caller via the
// -flags/-V=/\*.cfg argument shapes).
func VetMain(args []string, stdout, stderr io.Writer) int {
	if len(args) == 1 {
		switch {
		case args[0] == "-flags":
			fmt.Fprintln(stdout, "[]")
			return 0
		case strings.HasPrefix(args[0], "-V="):
			fmt.Fprintf(stdout, "tddlint version tdd-gocheck-1\n")
			return 0
		}
	}
	cfgPath := ""
	for _, a := range args {
		if strings.HasSuffix(a, ".cfg") {
			cfgPath = a
		}
	}
	if cfgPath == "" {
		fmt.Fprintf(stderr, "tddlint: vet mode expects -flags, -V=full, or a *.cfg argument, got %q\n", args)
		return 1
	}
	var cfg vetConfig
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(stderr, "tddlint: %v\n", err)
		return 1
	}
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(stderr, "tddlint: %s: %v\n", cfgPath, err)
		return 1
	}
	// The facts file must exist whether or not we analyze this package.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			fmt.Fprintf(stderr, "tddlint: %v\n", err)
			return 1
		}
	}
	// Dependency passes (VetxOnly) and foreign packages need no analysis;
	// this keeps the sweep over ./... fast even though go vet feeds us
	// the whole standard library.
	if cfg.VetxOnly || !underTDD(cfg.ImportPath, "tdd") {
		return 0
	}
	diags, err := RunFiles(cfg.ImportPath, cfg.GoFiles)
	if err != nil {
		fmt.Fprintf(stderr, "tddlint: %s: %v\n", cfg.ImportPath, err)
		return 1
	}
	if len(diags) == 0 {
		return 0
	}
	for _, d := range diags {
		fmt.Fprintln(stderr, d.String())
	}
	return 2
}

// vetConfig is the subset of cmd/go's vet.cfg JSON the tool consumes.
type vetConfig struct {
	ImportPath string
	GoFiles    []string
	VetxOnly   bool
	VetxOutput string
}

// IsVetInvocation reports whether the argument list looks like a go vet
// callback rather than a subcommand, so cmd/tdd can serve both from one
// binary.
func IsVetInvocation(args []string) bool {
	if len(args) == 1 && (args[0] == "-flags" || strings.HasPrefix(args[0], "-V=")) {
		return true
	}
	for _, a := range args {
		if strings.HasSuffix(a, ".cfg") {
			return true
		}
	}
	return false
}
