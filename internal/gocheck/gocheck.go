// Package gocheck holds the syntactic checks over this repository's own
// Go sources that no dynamic test replaces: maprange (map iteration
// feeding an unsorted ordered output) and clonecheck (a Clone or Snapshot
// method that ignores a map or slice field). Both guard the engine's
// determinism and copy-on-write contracts, and both caught seeded bugs
// that every test, the race detector and the model oracle missed
// (EXPERIMENTS.md E27). TestTree runs them over the module on every
// go test; the import ban on clocks and randomness in fixpoint code is
// TestFixpointImports.
//
// The framework is go/analysis-shaped (Analyzer, Pass, Report) but built
// on the standard library's go/ast and go/parser only: this module has
// no dependencies. Analysis is therefore syntactic, one package at a
// time, with no type checker, and each checker documents the
// approximations it makes.
package gocheck

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"sort"
	"strings"
)

// Analyzer is one named check over a parsed package.
type Analyzer struct {
	Name string
	Doc  string
	// AppliesTo reports whether the analyzer wants to see the package
	// with the given import path. Analyzers scope themselves to the
	// subsystems whose invariants they guard.
	AppliesTo func(importPath string) bool
	Run       func(p *Pass)
}

// Pass hands an analyzer a parsed package and collects its findings.
type Pass struct {
	Fset       *token.FileSet
	Files      []*ast.File
	ImportPath string

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	position := p.Fset.Position(pos)
	p.diags = append(p.diags, Diagnostic{
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Message: fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, formatted file:line:col like vet.
type Diagnostic struct {
	Analyzer string
	File     string
	Line     int
	Col      int
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.File, d.Line, d.Col, d.Message, d.Analyzer)
}

// Analyzers is the check suite, in reporting order.
var Analyzers = []*Analyzer{MapRange, CloneCheck}

// underTDD reports whether path is this module or a package under it.
func underTDD(path string, subs ...string) bool {
	for _, s := range subs {
		if path == s || strings.HasPrefix(path, s+"/") {
			return true
		}
	}
	return false
}

// RunFiles parses the named Go files as one package and runs every
// analyzer that applies to importPath. Test files (_test.go) are skipped:
// tests may intentionally exercise nondeterminism or build fixtures
// without locks. Findings come back sorted by file, line, column.
func RunFiles(importPath string, fileNames []string) ([]Diagnostic, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range fileNames {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	var all []Diagnostic
	for _, a := range Analyzers {
		if a.AppliesTo != nil && !a.AppliesTo(importPath) {
			continue
		}
		p := &Pass{Fset: fset, Files: files, ImportPath: importPath}
		a.Run(p)
		for _, d := range p.diags {
			d.Analyzer = a.Name
			all = append(all, d)
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Message < b.Message
	})
	return all, nil
}
