package gocheck

import (
	"errors"
	"go/build"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// moduleRoot is the repository root, relative to this package.
const moduleRoot = "../.."

// TestTree runs the analyzers over every package of the module, with the
// files go build would compile (build tags honoured), and fails on any
// finding. go test re-runs it when a source it read changes.
func TestTree(t *testing.T) {
	err := filepath.WalkDir(moduleRoot, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != moduleRoot && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		pkg, err := build.ImportDir(dir, 0)
		if errors.As(err, new(*build.NoGoError)) {
			return nil
		} else if err != nil {
			return err
		}
		rel, err := filepath.Rel(moduleRoot, dir)
		if err != nil {
			return err
		}
		var files []string
		for _, f := range pkg.GoFiles {
			files = append(files, filepath.Join(dir, f))
		}
		diags, err := RunFiles(path.Join("tdd", filepath.ToSlash(rel)), files)
		for _, d := range diags {
			t.Error(d)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// fixpointPackages are the packages under internal/ whose output must be
// a pure function of program and database: derived-fact order, Stats and
// fingerprints are compared across runs, clone lineages, and a leader and
// its follower. Only wal may read the clock, for its fsync ticker and
// snapshot ages; no model-visible value derives from it.
var fixpointPackages = []string{"engine", "core", "inc", "progan", "wal"}

// detfix returns the imports of the package in dir that would make it
// nondeterministic as internal/pkg: wall-clock time, randomness, and
// hash/maphash, whose seed is drawn per process. Banning the import bans
// every use. Other packages may import anything.
func detfix(t *testing.T, pkg, dir string) (bad []string) {
	t.Helper()
	p, err := build.ImportDir(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range p.Imports {
		if slices.Contains(fixpointPackages, pkg) && slices.Contains([]string{"time", "math/rand", "math/rand/v2", "hash/maphash"}, imp) && !(imp == "time" && pkg == "wal") {
			bad = append(bad, imp)
		}
	}
	return bad
}

// detfixFixture runs detfix on a one-file package internal/pkg that
// imports imports.
func detfixFixture(t *testing.T, pkg, imports string) []string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "fixture.go"), []byte("package "+pkg+"\nimport ("+imports+")\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return detfix(t, pkg, dir)
}

// TestFixpointImports runs detfix on the fixpoint packages of this tree.
func TestFixpointImports(t *testing.T) {
	for _, pkg := range fixpointPackages {
		if bad := detfix(t, pkg, filepath.Join(moduleRoot, "internal", pkg)); len(bad) != 0 {
			t.Errorf("internal/%s imports %q: fixpoint code must be deterministic", pkg, bad)
		}
	}
}

func TestDetFixBansTimeImportInFixpointCode(t *testing.T) {
	if bad := detfixFixture(t, "engine", `"time"`); !slices.Equal(bad, []string{"time"}) {
		t.Fatalf("findings = %v, want the time import", bad)
	}
	if bad := detfixFixture(t, "obs", `"time"`); len(bad) != 0 {
		t.Fatalf("obs may import time, got %v", bad)
	}
}

func TestDetFixBansMathRand(t *testing.T) {
	if bad := detfixFixture(t, "core", `"math/rand"; "math/rand/v2"`); !slices.Equal(bad, []string{"math/rand", "math/rand/v2"}) {
		t.Fatalf("findings = %v, want both rand imports", bad)
	}
}

// A fingerprint seeded per process differs between runs and between a
// leader and its follower.
func TestDetFixBansPerProcessHashSeeds(t *testing.T) {
	if bad := detfixFixture(t, "engine", `"hash/maphash"`); !slices.Equal(bad, []string{"hash/maphash"}) {
		t.Fatalf("findings = %v, want the hash/maphash import", bad)
	}
	if bad := detfixFixture(t, "server", `"hash/maphash"`); len(bad) != 0 {
		t.Fatalf("server may import hash/maphash, got %v", bad)
	}
}

// internal/inc sits on the ingestion path; it inherits the full ban.
func TestDetFixCoversIncrementalPipeline(t *testing.T) {
	if bad := detfixFixture(t, "inc", `"time"`); len(bad) == 0 {
		t.Fatal("internal/inc must be in detfix scope")
	}
}

// The wal allowlist covers "time" only: randomness stays banned there.
func TestDetFixWALWallClockAllowlist(t *testing.T) {
	if bad := detfixFixture(t, "wal", `"time"; "math/rand"`); !slices.Equal(bad, []string{"math/rand"}) {
		t.Fatalf("findings = %v, want only the math/rand import", bad)
	}
}

// The join-order planner must be a pure function of the compiled rules and
// the store's cardinality counters: one that timed candidate orders would
// pick different plans run to run and break PlanFingerprint. detfix covers
// it as long as plan.go lives in internal/engine.
func TestDetFixBansWallClockInJoinPlanner(t *testing.T) {
	pkg, err := build.ImportDir(filepath.Join(moduleRoot, "internal", "engine"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(pkg.GoFiles, "plan.go") || len(detfixFixture(t, "engine", `"time"`)) == 0 {
		t.Fatalf("the planner (engine files %v) must be in detfix scope", pkg.GoFiles)
	}
}

// lintFixture writes src as a one-file package in a temp dir, runs the
// suite against importPath, and returns the findings.
func lintFixture(t *testing.T, importPath, src string) []Diagnostic {
	t.Helper()
	dir := t.TempDir()
	file := filepath.Join(dir, "fixture.go")
	if err := os.WriteFile(file, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	diags, err := RunFiles(importPath, []string{file})
	if err != nil {
		t.Fatal(err)
	}
	return diags
}

func analyzers(diags []Diagnostic) []string {
	var out []string
	for _, d := range diags {
		out = append(out, d.Analyzer)
	}
	return out
}

// unsortedCollect returns a map's keys in map order.
const unsortedCollect = `package engine
func collect(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
`

func TestMapRangeFlagsUnsortedAppend(t *testing.T) {
	diags := lintFixture(t, "tdd/internal/engine", unsortedCollect)
	if got := analyzers(diags); len(got) != 1 || got[0] != "maprange" {
		t.Fatalf("diagnostics = %v, want one maprange finding", diags)
	}
}

func TestMapRangeAllowsSortedFunction(t *testing.T) {
	diags := lintFixture(t, "tdd/internal/engine", `package engine
import "sort"
func collect(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
`)
	if len(diags) != 0 {
		t.Fatalf("sorted function flagged: %v", diags)
	}
}

func TestMapRangeWaiver(t *testing.T) {
	diags := lintFixture(t, "tdd/internal/server", `package server
func collect(m map[string]int) []string {
	var out []string
	//tddlint:unordered
	for k := range m {
		out = append(out, k)
	}
	return out
}
`)
	if len(diags) != 0 {
		t.Fatalf("waived range flagged: %v", diags)
	}
}

func TestMapRangeScopedToResponsePackages(t *testing.T) {
	diags := lintFixture(t, "tdd/internal/obs", strings.Replace(unsortedCollect, "package engine", "package obs", 1))
	if len(diags) != 0 {
		t.Fatalf("out-of-scope package flagged: %v", diags)
	}
}

func TestRunFilesSkipsTestFiles(t *testing.T) {
	file := filepath.Join(t.TempDir(), "fixture_test.go")
	if err := os.WriteFile(file, []byte(unsortedCollect), 0o644); err != nil {
		t.Fatal(err)
	}
	diags, err := RunFiles("tdd/internal/engine", []string{file})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("test file analyzed: %v", diags)
	}
}

const snapBox = `package engine
type Snap struct {
	n     int
	cells map[string]int
	rows  []int
}
`

func TestCloneCheckFlagsIgnoredAliasFields(t *testing.T) {
	diags := lintFixture(t, "tdd/internal/engine", snapBox+`
func (s *Snap) Clone() *Snap { return &Snap{n: s.n} }
`)
	if got := analyzers(diags); len(got) != 2 || got[0] != "clonecheck" || got[1] != "clonecheck" {
		t.Fatalf("diagnostics = %v, want clonecheck findings for cells and rows", diags)
	}
	for _, d := range diags {
		if !strings.Contains(d.Message, `"cells"`) && !strings.Contains(d.Message, `"rows"`) {
			t.Errorf("finding names neither field: %v", d)
		}
	}
}

func TestCloneCheckAcceptsMentionedFields(t *testing.T) {
	diags := lintFixture(t, "tdd/internal/engine", snapBox+`
func (s *Snap) Clone() *Snap {
	c := &Snap{n: s.n, rows: append([]int(nil), s.rows...)}
	c.cells = make(map[string]int, len(s.cells))
	for k, v := range s.cells {
		c.cells[k] = v
	}
	return c
}
`)
	if len(diags) != 0 {
		t.Fatalf("deep-copying clone flagged: %v", diags)
	}
}

func TestCloneCheckWaivers(t *testing.T) {
	// Doc-comment waiver for one field, inline for the other; both the
	// shares and resets spellings count.
	diags := lintFixture(t, "tdd/internal/engine", snapBox+`
// Clone shares the immutable cell table.
//
//tddlint:shares cells
func (s *Snap) Clone() *Snap {
	//tddlint:resets rows -- rebuilt lazily
	return &Snap{n: s.n}
}
`)
	if len(diags) != 0 {
		t.Fatalf("waived fields flagged: %v", diags)
	}
}

func TestCloneCheckNamedSliceTypeAndValueReceiver(t *testing.T) {
	diags := lintFixture(t, "tdd/internal/engine", `package engine
type rowList []int
type Snap struct {
	rows rowList
}
func (s Snap) Clone() Snap { return Snap{} }
`)
	if got := analyzers(diags); len(got) != 1 || got[0] != "clonecheck" {
		t.Fatalf("diagnostics = %v, want one clonecheck finding for the named slice field", diags)
	}
}

func TestCloneCheckExemptsProjections(t *testing.T) {
	// A Snapshot that returns a different type is a projection, not a
	// copy constructor; it owes nothing to the receiver's fields.
	diags := lintFixture(t, "tdd/internal/engine", snapBox+`
func (s *Snap) Snapshot() []int { return append([]int(nil), s.rows...) }
`)
	if len(diags) != 0 {
		t.Fatalf("projection flagged: %v", diags)
	}
}

func TestCloneCheckScoped(t *testing.T) {
	diags := lintFixture(t, "tdd/internal/server", snapBox+`
func (s *Snap) Clone() *Snap { return &Snap{n: s.n} }
`)
	if len(diags) != 0 {
		t.Fatalf("out-of-scope package flagged: %v", diags)
	}
}
