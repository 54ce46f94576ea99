package gocheck

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// lintFixture writes src as a one-file package in a temp dir, runs the
// suite against importPath, and returns the findings' analyzer names.
func lintFixture(t *testing.T, importPath, src string) []Diagnostic {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "fixture.go")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	diags, err := RunFiles(importPath, []string{path})
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

func TestMapRangeFlagsUnsortedAppend(t *testing.T) {
	diags := lintFixture(t, "tdd/internal/engine", `package engine
func collect(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
`)
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
	diags := lintFixture(t, "tdd/internal/obs", `package obs
func collect(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
`)
	if len(diags) != 0 {
		t.Fatalf("out-of-scope package flagged: %v", diags)
	}
}

func TestDetFixBansTimeImportInFixpointCode(t *testing.T) {
	src := `package engine
import "time"
func now() time.Time { return time.Now() }
`
	diags := lintFixture(t, "tdd/internal/engine", src)
	if len(diags) < 2 {
		t.Fatalf("diagnostics = %v, want import + time.Now findings", diags)
	}
	for _, d := range diags {
		if d.Analyzer != "detfix" {
			t.Errorf("unexpected analyzer %q", d.Analyzer)
		}
	}
	// The same file is fine outside the fixpoint packages.
	if out := lintFixture(t, "tdd/internal/obs", strings.Replace(src, "package engine", "package obs", 1)); len(out) != 0 {
		t.Fatalf("obs may import time, got %v", out)
	}
}

func TestDetFixBansMathRand(t *testing.T) {
	diags := lintFixture(t, "tdd/internal/core", `package core
import "math/rand"
func pick() int { return rand.Int() }
`)
	if len(diags) < 2 {
		t.Fatalf("diagnostics = %v, want import + rand.Int findings", diags)
	}
	for _, d := range diags {
		if d.Analyzer != "detfix" {
			t.Errorf("unexpected analyzer %q", d.Analyzer)
		}
	}
}

func TestDetFixBansPerProcessHashSeeds(t *testing.T) {
	// A fingerprint seeded per process differs between runs and between a
	// leader and its follower.
	src := `package engine
import "hash/maphash"
var seed = maphash.MakeSeed()
func hash(s string) uint64 { return maphash.String(seed, s) }
`
	diags := lintFixture(t, "tdd/internal/engine", src)
	if len(diags) != 1 || diags[0].Analyzer != "detfix" || !strings.Contains(diags[0].Message, "hash/maphash") {
		t.Fatalf("diagnostics = %v, want one detfix finding on the hash/maphash import", diags)
	}
	// Outside the fixpoint packages the import is nobody's business.
	if out := lintFixture(t, "tdd/internal/server", strings.Replace(src, "package engine", "package server", 1)); len(out) != 0 {
		t.Fatalf("server may import hash/maphash, got %v", out)
	}
}

func TestDetFixCoversIncrementalPipeline(t *testing.T) {
	// internal/inc sits on the ingestion path; it inherits the full ban.
	diags := lintFixture(t, "tdd/internal/inc", `package inc
import "time"
func now() time.Time { return time.Now() }
`)
	if len(diags) == 0 {
		t.Fatal("internal/inc must be in detfix scope")
	}
}

func TestDetFixWALWallClockAllowlist(t *testing.T) {
	// internal/wal is on the explicit wall-clock allowlist: its fsync
	// ticker and snapshot ages need the clock, and nothing model-visible
	// derives from it.
	clock := `package wal
import "time"
func tick() time.Time { return time.Now() }
`
	if diags := lintFixture(t, "tdd/internal/wal", clock); len(diags) != 0 {
		t.Fatalf("wal wall clock should be allowlisted, got %v", diags)
	}
	// The allowlist covers "time" only — randomness stays banned in wal.
	diags := lintFixture(t, "tdd/internal/wal", `package wal
import "math/rand"
func pick() int { return rand.Int() }
`)
	if len(diags) < 2 {
		t.Fatalf("wal math/rand must stay banned (import + selector), got %v", diags)
	}
	for _, d := range diags {
		if d.Analyzer != "detfix" {
			t.Errorf("unexpected analyzer %q", d.Analyzer)
		}
	}
	// The selector belt-and-braces must also survive the allowlist: a
	// rand use routed through a wrapper import (no banned import line to
	// flag) stays caught even in the clock-exempt package.
	diags = lintFixture(t, "tdd/internal/wal", `package wal
import "tdd/internal/fakewrap/rand"
func pick() int { return rand.Int() }
`)
	if got := analyzers(diags); len(got) != 1 || got[0] != "detfix" {
		t.Fatalf("wrapper-routed rand selector in wal must be flagged, got %v", diags)
	}
}

const guardedStruct = `package core
import "sync"
type box struct {
	mu  sync.Mutex
	val int // guarded-by: mu
}
`

func TestGuardedByFlagsUnlockedAccess(t *testing.T) {
	diags := lintFixture(t, "tdd/internal/core", guardedStruct+`
func (b *box) peek() int { return b.val }
`)
	if got := analyzers(diags); len(got) != 1 || got[0] != "guardedby" {
		t.Fatalf("diagnostics = %v, want one guardedby finding", diags)
	}
}

func TestGuardedByAcceptsLockAndHoldsAnnotation(t *testing.T) {
	diags := lintFixture(t, "tdd/internal/core", guardedStruct+`
func (b *box) get() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.val
}

// getLocked returns the value.
//
//tddlint:holds mu
func (b *box) getLocked() int { return b.val }
`)
	if len(diags) != 0 {
		t.Fatalf("locked/annotated access flagged: %v", diags)
	}
}

func TestVetMainProtocol(t *testing.T) {
	var out, errOut strings.Builder

	if code := VetMain([]string{"-flags"}, &out, &errOut); code != 0 || strings.TrimSpace(out.String()) != "[]" {
		t.Fatalf("-flags: code %d out %q", code, out.String())
	}
	out.Reset()
	if code := VetMain([]string{"-V=full"}, &out, &errOut); code != 0 || !strings.HasPrefix(out.String(), "tddlint version ") {
		t.Fatalf("-V=full: code %d out %q", code, out.String())
	}

	// A VetxOnly dependency package: must create the facts file and stay
	// silent even if its sources would trip a checker.
	dir := t.TempDir()
	src := filepath.Join(dir, "dep.go")
	if err := os.WriteFile(src, []byte("package dep\nimport _ \"time\"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	vetx := filepath.Join(dir, "dep.vetx")
	cfg := filepath.Join(dir, "vet.cfg")
	writeCfg := func(importPath string, vetxOnly bool) {
		b, err := json.Marshal(map[string]any{
			"ImportPath": importPath,
			"GoFiles":    []string{src},
			"VetxOnly":   vetxOnly,
			"VetxOutput": vetx,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(cfg, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	writeCfg("tdd/internal/engine", true)
	errOut.Reset()
	if code := VetMain([]string{cfg}, &out, &errOut); code != 0 {
		t.Fatalf("VetxOnly pass: code %d stderr %q", code, errOut.String())
	}
	if _, err := os.Stat(vetx); err != nil {
		t.Fatalf("facts file not created: %v", err)
	}

	// The same package analyzed for real: detfix fires, exit 2, finding on
	// stderr.
	os.Remove(vetx)
	writeCfg("tdd/internal/engine", false)
	errOut.Reset()
	if code := VetMain([]string{cfg}, &out, &errOut); code != 2 {
		t.Fatalf("analysis pass: code %d stderr %q", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "detfix") {
		t.Fatalf("stderr %q does not name detfix", errOut.String())
	}
	if _, err := os.Stat(vetx); err != nil {
		t.Fatalf("facts file not created on diagnostic exit: %v", err)
	}

	// Foreign packages are skipped entirely.
	writeCfg("example.com/other", false)
	errOut.Reset()
	if code := VetMain([]string{cfg}, &out, &errOut); code != 0 {
		t.Fatalf("foreign package: code %d stderr %q", code, errOut.String())
	}
}

func TestIsVetInvocation(t *testing.T) {
	for _, args := range [][]string{{"-flags"}, {"-V=full"}, {"/tmp/x/vet.cfg"}} {
		if !IsVetInvocation(args) {
			t.Errorf("IsVetInvocation(%v) = false", args)
		}
	}
	for _, args := range [][]string{{}, {"file.tdd"}, {"-json", "file.tdd"}} {
		if IsVetInvocation(args) {
			t.Errorf("IsVetInvocation(%v) = true", args)
		}
	}
}

func TestRunFilesSkipsTestFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fixture_test.go")
	if err := os.WriteFile(path, []byte("package engine\nimport _ \"time\"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	diags, err := RunFiles("tdd/internal/engine", []string{path})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("test file analyzed: %v", diags)
	}
}

// The join-order planner (engine/plan.go) must be a pure function of the
// compiled rules and the store's cardinality counters: a planner that
// consulted the wall clock (say, to time candidate orders) would pick
// different plans run to run and break the PlanFingerprint determinism
// contract. detfix covers it because it lives in internal/engine.
func TestDetFixBansWallClockInJoinPlanner(t *testing.T) {
	diags := lintFixture(t, "tdd/internal/engine", `package engine
import "time"
type planStepX struct{ lit int }
func planRuleX(costs []int) []planStepX {
	deadline := time.Now().Add(time.Millisecond)
	var out []planStepX
	for i := range costs {
		if time.Now().After(deadline) {
			break
		}
		out = append(out, planStepX{lit: i})
	}
	return out
}
`)
	if len(diags) < 2 {
		t.Fatalf("diagnostics = %v, want import + time.Now findings in planner code", diags)
	}
	for _, d := range diags {
		if d.Analyzer != "detfix" {
			t.Errorf("unexpected analyzer %q", d.Analyzer)
		}
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
