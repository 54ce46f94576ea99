// Package clitest holds end-to-end tests for the command-line tools: each
// test builds the real binary and drives it the way a user would.
package clitest

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
)

// binaries builds the tools under test once per test run.
func binaries(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		binDir, buildErr = os.MkdirTemp("", "tddbin")
		if buildErr != nil {
			return
		}
		cmd := exec.Command("go", "build", "-o", binDir, "tdd/cmd/tdd", "tdd/cmd/tddserve", "tdd/cmd/tddload")
		out, err := cmd.CombinedOutput()
		if err != nil {
			buildErr = err
			buildErr = &buildFailure{err: err, out: string(out)}
		}
	})
	if buildErr != nil {
		t.Fatalf("building tools: %v", buildErr)
	}
	return binDir
}

type buildFailure struct {
	err error
	out string
}

func (b *buildFailure) Error() string { return b.err.Error() + "\n" + b.out }

func run(t *testing.T, tool string, args ...string) (string, error) {
	t.Helper()
	return runStdin(t, "", tool, args...)
}

// runStdin is run with the tool's stdin fed from a string.
func runStdin(t *testing.T, stdin, tool string, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(filepath.Join(binaries(t), tool), args...)
	cmd.Stdin = strings.NewReader(stdin)
	out, err := cmd.CombinedOutput()
	return string(out), err
}

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const evenUnit = "even(T+2) :- even(T).\neven(0).\n"

const skiUnit = `
plane(T+7, X) :- plane(T, X), resort(X), offseason(T).
plane(T+2, X) :- plane(T, X), resort(X), winter(T).
offseason(T+10) :- offseason(T).
winter(T+10) :- winter(T).
winter(0..3).
offseason(4..9).
resort(hunter).
plane(0, hunter).
`

func TestQueryYesNo(t *testing.T) {
	// The unit's file name carries no meaning: a *.cfg unit is queried
	// like a *.tdd one.
	for _, name := range []string{"even.tdd", "even.cfg"} {
		file := writeFile(t, name, evenUnit)
		out, err := run(t, "tdd", "query", file, "even(1000000)", "even(3)")
		if err != nil {
			t.Fatalf("%s: %v\n%s", name, err, out)
		}
		if !strings.Contains(out, "?- even(1000000)\nyes") {
			t.Errorf("%s: missing yes answer:\n%s", name, out)
		}
		if !strings.Contains(out, "?- even(3)\nno") {
			t.Errorf("%s: missing no answer:\n%s", name, out)
		}
	}
}

func TestQueryOpenAnswers(t *testing.T) {
	file := writeFile(t, "even.tdd", evenUnit)
	out, err := run(t, "tdd", "query", file, "even(T)")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "T=0") || !strings.Contains(out, "T=2") {
		t.Errorf("missing representative answers:\n%s", out)
	}
}

func TestQuerySpecPeriodStateWork(t *testing.T) {
	file := writeFile(t, "even.tdd", evenUnit)
	out, err := run(t, "tdd", "query", "-spec", "-period", "-state", "4", "-work", file)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"period (b=1, p=2)", "W = {3 -> 1}", "M[4]:", "even", "window="} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestQuerySeparateRulesAndFacts(t *testing.T) {
	rules := writeFile(t, "rules.tdd", "even(T+2) :- even(T).\n")
	facts := writeFile(t, "facts.tdd", "even(0).\n")
	out, err := run(t, "tdd", "query", "-rules", rules, "-facts", facts, "even(8)")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "yes") {
		t.Errorf("output:\n%s", out)
	}
}

func TestQueryErrors(t *testing.T) {
	if out, err := run(t, "tdd", "query", "/nonexistent/file.tdd"); err == nil {
		t.Errorf("missing file accepted:\n%s", out)
	}
	file := writeFile(t, "bad.tdd", "p(")
	if out, err := run(t, "tdd", "query", file); err == nil {
		t.Errorf("syntax error accepted:\n%s", out)
	}
	good := writeFile(t, "even.tdd", evenUnit)
	if out, err := run(t, "tdd", "query", good, "even("); err == nil {
		t.Errorf("bad query accepted:\n%s", out)
	}
}

func TestCheckSki(t *testing.T) {
	file := writeFile(t, "ski.tdd", skiUnit)
	out, err := run(t, "tdd", "check", file)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"multi-separable:", "inflationary:", "tractable"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "multi-separable:                                yes") {
		t.Errorf("ski not reported multi-separable:\n%s", out)
	}
}

func TestCheckIPeriod(t *testing.T) {
	file := writeFile(t, "even.tdd", "even(T+2) :- even(T).\n")
	out, err := run(t, "tdd", "check", "-iperiod", file)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "I-period") || !strings.Contains(out, "p=2") {
		t.Errorf("missing I-period:\n%s", out)
	}
}

func TestCheckLintSection(t *testing.T) {
	// Clean program: the lint section says so explicitly.
	clean := writeFile(t, "even.tdd", evenUnit)
	out, err := run(t, "tdd", "check", clean)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "lint:") || !strings.Contains(out, "clean (no findings)") {
		t.Errorf("missing clean lint section:\n%s", out)
	}

	// Dirty program: findings are listed with their codes and positions.
	dirty := writeFile(t, "dirty.tdd", "p(T+1) :- p(T), q(T).\np(0).\ne(a).\n")
	out, err = run(t, "tdd", "check", dirty)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"TDL001", "TDL002", "TDL003", "1:1"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in lint section:\n%s", want, out)
		}
	}
}

func TestBenchQuick(t *testing.T) {
	out, err := run(t, "tdd", "experiments", "-quick", "E3", "E4")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"== E3:", "== E4:", "claim:", "64"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestBenchUnknownExperiment(t *testing.T) {
	out, err := run(t, "tdd", "experiments", "E99")
	if err == nil {
		t.Errorf("unknown experiment accepted:\n%s", out)
	}
}

func TestReplSession(t *testing.T) {
	file := writeFile(t, "even.tdd", evenUnit)
	out, err := runStdin(t, `
even(4)
even(3)
even(T)
:period
:state 2
:lint
:help
:nonsense
bad query(
:quit
`, "tdd", "repl", file)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"yes", "no", "T=0", "T=2", "period (b=1, p=2)", "M[2]:", "clean (no findings)", "unknown command", "error:", "commands:"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in session:\n%s", want, out)
		}
	}
	// Piped stdin is not a terminal: no prompt is written.
	if strings.Contains(out, "tdd> ") {
		t.Errorf("prompt written to a pipe:\n%s", out)
	}
}

func TestStreamSession(t *testing.T) {
	file := writeFile(t, "ski.tdd", skiUnit)
	s, err := runStdin(t, `
% whistler is not in the database yet.
? exists T plane(T, whistler)
?? plane(1000002, W)
resort(whistler).
plane(0, whistler).
:period
:stats
plane(whoops
:quit
`, "tdd", "repl", file)
	if err != nil {
		t.Fatalf("%v\n%s", err, s)
	}
	for _, want := range []string{
		"?- exists T plane(T, whistler)\nno", // before the stream lands
		"+1 new, 0 dup",                      // each asserted fact reported
		"W=whistler",                         // watch query re-fired after a batch
		"W=hunter",
		"period (b=",
		"trace=", // :stats names the session trace
		"derived=",
		"batch 2: new=1", // per-batch delta stats
		"error:",         // malformed fact line is reported, not fatal
	} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in session:\n%s", want, s)
		}
	}
}

// TestReplDurableResume: under -data an acknowledged batch survives the
// process; a second session on the same unit and directory replays it.
func TestReplDurableResume(t *testing.T) {
	file := writeFile(t, "even.tdd", evenUnit)
	dir := t.TempDir()
	out, err := runStdin(t, "even(1).\n", "tdd", "repl", "-data", dir, file)
	if err != nil || !strings.Contains(out, "+1 new, 0 dup") {
		t.Fatalf("first session: %v\n%s", err, out)
	}
	out, err = runStdin(t, "even(7)\n", "tdd", "repl", "-data", dir, file)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"resumed 1 logged batch(es)", "?- even(7)\nyes"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in resumed session:\n%s", want, out)
		}
	}
}

func TestExamplesEndToEnd(t *testing.T) {
	cases := []struct {
		dir   string
		wants []string
	}{
		{"quickstart", []string{"even(1000000)? true", "T=0", "certified period: (b=1, p=2)"}},
		{"skiresort", []string{"multi-separable: true", "plane on day  3662 to hunter? true"}},
		{"reachability", []string{"inflationary: true", "path(10^6, a, d)? true", "shortest path a -> e: length 2"}},
		{"counter", []string{"tractable=false", "1024"}},
		{"monitoring", []string{"alert(1000000, ingest)? true", "alice", "bob"}},
		{"itinerary", []string{"p=210", "earliest day at port  : 3", "at(100000, port)? true"}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.dir, func(t *testing.T) {
			t.Parallel()
			out, err := exec.Command("go", "run", "tdd/examples/"+c.dir).CombinedOutput()
			if err != nil {
				t.Fatalf("%v\n%s", err, out)
			}
			for _, want := range c.wants {
				if !strings.Contains(string(out), want) {
					t.Errorf("missing %q in output:\n%s", want, out)
				}
			}
		})
	}
}

func TestQueryExplain(t *testing.T) {
	file := writeFile(t, "even.tdd", evenUnit)
	out, err := run(t, "tdd", "query", "-explain", file, "even(6)")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"[by even(T+2) :- even(T). with T=4]", "[database fact]"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
	// Open queries still answer, with a note instead of a tree.
	out, err = run(t, "tdd", "query", "-explain", file, "even(T)")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "no derivation tree") {
		t.Errorf("missing note for open query:\n%s", out)
	}
}

func TestSpecSaveLoad(t *testing.T) {
	file := writeFile(t, "ski.tdd", skiUnit)
	specFile := filepath.Join(t.TempDir(), "ski.spec")
	out, err := run(t, "tdd", "query", "-savespec", specFile, file)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "specification written") {
		t.Errorf("missing confirmation:\n%s", out)
	}
	out, err = run(t, "tdd", "query", "-fromspec", specFile, "-period", "plane(1000002, hunter)", "plane(T, hunter)")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"period (b=", "?- plane(1000002, hunter)\nyes", "T="} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
	if out, err := run(t, "tdd", "query", "-fromspec", "/nonexistent.spec", "p(0)"); err == nil {
		t.Errorf("missing spec file accepted:\n%s", out)
	}
}
