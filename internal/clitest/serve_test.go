package clitest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// startServe boots tddserve on an ephemeral port and returns its base
// URL. The server is sent SIGTERM and waited for at test cleanup.
func startServe(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(binaries(t), "tddserve"),
		append([]string{"-addr", "127.0.0.1:0", "-quiet"}, args...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = nil
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("tddserve did not exit cleanly: %v", err)
			}
		case <-time.After(10 * time.Second):
			cmd.Process.Kill() //nolint:errcheck
			t.Error("tddserve did not shut down within 10s of SIGTERM")
		}
	})

	// The boot banner carries the resolved ephemeral address:
	// "tddserve: listening on http://127.0.0.1:PORT". Preload lines may
	// precede it.
	scanner := bufio.NewScanner(stdout)
	deadline := time.Now().Add(15 * time.Second)
	for scanner.Scan() {
		line := scanner.Text()
		if i := strings.Index(line, "listening on "); i >= 0 {
			return strings.TrimSpace(line[i+len("listening on "):])
		}
		if time.Now().After(deadline) {
			break
		}
	}
	t.Fatalf("tddserve never printed its listen address (scan err: %v)", scanner.Err())
	return ""
}

func TestServeAskRoundTrip(t *testing.T) {
	base := startServe(t)

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d, want 200", resp.StatusCode)
	}

	// Register the quickstart even program.
	body, _ := json.Marshal(map[string]string{"unit": evenUnit})
	resp, err = http.Post(base+"/programs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var reg struct {
		ID     string `json:"id"`
		Period struct {
			Base int `json:"base"`
			P    int `json:"p"`
		} `json:"period"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reg); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: status %d, want 201", resp.StatusCode)
	}
	if reg.Period.Base != 1 || reg.Period.P != 2 {
		t.Errorf("period = (b=%d, p=%d), want (b=1, p=2)", reg.Period.Base, reg.Period.P)
	}

	// Ask round-trip: a deep ground query answered from the cached spec.
	ask := func(query string) bool {
		t.Helper()
		body, _ := json.Marshal(map[string]string{"query": query})
		resp, err := http.Post(fmt.Sprintf("%s/programs/%s/ask", base, reg.ID),
			"application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var ar struct {
			Result bool   `json:"result"`
			Engine string `json:"engine"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ask %s: status %d", query, resp.StatusCode)
		}
		if ar.Engine != "spec" {
			t.Errorf("ask %s answered by %q, want the spec cache", query, ar.Engine)
		}
		return ar.Result
	}
	if !ask("even(1000000)") {
		t.Error("even(1000000) should hold")
	}
	if ask("even(999999)") {
		t.Error("even(999999) should not hold")
	}
}

func TestServeLintSurface(t *testing.T) {
	base := startServe(t)

	// A registerable program with deliberate lint findings: q is undefined
	// (TDL001, warning) which also makes the rule unreachable (TDL003,
	// warning), and e is an unused db predicate (TDL002, info).
	dirty := "p(T+1) :- p(T), q(T).\np(0).\ne(a).\n"
	body, _ := json.Marshal(map[string]string{"unit": dirty})
	resp, err := http.Post(base+"/programs?lint=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.Get("X-Trace-Id") == "" {
		t.Error("register response lost its X-Trace-Id header")
	}
	var reg struct {
		ID           string `json:"id"`
		LintWarnings int    `json:"lint_warnings"`
		Lint         *struct {
			Diagnostics []struct {
				Code     string `json:"code"`
				Severity string `json:"severity"`
				Line     int    `json:"line"`
				Message  string `json:"message"`
			} `json:"diagnostics"`
		} `json:"lint"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reg); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: status %d, want 201", resp.StatusCode)
	}
	if reg.LintWarnings < 2 {
		t.Errorf("lint_warnings = %d, want >= 2 (TDL001 + TDL003)", reg.LintWarnings)
	}
	if reg.Lint == nil {
		t.Fatal("?lint=1 register response has no lint payload")
	}
	seen := map[string]bool{}
	for _, d := range reg.Lint.Diagnostics {
		seen[d.Code] = true
		if d.Message == "" || d.Severity == "" {
			t.Errorf("diagnostic %+v missing message or severity", d)
		}
	}
	for _, want := range []string{"TDL001", "TDL002", "TDL003"} {
		if !seen[want] {
			t.Errorf("lint payload missing %s (got %v)", want, seen)
		}
	}

	// Without ?lint=1 the count is still present but the list is elided.
	resp, err = http.Post(base+"/programs", "application/json", bytes.NewReader(mustJSON(t, map[string]string{"unit": dirty})))
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, ok := raw["lint_warnings"]; !ok {
		t.Error("register response without ?lint=1 lost lint_warnings")
	}
	if _, ok := raw["lint"]; ok {
		t.Error("register response without ?lint=1 should omit the lint list")
	}

	// The warning total is a first-class metric on both surfaces.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		LintWarnings int64 `json:"lint_warnings"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.LintWarnings < 2 {
		t.Errorf("/metrics lint_warnings = %d, want >= 2", snap.LintWarnings)
	}

	resp, err = http.Get(base + "/metrics.prom")
	if err != nil {
		t.Fatal(err)
	}
	prom := new(bytes.Buffer)
	prom.ReadFrom(resp.Body) //nolint:errcheck
	resp.Body.Close()
	if !strings.Contains(prom.String(), "tddserve_lint_warnings") {
		t.Error("/metrics.prom has no tddserve_lint_warnings gauge")
	}
	if !strings.Contains(prom.String(), "tddserve_program_lint_warnings") {
		t.Error("/metrics.prom has no per-program lint gauge")
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestServePreload(t *testing.T) {
	file := writeFile(t, "even.tdd", evenUnit)
	base := startServe(t, file)

	resp, err := http.Get(base + "/programs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Programs []string `json:"programs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Programs) != 1 {
		t.Fatalf("preloaded programs = %v, want exactly one", list.Programs)
	}
}

// The parallel schedule and its -parallel flag are gone; a deployment
// script still passing the flag must fail loudly with the standard
// unknown-flag usage error rather than silently run sequentially.
func TestServeRejectsRemovedParallelFlag(t *testing.T) {
	out, err := run(t, "tddserve", "-addr", "127.0.0.1:0", "-parallel", "2")
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("tddserve -parallel 2: err = %v, want exit status 2\n%s", err, out)
	}
	if !strings.Contains(out, "flag provided but not defined: -parallel") || !strings.Contains(out, "Usage of") {
		t.Errorf("missing unknown-flag usage error:\n%s", out)
	}
}

// TestServeFlagSurface pins tddserve's flag names, so a new knob shows up
// as a reviewed diff of this list.
func TestServeFlagSurface(t *testing.T) {
	out, err := exec.Command(filepath.Join(binaries(t), "tddserve"), "-h").CombinedOutput()
	if err != nil {
		t.Fatalf("tddserve -h: %v\n%s", err, out)
	}
	var got []string
	for _, line := range strings.Split(string(out), "\n") {
		if name, ok := strings.CutPrefix(line, "  -"); ok {
			got = append(got, strings.Fields(name)[0])
		}
	}
	want := []string{
		"addr", "cache", "data", "follow", "follow-interval", "fsync", "fsync-interval",
		"pprof", "queue", "quiet", "slow-keep", "slowquery",
		"timeout", "window", "workers",
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("tddserve flags:\n got %v\nwant %v", got, want)
	}
}
