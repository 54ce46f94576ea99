package clitest

import (
	"encoding/json"
	"strings"
	"testing"
)

// dirtyUnit trips several analyzer codes on purpose: ghost is a closed
// self-recursive cycle with no base support (TDL003 unreachable rule,
// TDL202 dead component, TDL201 irrelevant under the inferred surface),
// and the stale ignore marker silences nothing (TDL203).
const dirtyUnit = `flight(T+1, X) :- flight(T, X).
ghost(T+1, X) :- ghost(T, X).
% tddlint:ignore TDL006
flight(0, jfk).
`

// TestLintSARIFShape locks the SARIF 2.1.0 wire shape end to end: a real
// tddlint binary, a dirty unit, and structural assertions on the exact
// paths code-scanning consumers dereference.
func TestLintSARIFShape(t *testing.T) {
	file := writeFile(t, "dirty.tdd", dirtyUnit)
	out, err := run(t, "tdd", "lint", "-format", "sarif", file)
	if err != nil {
		t.Fatalf("tddlint exited nonzero (warnings should not fail without -werror): %v\n%s", err, out)
	}

	var log struct {
		Version string `json:"version"`
		Schema  string `json:"$schema"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID               string `json:"id"`
						ShortDescription struct {
							Text string `json:"text"`
						} `json:"shortDescription"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID  string `json:"ruleId"`
				Level   string `json:"level"`
				Message struct {
					Text string `json:"text"`
				} `json:"message"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(out), &log); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out)
	}
	if log.Version != "2.1.0" {
		t.Errorf("version = %q, want 2.1.0", log.Version)
	}
	if !strings.Contains(log.Schema, "sarif-2.1.0") {
		t.Errorf("$schema = %q, want a sarif-2.1.0 schema URI", log.Schema)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "tddlint" {
		t.Errorf("driver name = %q, want tddlint", run.Tool.Driver.Name)
	}
	if len(run.Results) == 0 {
		t.Fatal("no results for a dirty unit")
	}

	levels := map[string]bool{"error": true, "warning": true, "note": true}
	seen := make(map[string]bool)
	ruleIDs := make(map[string]bool)
	for _, r := range run.Tool.Driver.Rules {
		ruleIDs[r.ID] = true
		if r.ShortDescription.Text == "" {
			t.Errorf("rule %s has no shortDescription", r.ID)
		}
	}
	for i, r := range run.Results {
		seen[r.RuleID] = true
		if !levels[r.Level] {
			t.Errorf("result %d: level %q not a SARIF level", i, r.Level)
		}
		if r.Message.Text == "" {
			t.Errorf("result %d (%s): empty message", i, r.RuleID)
		}
		if !ruleIDs[r.RuleID] {
			t.Errorf("result %d: ruleId %s missing from driver rules", i, r.RuleID)
		}
		if len(r.Locations) == 0 {
			t.Errorf("result %d (%s): no location", i, r.RuleID)
			continue
		}
		loc := r.Locations[0].PhysicalLocation
		if loc.ArtifactLocation.URI != file {
			t.Errorf("result %d: uri = %q, want %q", i, loc.ArtifactLocation.URI, file)
		}
		if loc.Region.StartLine < 1 {
			t.Errorf("result %d (%s): startLine = %d", i, r.RuleID, loc.Region.StartLine)
		}
	}
	for _, want := range []string{"TDL003", "TDL202", "TDL203"} {
		if !seen[want] {
			t.Errorf("no %s result for the dirty unit\n%s", want, out)
		}
	}
}

// TestLintFormatFlag covers the flag surface around SARIF: bad formats
// fail fast, and -json stays a working alias for -format json.
func TestLintFormatFlag(t *testing.T) {
	file := writeFile(t, "even.tdd", evenUnit)
	if out, err := run(t, "tdd", "lint", "-format", "yaml", file); err == nil {
		t.Errorf("unknown format accepted:\n%s", out)
	} else if !strings.Contains(out, "unknown format") {
		t.Errorf("missing unknown-format message:\n%s", out)
	}
	out, err := run(t, "tdd", "lint", "-json", file)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal([]byte(out), &m); err != nil {
		t.Fatalf("-json output not valid JSON: %v\n%s", err, out)
	}
}

// TestCheckGraph drives the dependency-graph subcommand: the rendered
// graph names every predicate, and -q reports the query's slice.
func TestCheckGraph(t *testing.T) {
	file := writeFile(t, "dirty.tdd", dirtyUnit)
	out, err := run(t, "tdd", "graph", file)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"dependency graph", "flight", "ghost", "BASE-UNREACHABLE"} {
		if !strings.Contains(out, want) {
			t.Errorf("graph output missing %q:\n%s", want, out)
		}
	}
	out, err = run(t, "tdd", "graph", "-q", "flight(4, jfk)", file)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"proper slice", "predicates: [flight]", "rules: 1 of 2"} {
		if !strings.Contains(out, want) {
			t.Errorf("expected %q in the slice for flight(4, jfk):\n%s", want, out)
		}
	}
}
