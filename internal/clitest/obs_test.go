package clitest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestQueryTraceFlag drives tdd query -trace and checks the EXPLAIN-style
// phase tree covers the whole pipeline: parse, validation, classify,
// period certification with the engine's fixpoint inside, spec
// construction, and the per-query answer phase.
func TestQueryTraceFlag(t *testing.T) {
	file := writeFile(t, "even.tdd", evenUnit)
	out, err := run(t, "tdd", "query", "-trace", file, "even(1000000)")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "?- even(1000000)\nyes") {
		t.Errorf("missing answer:\n%s", out)
	}
	for _, phase := range []string{
		"trace ", "parse", "validate", "classify",
		"certify-period", "fixpoint", "spec-construct", "answer",
	} {
		if !strings.Contains(out, phase) {
			t.Errorf("phase tree missing %q:\n%s", phase, out)
		}
	}
}

// TestServeMetricsProm scrapes GET /metrics.prom off a served workload
// and checks it parses as Prometheus text exposition: every family has
// exactly one HELP and one TYPE line before its samples, no duplicate
// family declarations, every sample line is "name{labels} value".
func TestServeMetricsProm(t *testing.T) {
	base := startServe(t)

	body, _ := json.Marshal(map[string]string{"unit": evenUnit})
	resp, err := http.Post(base+"/programs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var reg struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reg); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	body, _ = json.Marshal(map[string]string{"query": "even(4)"})
	resp, err = http.Post(base+"/programs/"+reg.ID+"/ask", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(base + "/metrics.prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics.prom: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	help := map[string]bool{}
	typ := map[string]bool{}
	samples := 0
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
		case strings.HasPrefix(line, "# HELP "):
			name, _, _ := strings.Cut(strings.TrimPrefix(line, "# HELP "), " ")
			if help[name] {
				t.Errorf("duplicate HELP for %s", name)
			}
			help[name] = true
		case strings.HasPrefix(line, "# TYPE "):
			name, kind, _ := strings.Cut(strings.TrimPrefix(line, "# TYPE "), " ")
			if typ[name] {
				t.Errorf("duplicate TYPE for %s", name)
			}
			if kind != "counter" && kind != "gauge" && kind != "histogram" {
				t.Errorf("TYPE %s has unknown kind %q", name, kind)
			}
			typ[name] = true
		case strings.HasPrefix(line, "#"):
			t.Errorf("unexpected comment %q", line)
		default:
			samples++
			name := line
			if i := strings.IndexAny(line, "{ "); i >= 0 {
				name = line[:i]
			}
			fam := name
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				fam = strings.TrimSuffix(fam, suf)
			}
			if !help[fam] || !typ[fam] {
				t.Errorf("sample %q lacks HELP/TYPE for %s", line, fam)
			}
			if len(strings.Fields(line)) != 2 {
				t.Errorf("malformed sample line %q", line)
			}
		}
	}
	if samples == 0 {
		t.Fatalf("no samples in exposition:\n%s", raw)
	}
	if !bytes.Contains(raw, []byte(`tddserve_route_requests_total{route="ask"} 1`)) {
		t.Errorf("ask request not counted:\n%s", raw)
	}
}

// TestServeTraceParam checks ?trace=1 end to end over a real server
// process: the response embeds the phase tree and the rule table, and
// the X-Trace-Id header matches the trace.
func TestServeTraceParam(t *testing.T) {
	base := startServe(t)

	body, _ := json.Marshal(map[string]string{"unit": evenUnit})
	resp, err := http.Post(base+"/programs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var reg struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reg); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	body, _ = json.Marshal(map[string]string{"query": "even(1000000)"})
	resp, err = http.Post(base+"/programs/"+reg.ID+"/ask?trace=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var ar struct {
		Result  bool   `json:"result"`
		TraceID string `json:"trace_id"`
		Trace   *struct {
			TraceID string            `json:"trace_id"`
			TotalUs int64             `json:"total_us"`
			Phases  []json.RawMessage `json:"phases"`
			Rules   []struct {
				Rule    string `json:"rule"`
				Firings int    `json:"firings"`
			} `json:"rules"`
		} `json:"trace"`
	}
	if err := json.Unmarshal(raw, &ar); err != nil {
		t.Fatalf("%v\n%s", err, raw)
	}
	if !ar.Result {
		t.Error("even(1000000) should hold")
	}
	if ar.Trace == nil || len(ar.Trace.Phases) == 0 {
		t.Fatalf("no trace in response:\n%s", raw)
	}
	if hdr := resp.Header.Get("X-Trace-Id"); hdr == "" || hdr != ar.TraceID {
		t.Errorf("X-Trace-Id %q vs trace_id %q", hdr, ar.TraceID)
	}
	for _, phase := range []string{"classify", "certify-period", "fixpoint", "answer"} {
		if !bytes.Contains(raw, []byte(`"`+phase+`"`)) {
			t.Errorf("trace missing phase %q:\n%s", phase, raw)
		}
	}
	if len(ar.Trace.Rules) == 0 {
		t.Errorf("trace missing rule table:\n%s", raw)
	}
}
