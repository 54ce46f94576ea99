package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"tdd/internal/workload"
)

// distractorUnit is the E19 workload: a period-2 relevant chain plus
// three distractor cycles that blow the full period up to 210.
func distractorUnit() string {
	rules, facts := workload.Distractor([]int{3, 5, 7}, 4)
	return rules + facts
}

// TestDebugGraph covers the introspection endpoint: the dependency
// graph for a registered program, optionally with a query's slice.
func TestDebugGraph(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := register(t, ts.URL, distractorUnit())

	resp, body := getJSON(t, ts.URL+"/debug/graph?id="+id)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("graph: status %d: %s", resp.StatusCode, body)
	}
	var out debugGraphResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Graph.Preds) == 0 || len(out.Graph.SCCs) == 0 {
		t.Fatalf("empty graph report: %s", body)
	}
	if !strings.Contains(out.Rendered, "dependency graph") {
		t.Errorf("rendered graph missing header:\n%s", out.Rendered)
	}
	if out.Slice != nil {
		t.Error("slice present without &q=")
	}

	resp, body = getJSON(t, fmt.Sprintf("%s/debug/graph?id=%s&q=%s", ts.URL, id, "q(4,+c0)"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("graph+slice: status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Slice == nil {
		t.Fatalf("no slice for &q=: %s", body)
	}
	if !out.Slice.Proper || len(out.Slice.Preds) >= len(out.Graph.Preds) {
		t.Errorf("slice for q should be proper and smaller: %+v", out.Slice)
	}

	// Parameter validation: missing id is a 400, unknown id a 404.
	resp, _ = getJSON(t, ts.URL+"/debug/graph")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing id: status %d, want 400", resp.StatusCode)
	}
	resp, _ = getJSON(t, ts.URL+"/debug/graph?id=doesnotexist")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id: status %d, want 404", resp.StatusCode)
	}
}
