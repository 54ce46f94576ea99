package clitest

// End-to-end coverage of the serving-core admission surface through the
// real binaries: the admission metric families on both metrics
// surfaces of tddserve, and a short closed-loop tddload run against a
// live server producing a well-formed scenario report.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestServeAdmissionProm(t *testing.T) {
	base := startServe(t)

	status, body := postStatus(t, base+"/programs", map[string]string{"unit": evenUnit})
	if status != http.StatusCreated {
		t.Fatalf("register: status %d: %s", status, body)
	}
	var reg struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &reg); err != nil {
		t.Fatal(err)
	}
	// One coalescable ask so flight_leaders is nonzero.
	status, body = postStatus(t, base+"/programs/"+reg.ID+"/ask", map[string]string{"query": "even(1000000)"})
	if status != http.StatusOK {
		t.Fatalf("ask: status %d: %s", status, body)
	}

	// JSON surface: queue bound, flight counters.
	var snap struct {
		QueueDepth    int64 `json:"queue_depth"`
		QueueCapacity int64 `json:"queue_capacity"`
		Shed          int64 `json:"shed_requests"`
		Coalesced     int64 `json:"coalesced_requests"`
		FlightLeaders int64 `json:"flight_leaders"`
	}
	if code := getJSON(t, base+"/metrics", &snap); code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	if snap.QueueCapacity <= 0 {
		t.Errorf("queue_capacity = %d, want > 0", snap.QueueCapacity)
	}
	if snap.FlightLeaders < 1 {
		t.Errorf("flight_leaders = %d, want >= 1 after a coalescable ask", snap.FlightLeaders)
	}
	if snap.Shed != 0 {
		t.Errorf("shed_requests = %d on an idle server, want 0", snap.Shed)
	}

	// Prometheus surface: every admission family present, with the
	// per-route shed/timeout counters labeled per route.
	resp, err := http.Get(base + "/metrics.prom")
	if err != nil {
		t.Fatal(err)
	}
	buf := new(bytes.Buffer)
	buf.ReadFrom(resp.Body) //nolint:errcheck
	resp.Body.Close()
	text := buf.String()

	for _, family := range []string{
		"tddserve_shed_total",
		"tddserve_coalesced_requests_total",
		"tddserve_flight_leaders_total",
		"tddserve_queue_depth",
		"tddserve_queue_capacity",
		"tddserve_route_sheds_total",
		"tddserve_route_timeouts_total",
	} {
		if !strings.Contains(text, "# HELP "+family+" ") {
			t.Errorf("/metrics.prom missing family %s", family)
		}
	}
	for _, line := range []string{
		"tddserve_shed_total 0",
		"tddserve_flight_leaders_total 1",
		"tddserve_queue_depth 0",
		`tddserve_route_sheds_total{route="ask"} 0`,
		`tddserve_route_timeouts_total{route="ask"} 0`,
	} {
		if !strings.Contains(text, line) {
			t.Errorf("/metrics.prom missing sample %q", line)
		}
	}
}

func TestLoadSmoke(t *testing.T) {
	base := startServe(t)
	out := filepath.Join(t.TempDir(), "bench.json")

	cmd := exec.Command(filepath.Join(binaries(t), "tddload"),
		"-url", base, "-duration", "500ms", "-clients", "4",
		"-programs", "2", "-queries", "4", "-mix", "ask=80,answers=10,wal=10",
		"-scenario", "smoke", "-out", out)
	combined, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("tddload failed: %v\n%s", err, combined)
	}

	var bench struct {
		GeneratedBy string `json:"generated_by"`
		Scenarios   map[string]struct {
			Requests        int     `json:"requests"`
			OK              int     `json:"ok"`
			TransportErrors int     `json:"transport_errors"`
			ThroughputRPS   float64 `json:"throughput_rps"`
			P99Us           int64   `json:"p99_us"`
		} `json:"scenarios"`
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatalf("parsing %s: %v\n%s", out, err, data)
	}
	smoke, ok := bench.Scenarios["smoke"]
	if !ok {
		t.Fatalf("report has no \"smoke\" scenario: %s", data)
	}
	if smoke.Requests == 0 || smoke.OK == 0 {
		t.Errorf("smoke run did no work: requests=%d ok=%d", smoke.Requests, smoke.OK)
	}
	if smoke.TransportErrors != 0 {
		t.Errorf("smoke run had %d transport errors", smoke.TransportErrors)
	}
	if smoke.ThroughputRPS <= 0 || smoke.P99Us <= 0 {
		t.Errorf("smoke run reported degenerate stats: %+v", smoke)
	}
}
