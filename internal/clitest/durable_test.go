package clitest

// End-to-end durability and replication through the real tddserve
// binary: warm restart from -data, follower catch-up under -follow, and
// the durability families on both metrics surfaces.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// startServeStoppable boots tddserve like startServe but also returns a
// stop function that SIGTERMs the process and waits for a clean exit —
// restart tests stop the first instance mid-test rather than at cleanup.
func startServeStoppable(t *testing.T, args ...string) (base string, stop func()) {
	t.Helper()
	cmd := exec.Command(filepath.Join(binaries(t), "tddserve"),
		append([]string{"-addr", "127.0.0.1:0", "-quiet"}, args...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	stopped := false
	stop = func() {
		if stopped {
			return
		}
		stopped = true
		cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("tddserve did not exit cleanly: %v", err)
			}
		case <-time.After(10 * time.Second):
			cmd.Process.Kill() //nolint:errcheck
			t.Fatal("tddserve did not shut down within 10s of SIGTERM")
		}
	}
	t.Cleanup(stop)

	scanner := bufio.NewScanner(stdout)
	for scanner.Scan() {
		line := scanner.Text()
		if i := strings.Index(line, "listening on "); i >= 0 {
			return strings.TrimSpace(line[i+len("listening on "):]), stop
		}
	}
	t.Fatalf("tddserve never printed its listen address (scan err: %v)", scanner.Err())
	return "", nil
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return resp.StatusCode
}

func postStatus(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(mustJSON(t, body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body) //nolint:errcheck
	return resp.StatusCode, buf.Bytes()
}

func TestServeRestartWarm(t *testing.T) {
	dir := t.TempDir()
	base, stop := startServeStoppable(t, "-data", dir, "-fsync", "always")

	status, body := postStatus(t, base+"/programs", map[string]string{"unit": evenUnit})
	if status != http.StatusCreated {
		t.Fatalf("register: status %d: %s", status, body)
	}
	var reg struct {
		ID  string `json:"id"`
		Rev string `json:"rev"`
	}
	if err := json.Unmarshal(body, &reg); err != nil {
		t.Fatal(err)
	}
	status, body = postStatus(t, base+"/programs/"+reg.ID+"/facts", map[string]string{"facts": "even(7).\n"})
	if status != http.StatusOK {
		t.Fatalf("facts: status %d: %s", status, body)
	}
	var ack struct {
		Rev string `json:"rev"`
	}
	if err := json.Unmarshal(body, &ack); err != nil {
		t.Fatal(err)
	}
	stop()

	// Second instance over the same directory: the program and its batch
	// must be back, warm, at the same revision, without re-registration.
	base2, _ := startServeStoppable(t, "-data", dir)
	var list struct {
		Programs []string `json:"programs"`
	}
	getJSON(t, base2+"/programs", &list)
	if len(list.Programs) != 1 || list.Programs[0] != reg.ID {
		t.Fatalf("restarted programs = %v, want [%s]", list.Programs, reg.ID)
	}
	status, body = postStatus(t, base2+"/programs/"+reg.ID+"/ask", map[string]string{"query": "even(7)"})
	var ar struct {
		Result bool   `json:"result"`
		Engine string `json:"engine"`
	}
	if status != http.StatusOK || json.Unmarshal(body, &ar) != nil {
		t.Fatalf("ask after restart: status %d: %s", status, body)
	}
	if !ar.Result {
		t.Error("even(7) lost across restart")
	}
	if ar.Engine != "spec" {
		t.Errorf("restart answered by %q, want the warm spec cache", ar.Engine)
	}
	var snap struct {
		Durability map[string]struct {
			Seq        uint64 `json:"seq"`
			DurableRev string `json:"durable_rev"`
		} `json:"durability"`
	}
	getJSON(t, base2+"/metrics", &snap)
	d, ok := snap.Durability[reg.ID]
	if !ok {
		t.Fatalf("/metrics durability section missing %s: %v", reg.ID, snap.Durability)
	}
	if d.Seq != 1 || d.DurableRev != ack.Rev {
		t.Errorf("durability (%d, %s), want (1, %s)", d.Seq, d.DurableRev, ack.Rev)
	}
}

func TestServeFollowerCatchUp(t *testing.T) {
	leader := startServe(t)
	status, body := postStatus(t, leader+"/programs", map[string]string{"unit": evenUnit})
	if status != http.StatusCreated {
		t.Fatalf("register: status %d: %s", status, body)
	}
	var reg struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &reg); err != nil {
		t.Fatal(err)
	}
	if status, body := postStatus(t, leader+"/programs/"+reg.ID+"/facts", map[string]string{"facts": "even(9).\n"}); status != http.StatusOK {
		t.Fatalf("leader facts: status %d: %s", status, body)
	}

	follower := startServe(t, "-follow", leader, "-follow-interval", "20ms")
	deadline := time.Now().Add(15 * time.Second)
	for {
		status, body := postStatus(t, follower+"/programs/"+reg.ID+"/ask", map[string]string{"query": "even(9)"})
		var ar struct {
			Result bool `json:"result"`
		}
		if status == http.StatusOK && json.Unmarshal(body, &ar) == nil && ar.Result {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never served even(9): status %d: %s", status, body)
		}
		time.Sleep(25 * time.Millisecond)
	}

	// Writes are rejected on the follower.
	if status, body := postStatus(t, follower+"/programs", map[string]string{"unit": skiUnit}); status != http.StatusForbidden {
		t.Fatalf("follower register: status %d, want 403: %s", status, body)
	}
	if status, body := postStatus(t, follower+"/programs/"+reg.ID+"/facts", map[string]string{"facts": "even(11).\n"}); status != http.StatusForbidden {
		t.Fatalf("follower facts: status %d, want 403: %s", status, body)
	}

	// The follower section of /metrics reports the replication state.
	var snap struct {
		Follower *struct {
			Leader  string `json:"leader"`
			Records int64  `json:"records_applied"`
			Lag     int64  `json:"lag_records"`
		} `json:"follower"`
	}
	getJSON(t, follower+"/metrics", &snap)
	if snap.Follower == nil {
		t.Fatal("/metrics on a follower has no follower section")
	}
	if snap.Follower.Leader != leader || snap.Follower.Records < 1 || snap.Follower.Lag != 0 {
		t.Errorf("follower section %+v, want leader %s, >=1 record, lag 0", snap.Follower, leader)
	}
}

// TestServeDurabilityProm asserts the exposition shape of the new
// durability families: scalars, the fsync histogram triplet, and the
// per-program gauges including the info-style durable-rev sample.
func TestServeDurabilityProm(t *testing.T) {
	dir := t.TempDir()
	base, _ := startServeStoppable(t, "-data", dir, "-fsync", "always")
	status, body := postStatus(t, base+"/programs", map[string]string{"unit": evenUnit})
	if status != http.StatusCreated {
		t.Fatalf("register: status %d: %s", status, body)
	}
	var reg struct {
		ID  string `json:"id"`
		Rev string `json:"rev"`
	}
	if err := json.Unmarshal(body, &reg); err != nil {
		t.Fatal(err)
	}
	if status, body := postStatus(t, base+"/programs/"+reg.ID+"/facts", map[string]string{"facts": "even(5).\n"}); status != http.StatusOK {
		t.Fatalf("facts: status %d: %s", status, body)
	}

	resp, err := http.Get(base + "/metrics.prom")
	if err != nil {
		t.Fatal(err)
	}
	prom := new(bytes.Buffer)
	prom.ReadFrom(resp.Body) //nolint:errcheck
	resp.Body.Close()
	text := prom.String()

	for _, family := range []string{
		"tddserve_wal_appends_total",
		"tddserve_wal_fsyncs_total",
		"tddserve_follower_lag_records",
		"tddserve_fsync_duration_seconds",
		"tddserve_program_durable_seq",
		"tddserve_program_durable_rev",
	} {
		if !strings.Contains(text, "# HELP "+family+" ") || !strings.Contains(text, "# TYPE "+family+" ") {
			t.Errorf("family %s missing HELP/TYPE in exposition", family)
		}
	}
	// One batch was appended and (fsync=always) synced.
	if !strings.Contains(text, "tddserve_wal_appends_total 1") {
		t.Error("tddserve_wal_appends_total != 1 after one batch")
	}
	if strings.Contains(text, "tddserve_fsync_duration_seconds_count 0") {
		t.Error("fsync histogram empty under -fsync always")
	}
	if !strings.Contains(text, fmt.Sprintf("tddserve_program_durable_seq{program=%q} 1", reg.ID)) {
		t.Error("per-program durable seq gauge missing or wrong")
	}
	// Info-style rev sample: constant 1, rev carried as a label.
	if !strings.Contains(text, fmt.Sprintf("tddserve_program_durable_rev{program=%q,rev=", reg.ID)) {
		t.Error("info-style durable rev sample missing")
	}
}
