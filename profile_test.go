package tdd_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"tdd"
	"tdd/internal/server"
)

// cyclesUnit has period 3 until b and c facts arrive; with them it is
// 3·7·11 = 231, which a window budget of 64 cannot certify.
const cyclesUnit = "a(T+3) :- a(T).\nb(T+7) :- b(T).\nc(T+11) :- c(T).\na(0).\n"

// TestForkLeavesParentProfile: the join profile belongs to a snapshot's
// lineage. An Assert on a Fork, and a served ingest rejected because its
// re-certification exceeds Config.MaxWindow, both evaluate on a clone of
// the published snapshot; neither moves a byte of that snapshot's
// ProfileReport or of its ?profile=1 profile.
func TestForkLeavesParentProfile(t *testing.T) {
	t.Run("fork", func(t *testing.T) {
		db, err := tdd.OpenUnit(cyclesUnit, tdd.WithProfile())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.Period(); err != nil {
			t.Fatal(err)
		}
		before := profileJSON(t, db.ProfileReport())
		fork := db.Fork()
		if _, err := fork.Assert("b(0).\nb(1)."); err != nil {
			t.Fatal(err)
		}
		if after := profileJSON(t, db.ProfileReport()); !bytes.Equal(after, before) {
			t.Fatalf("an Assert on a fork moved its parent's profile:\n%s\nthen\n%s", before, after)
		}
		if bytes.Equal(profileJSON(t, fork.ProfileReport()), before) {
			t.Fatal("the fork's profile does not show the fork's own Assert")
		}
	})

	t.Run("rejected ingest", func(t *testing.T) {
		s, err := server.New(server.Config{MaxWindow: 64})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		defer func() {
			ts.Close()
			s.Close()
		}()
		var reg struct{ ID string }
		if status, body := post(t, ts.URL+"/programs", map[string]string{"unit": cyclesUnit}); status != http.StatusCreated || json.Unmarshal(body, &reg) != nil {
			t.Fatalf("register: status %d: %s", status, body)
		}
		profile := func() []byte {
			status, body := post(t, ts.URL+"/programs/"+reg.ID+"/ask?profile=1", map[string]string{"query": "a(300)"})
			var resp struct{ Profile json.RawMessage }
			if status != http.StatusOK || json.Unmarshal(body, &resp) != nil || len(resp.Profile) == 0 {
				t.Fatalf("profiled ask: status %d: %s", status, body)
			}
			return resp.Profile
		}
		before := profile()
		status, body := post(t, ts.URL+"/programs/"+reg.ID+"/facts", map[string]string{"facts": "b(0).\nc(0)."})
		if status != http.StatusBadRequest || !strings.Contains(string(body), "window") {
			t.Fatalf("an ingest whose period exceeds the window budget: status %d: %s, want 400", status, body)
		}
		if after := profile(); !bytes.Equal(after, before) {
			t.Fatalf("a rejected ingest moved the published snapshot's profile:\n%s\nthen\n%s", before, after)
		}
	})
}

func profileJSON(t *testing.T, p *tdd.ProfileReport) []byte {
	t.Helper()
	if p == nil || len(p.Rules) == 0 {
		t.Fatalf("profile %+v, want the certification's joins", p)
	}
	out, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func post(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}
