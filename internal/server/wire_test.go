package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

// postRaw posts body as is and returns the status and response body.
func postRaw(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
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

// A request body is one JSON object: trailing whitespace is allowed, any
// other trailing data (garbage, a second object) is a 400, and a refused
// batch or registration changes nothing.
func TestTrailingBodyRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := register(t, ts.URL, evenUnit)
	ids := func() string {
		_, body := getJSON(t, ts.URL+"/programs")
		return string(body)
	}
	programs := ids()
	cases := []struct {
		name, path, body string
		want             int
	}{
		{"ask, garbage", "/programs/" + id + "/ask", `{"query":"even(4)"}garbage`, http.StatusBadRequest},
		{"ask, second object", "/programs/" + id + "/ask", `{"query":"even(4)"}{"query":"even(6)"}`, http.StatusBadRequest},
		{"ask, stray brace", "/programs/" + id + "/ask", `{"query":"even(4)"}}`, http.StatusBadRequest},
		{"ask, whitespace", "/programs/" + id + "/ask", "{\"query\":\"even(4)\"} \n\t\r\n", http.StatusOK},
		{"facts, second object", "/programs/" + id + "/facts", `{"facts":"even(1)."}{"facts":"even(3)."}`, http.StatusBadRequest},
		{"facts, garbage", "/programs/" + id + "/facts", `{"facts":"even(1)."} x`, http.StatusBadRequest},
		{"register, second object", "/programs", `{"unit":"odd(1).\n"}{"unit":"odd(3).\n"}`, http.StatusBadRequest},
		{"register, garbage", "/programs", `{"unit":"odd(1).\n"}]`, http.StatusBadRequest},
	}
	for _, c := range cases {
		if status, body := postRaw(t, ts.URL+c.path, c.body); status != c.want {
			t.Errorf("%s: status %d, want %d (%s)", c.name, status, c.want, body)
		}
	}
	if askServed(t, ts.URL, id, "even(1)") {
		t.Error("a refused batch was ingested: even(1) holds")
	}
	if got := ids(); got != programs {
		t.Errorf("a refused registration was kept: programs %s, before %s", got, programs)
	}
}

// Every response body is byte for byte what json.NewEncoder with a
// one-space indent writes for the decoded value, whichever pooled buffer
// served it: a large answers response is followed by small ones.
func TestResponseBytes(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	reencode := func(t *testing.T, body []byte, v any) {
		t.Helper()
		if err := json.Unmarshal(body, v); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetIndent("", " ")
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, want.Bytes()) {
			t.Fatalf("response bytes\n%q\nwant\n%q", body, want.Bytes())
		}
	}
	for round := 0; round < 2; round++ {
		status, body := postRaw(t, ts.URL+"/programs", `{"unit":"p(T+1) :- p(T).\np(0).\nq(T+3) :- q(T).\nq(0..299).\nsite(north).\n"}`)
		if status != http.StatusCreated && status != http.StatusOK {
			t.Fatalf("register: status %d: %s", status, body)
		}
		var reg registerResponse
		reencode(t, body, &reg)

		status, body = postRaw(t, ts.URL+"/programs/"+reg.ID+"/answers", `{"query":"q(T)"}`)
		if status != http.StatusOK || len(body) < 4<<10 {
			t.Fatalf("answers: status %d, %d bytes", status, len(body))
		}
		reencode(t, body, &answersResponse{})

		status, body = postRaw(t, ts.URL+"/programs/"+reg.ID+"/ask", `{"query":"exists X site(X)"}`)
		if status != http.StatusOK {
			t.Fatalf("ask: status %d: %s", status, body)
		}
		reencode(t, body, &askResponse{})

		status, body = postRaw(t, ts.URL+"/programs/"+reg.ID+"/facts", `{"facts":"site(south)."}`)
		if status != http.StatusOK {
			t.Fatalf("facts: status %d: %s", status, body)
		}
		reencode(t, body, &factsResponse{})

		resp, body := getJSON(t, ts.URL+"/programs/"+reg.ID+"/period")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("period: status %d", resp.StatusCode)
		}
		reencode(t, body, &periodJSON{})

		status, body = postRaw(t, ts.URL+"/programs/"+reg.ID+"/ask", `{"query":"p(T) & <"}`)
		if status != http.StatusBadRequest {
			t.Fatalf("bad ask: status %d", status)
		}
		reencode(t, body, &errorResponse{})
	}
}
