package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"tdd"
	"tdd/internal/ast"
	"tdd/internal/baseline"
	"tdd/internal/parser"
)

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

// newTestServer builds a Server (logging discarded) and an httptest
// front end; both are torn down with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
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
	return resp, out
}

func getJSON(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func register(t *testing.T, base, unit string) string {
	t.Helper()
	resp, body := postJSON(t, base+"/programs", registerRequest{Unit: unit})
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		t.Fatalf("register: status %d: %s", resp.StatusCode, body)
	}
	var reg registerResponse
	if err := json.Unmarshal(body, &reg); err != nil {
		t.Fatal(err)
	}
	return reg.ID
}

func askServed(t *testing.T, base, id, query string) bool {
	t.Helper()
	resp, body := postJSON(t, base+"/programs/"+id+"/ask", askRequest{Query: query})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ask %q: status %d: %s", query, resp.StatusCode, body)
	}
	var ar askResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	return ar.Result
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := getJSON(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), `"ok"`) {
		t.Fatalf("body: %s", body)
	}
}

func TestRegisterAskAnswersPeriod(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := register(t, ts.URL, evenUnit)

	if !askServed(t, ts.URL, id, "even(1000000)") {
		t.Error("even(1000000) should hold")
	}
	if askServed(t, ts.URL, id, "even(999999)") {
		t.Error("even(999999) should not hold")
	}

	resp, body := postJSON(t, ts.URL+"/programs/"+id+"/answers", answersRequest{Query: "even(T)"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("answers: status %d: %s", resp.StatusCode, body)
	}
	var ans answersResponse
	if err := json.Unmarshal(body, &ans); err != nil {
		t.Fatal(err)
	}
	if ans.Count != 2 {
		t.Errorf("answers count = %d, want 2 (T=0, T=2)", ans.Count)
	}
	if ans.Rewrite != "3 -> 1" {
		t.Errorf("rewrite = %q, want %q", ans.Rewrite, "3 -> 1")
	}
	if ans.Engine != "spec" {
		t.Errorf("engine = %q, want spec (cache fast path)", ans.Engine)
	}

	resp, body = getJSON(t, ts.URL+"/programs/"+id+"/period")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("period: status %d", resp.StatusCode)
	}
	var p periodJSON
	if err := json.Unmarshal(body, &p); err != nil {
		t.Fatal(err)
	}
	if p.Base != 1 || p.P != 2 {
		t.Errorf("period = (b=%d, p=%d), want (b=1, p=2)", p.Base, p.P)
	}
}

// TestRegisterDeepNonTemporalBody asks a served registration about a
// rule whose body reads the model only from depth 9: flag(c1) follows at
// T=6, flag(c8) only at T=13, past the window a one-state certificate
// would stop at. Registration lints, and lint reads the certified
// window without growing it, so the answers rest on certification
// alone. Each must be naive T_P's.
func TestRegisterDeepNonTemporalBody(t *testing.T) {
	var unit strings.Builder
	unit.WriteString("q(T+1, Y) :- q(T, X), next(X, Y).\nflag(X) :- q(T+9, X), special(X).\nq(0, c0).\nspecial(c1).\nspecial(c8).\n")
	for i := 0; i < 14; i++ {
		fmt.Fprintf(&unit, "next(c%d, c%d).\n", i, (i+1)%14)
	}
	prog, db, err := parser.ParseUnit(unit.String())
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := baseline.NaiveTP(prog, db, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Has(ast.Fact{Pred: "flag", Args: []string{"c8"}}) {
		t.Fatal("naive T_P lacks flag(c8)")
	}
	_, ts := newTestServer(t, Config{})
	id := register(t, ts.URL, unit.String())
	for i := 0; i < 14; i++ {
		c := fmt.Sprintf("c%d", i)
		want := ref.Has(ast.Fact{Pred: "flag", Args: []string{c}})
		if got := askServed(t, ts.URL, id, "flag("+c+")"); got != want {
			t.Errorf("flag(%s): served %v, naive T_P %v", c, got, want)
		}
	}
}

// TestDefaultLoggerDisabled pins the default logger off at every level
// a request logs at: a server built without a Logger formats no request
// line only to throw it away.
func TestDefaultLoggerDisabled(t *testing.T) {
	lg := DefaultConfig(Config{}).Logger
	for _, l := range []slog.Level{slog.LevelInfo, slog.LevelWarn, slog.LevelError} {
		if lg.Enabled(context.Background(), l) {
			t.Errorf("default logger enabled at %v", l)
		}
	}
}

func TestAnswersLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := register(t, ts.URL, skiUnit)
	resp, body := postJSON(t, ts.URL+"/programs/"+id+"/answers", answersRequest{Query: "plane(T, hunter)", Limit: 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var ans answersResponse
	if err := json.Unmarshal(body, &ans); err != nil {
		t.Fatal(err)
	}
	if ans.Count != 2 {
		t.Errorf("count = %d, want limit 2", ans.Count)
	}
}

func TestRegisterIdempotent(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/programs", registerRequest{Unit: evenUnit})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("first register: status %d: %s", resp.StatusCode, body)
	}
	var first registerResponse
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	resp, body = postJSON(t, ts.URL+"/programs", registerRequest{Unit: evenUnit})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second register: status %d: %s", resp.StatusCode, body)
	}
	var second registerResponse
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if !second.Existing || second.ID != first.ID {
		t.Errorf("re-registration: existing=%v id=%s, want existing=true id=%s",
			second.Existing, second.ID, first.ID)
	}
	if got := len(s.Registry().IDs()); got != 1 {
		t.Errorf("registry holds %d programs, want 1", got)
	}
}

// The program list is a response built from a map: every GET must return
// it sorted, and so the same on every call.
func TestListProgramsSorted(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for i := 0; i < 8; i++ {
		register(t, ts.URL, fmt.Sprintf("even(T+2) :- even(T).\neven(%d).\n", i))
	}
	var first []string
	for i := 0; i < 10; i++ {
		_, body := getJSON(t, ts.URL+"/programs")
		var list listResponse
		if err := json.Unmarshal(body, &list); err != nil {
			t.Fatal(err)
		}
		if len(list.Programs) != 8 || !sort.StringsAreSorted(list.Programs) {
			t.Fatalf("GET /programs = %v, want 8 sorted ids", list.Programs)
		}
		if i == 0 {
			first = list.Programs
		} else if !slices.Equal(list.Programs, first) {
			t.Fatalf("GET /programs = %v, then %v", first, list.Programs)
		}
	}
}

func TestRegisterErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		body string
	}{
		{"empty", `{}`},
		{"both forms", `{"unit": "even(0).", "rules": "even(0)."}`},
		{"invalid program", `{"unit": "p(T) :- p(T+1)."}`}, // non-forward rule
		{"malformed json", `{`},
		{"unknown field", `{"prog": "even(0)."}`},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+"/programs", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, resp.StatusCode)
		}
	}
}

func TestUnknownProgram(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, _ := postJSON(t, ts.URL+"/programs/deadbeef/ask", askRequest{Query: "even(0)"})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("ask unknown id: status %d, want 404", resp.StatusCode)
	}
	resp, _ = getJSON(t, ts.URL+"/programs/deadbeef/period")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("period unknown id: status %d, want 404", resp.StatusCode)
	}
}

func TestBadQuery(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := register(t, ts.URL, evenUnit)
	resp, body := postJSON(t, ts.URL+"/programs/"+id+"/ask", askRequest{Query: "even(T)"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("open query via ask: status %d, want 400 (%s)", resp.StatusCode, body)
	}
	resp, _ = postJSON(t, ts.URL+"/programs/"+id+"/ask", askRequest{Query: "even(("})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("syntax error: status %d, want 400", resp.StatusCode)
	}
}

// TestServedSpecRoundTrip downloads the exported specification and
// answers queries from it locally — the offline-client workflow. The
// route exports on demand from the snapshot the entry serves: its bytes
// are tdd.DB.ExportSpec of the same sources, and after an ingest it
// carries the new revision's model, not the registration's.
func TestServedSpecRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := register(t, ts.URL, evenUnit)
	fetch := func() (*tdd.SpecDB, []byte) {
		t.Helper()
		resp, body := getJSON(t, ts.URL+"/programs/"+id+"/spec")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("spec: status %d", resp.StatusCode)
		}
		sdb, err := tdd.ImportSpec(body)
		if err != nil {
			t.Fatalf("importing served spec: %v", err)
		}
		return sdb, body
	}
	sdb, body := fetch()
	yes, err := sdb.Ask("even(123456)")
	if err != nil || !yes {
		t.Errorf("local ask over served spec = (%v, %v), want (true, nil)", yes, err)
	}
	db, err := tdd.OpenUnit(evenUnit)
	if err != nil {
		t.Fatal(err)
	}
	if want, err := db.ExportSpec(); err != nil || !bytes.Equal(body, want) {
		t.Errorf("served spec differs from DB.ExportSpec of the same sources (err %v)", err)
	}

	// An odd time point holds only once the batch has seeded the odd chain.
	const odd = "even(123457)"
	if yes, err := sdb.Ask(odd); err != nil || yes {
		t.Fatalf("%s before the batch = (%v, %v), want (false, nil)", odd, yes, err)
	}
	if fr := ingest(t, ts.URL, id, "even(7).\n"); fr.Rev == id {
		t.Fatal("rev did not advance")
	}
	sdb, _ = fetch()
	yes, err = sdb.Ask(odd)
	if err != nil || !yes {
		t.Errorf("%s over the spec fetched after the batch = (%v, %v), want (true, nil)", odd, yes, err)
	}
	if served := askServed(t, ts.URL, id, odd); served != yes {
		t.Errorf("served ask %v disagrees with the served spec %v at the new rev", served, yes)
	}
}

// TestConcurrentQueries is the acceptance criterion: many parallel
// requests against registered programs, each answer compared against a
// direct tdd.DB evaluated in-process.
func TestConcurrentQueries(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, Queue: 64})
	evenID := register(t, ts.URL, evenUnit)
	skiID := register(t, ts.URL, skiUnit)

	evenDB, err := tdd.OpenUnit(evenUnit)
	if err != nil {
		t.Fatal(err)
	}
	skiDB, err := tdd.OpenUnit(skiUnit)
	if err != nil {
		t.Fatal(err)
	}

	type probe struct {
		id    string
		query string
		want  bool
	}
	var probes []probe
	for i := 0; i < 30; i++ {
		q := fmt.Sprintf("even(%d)", 999990+i)
		want, err := evenDB.Ask(q)
		if err != nil {
			t.Fatal(err)
		}
		probes = append(probes, probe{evenID, q, want})
	}
	skiQueries := []string{
		"plane(1000, hunter)",
		"plane(1001, hunter)",
		"exists T (plane(T, hunter) & winter(T))",
		"forall X (!resort(X) | exists T plane(T, X))",
	}
	for i := 0; i < 30; i++ {
		q := skiQueries[i%len(skiQueries)]
		want, err := skiDB.Ask(q)
		if err != nil {
			t.Fatal(err)
		}
		probes = append(probes, probe{skiID, q, want})
	}

	var wg sync.WaitGroup
	errs := make(chan error, len(probes))
	for _, p := range probes {
		wg.Add(1)
		go func(p probe) {
			defer wg.Done()
			got := askServed(t, ts.URL, p.id, p.query)
			if got != p.want {
				errs <- fmt.Errorf("served %s on %s = %v, direct = %v", p.query, p.id, got, p.want)
			}
		}(p)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestCacheEviction runs a capacity-1 cache over two programs: every
// alternation evicts and recompiles, queries stay correct throughout.
func TestCacheEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheSize: 1})
	evenID := register(t, ts.URL, evenUnit)
	skiID := register(t, ts.URL, skiUnit)

	for i := 0; i < 3; i++ {
		if !askServed(t, ts.URL, evenID, "even(1000000)") {
			t.Fatal("even query wrong after eviction")
		}
		if !askServed(t, ts.URL, skiID, "plane(0, hunter)") {
			t.Fatal("ski query wrong after eviction")
		}
	}
	m := s.Metrics()
	if got := m.CacheEvict.Load(); got < 2 {
		t.Errorf("cache evictions = %d, want >= 2 with capacity 1 and two programs", got)
	}
	if got := m.CacheMisses.Load(); got < 3 {
		t.Errorf("cache misses = %d, want >= 3", got)
	}
	if got := s.Registry().CachedLen(); got > 1 {
		t.Errorf("cache holds %d entries, capacity 1", got)
	}
}

// TestCacheSizeIsGlobal pins CacheSize as the number of warm programs: six
// registrations under a budget of two keep exactly two resident and evict
// the other four.
func TestCacheSizeIsGlobal(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheSize: 2})
	for i := 0; i < 6; i++ {
		register(t, ts.URL, fmt.Sprintf("%sresort(extra%d).\n", skiUnit, i))
	}
	if got := s.Registry().CachedLen(); got != 2 {
		t.Errorf("cache holds %d programs, want CacheSize = 2", got)
	}
	if got := s.Metrics().CacheEvict.Load(); got != 4 {
		t.Errorf("cache evictions = %d, want 4", got)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := register(t, ts.URL, evenUnit)
	askServed(t, ts.URL, id, "even(4)")
	askServed(t, ts.URL, id, "even(6)")

	m := scrapeJSON(t, ts.URL)
	if got := m.num(t, "requests"); got < 3 {
		t.Errorf("requests = %v, want >= 3", got)
	}
	if got := m.num(t, "cache_hits"); got < 2 {
		t.Errorf("cache hits = %v, want >= 2 (warm asks)", got)
	}
	if reqs, n := m.num(t, "routes", "ask", "requests"), m.num(t, "routes", "ask", "latency", "count"); reqs != 2 || n != 2 {
		t.Errorf("ask route: requests=%v latency.count=%v, want 2/2", reqs, n)
	}
}

// TestRequestTimeout forces an immediate deadline: requests must come
// back promptly as 503 with the timeout counter bumped, not hang.
func TestRequestTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{RequestTimeout: time.Nanosecond})
	resp, body := postJSON(t, ts.URL+"/programs", registerRequest{Unit: evenUnit})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
	}
	if got := scrapeJSON(t, ts.URL).num(t, "timeouts"); got < 1 {
		t.Errorf("timeouts counter = %v, want >= 1", got)
	}
}

// TestShutdownRejects checks that a closed pool turns requests into 503
// rather than panics or hangs.
func TestShutdownRejects(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.Close()
	resp, _ := postJSON(t, ts.URL+"/programs", registerRequest{Unit: evenUnit})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("status %d, want 503 after close", resp.StatusCode)
	}
}

func TestPool(t *testing.T) {
	p := NewPool(2, 20) // queue holds every submission: none is shed
	defer p.Close()
	var mu sync.Mutex
	n := 0
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := p.TryDo(t.Context(), func() {
				mu.Lock()
				n++
				mu.Unlock()
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if n != 20 {
		t.Errorf("ran %d tasks, want 20", n)
	}
}

// TestPanicIsolated: a panic on the only worker costs its request a 500
// (panic value in the body, stack kept out of it) and one count in both
// expositions; the worker survives to serve the next request.
func TestPanicIsolated(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	id := register(t, ts.URL, evenUnit)

	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/programs/"+id+"/ask", nil)
	if s.run(rec, req, "ask", func() error { panic("boom") }) {
		t.Fatal("a panicking task reported success")
	}
	if body := rec.Body.String(); rec.Code != http.StatusInternalServerError ||
		!strings.Contains(body, "boom") || strings.Contains(body, "goroutine") {
		t.Errorf("panicking task: status %d, body %s; want a 500 naming the panic without its stack", rec.Code, body)
	}

	if !askServed(t, ts.URL, id, "even(4)") {
		t.Error("even(4) = false after a recovered panic")
	}
	if got := scrapeJSON(t, ts.URL).num(t, "panics"); got != 1 {
		t.Errorf("panics = %v, want 1", got)
	}
	_, prom := getJSON(t, ts.URL+"/metrics.prom")
	if !strings.Contains(string(prom), "\ntddserve_panics_total 1\n") {
		t.Errorf("tddserve_panics_total 1 missing from /metrics.prom")
	}
}

// TestAskCoalesce pins the singleflight contract: with the lone pool
// worker held hostage, N identical concurrent asks form one flight —
// exactly one evaluation runs when the worker frees up, every other
// request reports Coalesced, and all N answers agree.
func TestAskCoalesce(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	id := register(t, ts.URL, skiUnit)

	// Occupy the single worker so the flight leader's evaluation cannot
	// start until released — the join window stays open deterministically.
	gate := make(chan struct{})
	occupied := make(chan struct{})
	go s.pool.TryDo(t.Context(), func() { close(occupied); <-gate }) //nolint:errcheck
	<-occupied

	const n = 8
	var wg sync.WaitGroup
	results := make([]askResponse, n)
	errCh := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postJSON(t, ts.URL+"/programs/"+id+"/ask", askRequest{Query: "plane(0, hunter)"})
			if resp.StatusCode != http.StatusOK {
				errCh <- fmt.Errorf("ask %d: status %d: %s", i, resp.StatusCode, body)
				return
			}
			if err := json.Unmarshal(body, &results[i]); err != nil {
				errCh <- err
			}
		}(i)
	}

	// Wait until all N are inside the flight: 1 leader + n-1 joiners.
	deadline := time.Now().Add(5 * time.Second)
	for s.metrics.Coalesced.Load() < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d joiners after 5s, want %d", s.metrics.Coalesced.Load(), n-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	if got := s.metrics.FlightLeaders.Load(); got != 1 {
		t.Fatalf("flight leaders = %d, want exactly 1 evaluation", got)
	}
	if got := s.metrics.Coalesced.Load(); got != n-1 {
		t.Fatalf("coalesced = %d, want %d", got, n-1)
	}
	coalesced := 0
	for i, r := range results {
		if !r.Result {
			t.Fatalf("ask %d: result false, want true", i)
		}
		if r.Coalesced {
			coalesced++
		}
	}
	if coalesced != n-1 {
		t.Fatalf("%d responses marked coalesced, want %d", coalesced, n-1)
	}
	if got := len(s.reg.flights.snapshot()); got != 0 {
		t.Fatalf("%d flights still open after completion", got)
	}
}

// TestQueueShedsFast holds the lone worker on one evaluation and fills the
// one-deep queue behind it, then requires the overflow request to be
// rejected promptly — a 503 with Retry-After, not a wait for the 30 s
// deadline — with the shed counters bumped.
func TestQueueShedsFast(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, Queue: 1, RequestTimeout: 30 * time.Second})
	id := register(t, ts.URL, skiUnit)

	gate := make(chan struct{})
	occupied := make(chan struct{})
	var held sync.WaitGroup
	held.Add(2)
	go func() {
		defer held.Done()
		s.pool.TryDo(t.Context(), func() { close(occupied); <-gate }) //nolint:errcheck
	}()
	<-occupied
	go func() {
		defer held.Done()
		s.pool.TryDo(t.Context(), func() {}) //nolint:errcheck
	}()
	release := sync.OnceFunc(func() { close(gate); held.Wait() })
	defer release()
	for s.pool.Depth() < 1 {
		time.Sleep(time.Millisecond)
	}

	// A full queue is one failed channel send, so a shed costs an HTTP
	// round trip; a loaded CI box can stall any single one, so the prompt
	// rejection is the best of a few attempts — each of which must shed.
	const attempts = 5
	var sheds int64
	best := time.Hour
	for sheds < attempts && best >= 50*time.Millisecond {
		start := time.Now()
		resp, body := postJSON(t, ts.URL+"/programs/"+id+"/ask", askRequest{Query: "plane(0, hunter)"})
		best = min(best, time.Since(start))
		sheds++
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatal("shed response missing Retry-After")
		}
	}
	release()
	if best >= 50*time.Millisecond {
		t.Fatalf("fastest of %d sheds took %v, want prompt rejection", attempts, best)
	}
	if got := scrapeJSON(t, ts.URL).num(t, KeyShed); got != float64(sheds) {
		t.Fatalf("shed counter = %v, want %d", got, sheds)
	}
	if got := s.metrics.route("ask").Sheds.Load(); got != sheds {
		t.Fatalf("ask route sheds = %d, want %d", got, sheds)
	}

	// The queue drained: the same request is admitted again.
	if !askServed(t, ts.URL, id, "plane(0, hunter)") {
		t.Fatal("ask after the queue drained returned false")
	}
}

// TestMetricsAdmissionFields checks the /metrics JSON carries the queue
// and coalescing observability.
func TestMetricsAdmissionFields(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := register(t, ts.URL, skiUnit)
	askServed(t, ts.URL, id, "plane(0, hunter)")

	snap := scrapeJSON(t, ts.URL)
	if got := snap.num(t, "queue_capacity"); got <= 0 {
		t.Fatalf("queue_capacity = %v, want positive", got)
	}
	if got := snap.num(t, "flight_leaders"); got < 1 {
		t.Fatalf("flight_leaders = %v after a coalescable ask, want >= 1", got)
	}
}
