package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"tdd"
	"tdd/internal/server"
	"tdd/internal/workload"
)

const (
	// servedEpisode is one registration followed by servedBlocks blocks of
	// requests; after it the client leaves its program behind and
	// registers a fresh one.
	servedEpisode = 1 + servedBlocks*len(servedBlock)
	servedBlocks  = 8
	servedClients = 2
)

// variantParams is the small program each client registers per episode.
var variantParams = workload.SkiParams{YearLen: 28, Resorts: 4, Planes: 6, Holidays: 2, Seed: structSeed}

// servedBlock is the fixed request mix, 25 requests: 80 % ask, 8 %
// answers, 8 % facts, 4 % period, split between the client's own program
// and the shared one. The seed orders each block; it never changes what
// is in it.
var servedBlock = [...]struct {
	route  string
	shared bool
	kind   int // which query shape of the route
}{
	{"ask", true, 0}, {"ask", true, 0}, {"ask", true, 0}, {"ask", true, 0}, {"ask", true, 0}, {"ask", true, 0},
	{"ask", true, 1}, {"ask", true, 1}, {"ask", true, 1}, {"ask", true, 2},
	{"ask", false, 0}, {"ask", false, 0}, {"ask", false, 0}, {"ask", false, 0}, {"ask", false, 0},
	{"ask", false, 0}, {"ask", false, 0}, {"ask", false, 1}, {"ask", false, 1}, {"ask", false, 1},
	{"answers", true, 0}, {"answers", false, 0},
	{"facts", false, 0}, {"facts", false, 0},
	{"period", false, 0},
}

// request is one scripted HTTP request with the answer set-up expects.
type request struct {
	route  string
	shared bool
	body   []byte // nil: GET
	want   reply
}

// reply is the part of every response body the driver checks.
type reply struct {
	ID       string `json:"id,omitempty"`
	Result   bool   `json:"result,omitempty"`
	Count    int    `json:"count,omitempty"`
	NewFacts int    `json:"new_facts,omitempty"`
	Derived  int    `json:"derived,omitempty"`
	Base     int    `json:"base,omitempty"`
	P        int    `json:"p,omitempty"`
}

func jsonBody(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // maps of strings and ints always marshal
	}
	return b
}

// servedClient is one closed-loop caller: its keep-alive connection, its
// episode script, and the program it currently owns.
type servedClient struct {
	http   *http.Client
	facts  string // the variant's facts, without the episode marker
	script []request
	ownID  string
}

// servedInst is a set-up of served_mixed: an in-process server on a
// loopback listener with the shared program registered.
type servedInst struct {
	srv      *server.Server
	serveErr chan error
	url      string
	rules    string // variant rules
	sharedID string
	shared   *tdd.DB
	clients  []*servedClient
	g        goldenEntry
	probeAsk string
	metrics0 serverCounters
}

// serverCounters is the slice of GET /metrics the ratios are taken from.
type serverCounters struct {
	Requests    int64 `json:"requests"`
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	Shed        int64 `json:"shed_requests"`
	Coalesced   int64 `json:"coalesced_requests"`
	Leaders     int64 `json:"flight_leaders"`
}

func newServed(seed int64) (_ instance, err error) {
	w := &servedInst{serveErr: make(chan error, 1)}
	if w.srv, err = server.New(server.Config{}); err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		w.srv.Close()
		return nil, err
	}
	w.url = "http://" + l.Addr().String()
	go func() { w.serveErr <- w.srv.Serve(l) }()
	defer func() {
		if err != nil {
			w.close()
		}
	}()

	// The shared program: the full ski model, read-only, registered once.
	model := skiInputs(skiParams, seed)
	if w.shared, err = tdd.Open(model.rules, model.facts); err != nil {
		return nil, err
	}
	boot := &servedClient{http: newHTTPClient()}
	defer boot.http.CloseIdleConnections()
	var reg reply
	if err := w.call(boot, "POST", "/programs", jsonBody(map[string]string{"rules": model.rules, "facts": model.facts}), &reg); err != nil {
		return nil, fmt.Errorf("registering the shared program: %w", err)
	}
	w.sharedID = reg.ID
	w.probeAsk = fmt.Sprintf("plane(1000003, %s)", model.resorts.name(0))

	var probes []probe
	vrules, vfacts := workload.Ski(variantParams)
	w.rules = vrules
	for c := 0; c < servedClients; c++ {
		own := newLabels("r", seed)
		cl := &servedClient{http: newHTTPClient(), facts: shuffleLines(own.apply(vfacts), seedRNG(seed, fmt.Sprintf("served-facts-%d", c)))}
		ps, err := w.script(cl, c, servedPlan(c, seed, model.resorts, own))
		if err != nil {
			return nil, err
		}
		probes = append(probes, ps...)
		w.clients = append(w.clients, cl)
	}
	probes = uniqueProbes(probes)
	if w.g, err = goldenOf(w.shared, probes); err != nil {
		return nil, err
	}
	if err := crossCheckSpec(w.shared, probes); err != nil {
		return nil, err
	}
	return w, w.call(boot, "GET", "/metrics", nil, &w.metrics0)
}

// uniqueProbes drops repeated probes, keeping first occurrences in order.
func uniqueProbes(ps []probe) []probe {
	seen := make(map[probe]bool, len(ps))
	out := ps[:0]
	for _, p := range ps {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2, DisableCompression: true}}
}

// ownFacts returns client c's program facts for an episode: the variant
// plus a marker resort that makes the content hash new.
func (cl *servedClient) ownFacts(c, episode int) string {
	return cl.facts + fmt.Sprintf("resort(zc%de%d).\n", c, episode)
}

// slot is one scripted request before its answer is known: the request
// and the text the mirror needs to compute what to expect.
type slot struct {
	request
	probe probe  // ask, answers
	batch string // facts
}

// servedPlan lays out client c's episode: what each block asks is drawn
// from the fixed structure, the seed names the constants and orders the
// block. It is a pure function of (c, seed).
func servedPlan(c int, seed int64, shared, own labels) []slot {
	structure := seedRNG(structSeed, fmt.Sprintf("served-structure-%d", c))
	order := seedRNG(seed, fmt.Sprintf("served-order-%d", c))
	plan := make([]slot, 0, servedEpisode-1)
	for b := 0; b < servedBlocks; b++ {
		var block [len(servedBlock)]slot
		for i, mix := range servedBlock {
			sl := &block[i]
			sl.route, sl.shared = mix.route, mix.shared
			resorts, nres, year := own, variantParams.Resorts, variantParams.YearLen
			if mix.shared {
				resorts, nres, year = shared, skiParams.Resorts, skiParams.YearLen
			}
			resort := resorts.name(structure.Intn(nres))
			switch mix.route {
			case "ask":
				sl.probe.Query = fmt.Sprintf("plane(%d, %s)", 1000000+structure.Intn(year), resort)
				switch mix.kind {
				case 1:
					sl.probe.Query = fmt.Sprintf("exists T (plane(T, %s) & winter(T))", resort)
				case 2:
					sl.probe.Query = fmt.Sprintf("exists T plane(T, %s)", resorts.constant("nowhere"))
				}
				sl.body = jsonBody(map[string]any{"query": sl.probe.Query})
			case "answers":
				sl.probe = probe{Query: fmt.Sprintf("plane(T, %s)", resort), Open: true}
				if mix.shared {
					sl.probe = probe{Query: "plane(T, X)", Open: true, Limit: 16}
				}
				sl.body = jsonBody(map[string]any{"query": sl.probe.Query, "limit": sl.probe.Limit})
			case "facts":
				var batch strings.Builder
				for j := 0; j < 3; j++ {
					fmt.Fprintf(&batch, "plane(%d, %s).\n", structure.Intn(year), resorts.name(structure.Intn(nres)))
				}
				sl.batch = batch.String()
				sl.body = jsonBody(map[string]string{"facts": sl.batch})
			case "period":
				sl.shared = b%2 == 1
			}
		}
		order.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		plan = append(plan, block[:]...)
	}
	return plan
}

// script turns client c's plan into its episode script by computing every
// expected answer on in-process mirrors: the shared model, and the
// client's own variant with the plan's fact batches asserted in order. It
// returns the shared-program probes for the golden entry.
func (w *servedInst) script(cl *servedClient, c int, plan []slot) ([]probe, error) {
	mirror, err := tdd.Open(w.rules, cl.ownFacts(c, 0))
	if err != nil {
		return nil, err
	}
	// Registration certifies the program, so the first batch already meets
	// a warm model; a cold mirror would only record it.
	if _, err := mirror.Period(); err != nil {
		return nil, err
	}
	var probes []probe
	cl.script = make([]request, 1, servedEpisode) // [0] is the registration, built per episode
	for i := range plan {
		sl := &plan[i]
		db := mirror
		if sl.shared {
			db = w.shared
		}
		switch sl.route {
		case "ask":
			sl.want.Result, err = db.Ask(sl.probe.Query)
		case "answers":
			var ans []tdd.Answer
			ans, err = db.AnswersLimit(sl.probe.Query, sl.probe.Limit)
			sl.want.Count = len(ans)
		case "facts":
			var res tdd.AssertResult
			res, err = db.Assert(sl.batch)
			sl.want.NewFacts, sl.want.Derived = res.NewFacts, res.Derived
		case "period":
			var per tdd.Period
			per, err = db.Period()
			sl.want.Base, sl.want.P = per.Base, per.P
		}
		if err != nil {
			return nil, fmt.Errorf("client %d request %d (%s): %w", c, i+1, sl.route, err)
		}
		if sl.shared && sl.probe.Query != "" {
			probes = append(probes, sl.probe)
		}
		cl.script = append(cl.script, sl.request)
	}
	return probes, nil
}

// call performs one request on the client's connection and decodes the
// checked part of the reply. A status outside 2xx is an error.
func (w *servedInst) call(cl *servedClient, method, path string, body []byte, out any) error {
	req, err := http.NewRequest(method, w.url+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := cl.http.Do(req)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

// request executes op k of client c. When rec is non-nil the HTTP round
// trip is recorded as a span named after the route.
func (w *servedInst) request(rec *recorder, c, k int) error {
	cl := w.clients[c]
	episode, i := k/servedEpisode, k%servedEpisode
	root := -1
	if rec != nil {
		root = rec.begin("op.request", -1, k)
		defer rec.end(root)
	}
	if i == 0 {
		body := jsonBody(map[string]string{"rules": w.rules, "facts": cl.ownFacts(c, episode)})
		var got reply
		if err := w.timed(rec, root, k, "server.register", cl, "POST", "/programs", body, &got); err != nil {
			return err
		}
		cl.ownID = got.ID
		return nil
	}
	r := &cl.script[i]
	id, method := cl.ownID, "POST"
	if r.shared {
		id = w.sharedID
	}
	if r.body == nil {
		method = "GET"
	}
	var got reply
	if err := w.timed(rec, root, k, "server."+r.route, cl, method, "/programs/"+id+"/"+r.route, r.body, &got); err != nil {
		return err
	}
	got.ID = ""
	if got != r.want {
		return mismatch(r.route+" "+string(r.body), got, r.want)
	}
	return nil
}

func (w *servedInst) timed(rec *recorder, root, k int, name string, cl *servedClient, method, path string, body []byte, out any) error {
	if rec == nil {
		return w.call(cl, method, path, body, out)
	}
	sp := rec.begin(name, root, k)
	err := w.call(cl, method, path, body, out)
	rec.end(sp)
	return err
}

func (w *servedInst) op(c, k int) error { return w.request(nil, c, k) }

func (w *servedInst) prepareStaged() error { return nil }

func (w *servedInst) staged(rec *recorder, c, k int) error { return w.request(rec, c, k) }

// discardWriter is the socket-less ResponseWriter of the handler probe.
type discardWriter struct {
	header http.Header
	status int
}

func (d *discardWriter) Header() http.Header         { return d.header }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(code int)        { d.status = code }

// layers asks one ground query of the shared program three nested ways —
// over the loopback socket, through the handler with no socket, and
// through the facade with no server — and takes the admission and cache
// ratios from the change in GET /metrics since set-up.
func (w *servedInst) layers() (map[string]float64, error) {
	const rounds = 1500
	cl := w.clients[0]
	path := "/programs/" + w.sharedID + "/ask"
	body := jsonBody(map[string]string{"query": w.probeAsk})
	want, err := w.shared.Ask(w.probeAsk)
	if err != nil {
		return nil, err
	}
	loop := make([]float64, rounds)
	handler := make([]float64, rounds)
	facade := make([]float64, rounds)
	h := w.srv.Handler()
	for i := 0; i < rounds; i++ {
		var got reply
		t0 := time.Now()
		err := w.call(cl, "POST", path, body, &got)
		loop[i] = float64(time.Since(t0)) / 1e3
		if err != nil {
			return nil, err
		}
		if got.Result != want {
			return nil, mismatch("loopback "+w.probeAsk, got.Result, want)
		}

		req, err := http.NewRequest("POST", path, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		dw := &discardWriter{header: make(http.Header), status: http.StatusOK}
		t0 = time.Now()
		h.ServeHTTP(dw, req)
		handler[i] = float64(time.Since(t0)) / 1e3
		if dw.status != http.StatusOK {
			return nil, fmt.Errorf("handler probe: status %d", dw.status)
		}

		t0 = time.Now()
		ok, err := w.shared.Ask(w.probeAsk)
		facade[i] = float64(time.Since(t0)) / 1e3
		if err != nil {
			return nil, err
		}
		if ok != want {
			return nil, mismatch("facade "+w.probeAsk, ok, want)
		}
	}
	out := map[string]float64{
		"server.handler_us":       median(handler),
		"server.http_overhead_us": median(loop) - median(handler),
		"server.facade_ask_us":    median(facade),
	}
	var now serverCounters
	if err := w.call(cl, "GET", "/metrics", nil, &now); err != nil {
		return nil, err
	}
	if n := float64(now.Requests - w.metrics0.Requests); n > 0 {
		out["server.shed_ratio"] = float64(now.Shed-w.metrics0.Shed) / n
	}
	coalesced := float64(now.Coalesced - w.metrics0.Coalesced)
	if n := coalesced + float64(now.Leaders-w.metrics0.Leaders); n > 0 {
		out["server.coalesced_ratio"] = coalesced / n
	}
	hits := float64(now.CacheHits - w.metrics0.CacheHits)
	if n := hits + float64(now.CacheMisses-w.metrics0.CacheMisses); n > 0 {
		out["server.cache_hit_ratio"] = hits / n
	}
	return out, nil
}

func (w *servedInst) golden() goldenEntry { return w.g }

// close stops the server and waits for its accept loop to end.
func (w *servedInst) close() {
	for _, cl := range w.clients {
		cl.http.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	w.srv.Shutdown(ctx) //nolint:errcheck // nothing durable to lose; the run is over
	<-w.serveErr
}
