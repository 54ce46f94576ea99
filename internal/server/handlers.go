package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"tdd"
	"tdd/internal/obs"
	"tdd/internal/wal"
)

// Wire types. Every response body is JSON; errors are {"error": "..."}
// with a matching status code.

type registerRequest struct {
	// Unit is a mixed rules+facts source (facts are the ground unit
	// clauses); alternatively Rules and Facts are separate sources.
	Unit  string `json:"unit,omitempty"`
	Rules string `json:"rules,omitempty"`
	Facts string `json:"facts,omitempty"`
}

type periodJSON struct {
	Base int `json:"base"`
	P    int `json:"p"`
}

type registerResponse struct {
	ID              string     `json:"id"`
	Rev             string     `json:"rev"`
	Existing        bool       `json:"existing"`
	Period          periodJSON `json:"period"`
	Representatives int        `json:"representatives"`
	Facts           int        `json:"facts"`
	// LintWarnings counts lint findings at warning severity or above,
	// always present so clients notice defects without opting in.
	LintWarnings int `json:"lint_warnings"`
	// Lint is the full Tier-A diagnostic list, present when the request
	// carried ?lint=1.
	Lint *tdd.LintResult `json:"lint,omitempty"`
}

type factsRequest struct {
	// Facts is a fact source in the same syntax as registration fact
	// sources, including interval facts.
	Facts string `json:"facts"`
}

type factsResponse struct {
	ID string `json:"id"`
	// Rev is the program's new content revision; it advances with every
	// ingested batch while the id stays the stable handle.
	Rev             string     `json:"rev"`
	NewFacts        int        `json:"new_facts"`
	Duplicates      int        `json:"duplicates"`
	Derived         int        `json:"derived"`
	Recertified     bool       `json:"recertified"`
	PeriodChanged   bool       `json:"period_changed"`
	Period          periodJSON `json:"period"`
	Representatives int        `json:"representatives"`
	Facts           int        `json:"facts"`
	// LintWarnings and Lint mirror registerResponse: the batch may have
	// filled a predicate that was flagged undefined, or emptied nothing —
	// the program is re-linted against the extended database.
	LintWarnings int             `json:"lint_warnings"`
	Lint         *tdd.LintResult `json:"lint,omitempty"`
	ElapsedUs    int64           `json:"elapsed_us"`
}

type askRequest struct {
	Query string `json:"query"`
}

type askResponse struct {
	Result    bool   `json:"result"`
	Engine    string `json:"engine"` // always "spec": a served program is certified at registration
	ElapsedUs int64  `json:"elapsed_us"`
	// Coalesced marks a response served by joining an identical in-flight
	// evaluation rather than running its own.
	Coalesced bool   `json:"coalesced,omitempty"`
	TraceID   string `json:"trace_id,omitempty"`
	// Trace is the merged phase tree (compile pipeline + this request),
	// present when the request carried ?trace=1.
	Trace *traceJSON `json:"trace,omitempty"`
	// Profile is the program's EXPLAIN ANALYZE join-cost profile —
	// per-rule, per-body-literal scan/match counters with attributed wall
	// time, bucketed by timestamp stratum — present when the request
	// carried ?profile=1. It covers the snapshot's whole evaluation
	// (compile-time certification plus every ingest in its history), not
	// just this request: a warm ask answers from the spec cache and does
	// no join work of its own.
	Profile *tdd.ProfileReport `json:"profile,omitempty"`
}

// traceJSON is the ?trace=1 response block: the merged phase tree plus
// the warm program's per-rule firing table.
type traceJSON struct {
	obs.TraceJSON
	Rules []tdd.RuleStat `json:"rules,omitempty"`
}

// mergedTrace folds the program's lifetime trace (compile + ingests) into
// the request's own trace as a synthetic leading "compile" phase, so a
// warm query's tree still shows where the preprocessing time went. The
// compile phase's duration is the sum of its children (the lifetime
// trace's wall clock includes arbitrary idle time between requests, so it
// would dwarf the work it contains); the merged total is that sum plus
// the request's wall time, keeping phase durations and the total
// consistent.
func mergedTrace(compile *obs.TraceJSON, req *obs.TraceJSON, rules []tdd.RuleStat) *traceJSON {
	if req == nil {
		return nil
	}
	out := &traceJSON{TraceJSON: *req, Rules: rules}
	if compile != nil {
		var us int64
		for _, p := range compile.Phases {
			us += p.Us
		}
		cp := obs.SpanJSON{Name: "compile", Us: us, Children: compile.Phases}
		out.Phases = append([]obs.SpanJSON{cp}, req.Phases...)
		out.TotalUs = us + req.TotalUs
		out.Dropped += compile.Dropped
	}
	return out
}

type answersRequest struct {
	Query string `json:"query"`
	Limit int    `json:"limit,omitempty"` // 0 = unlimited
}

type answerJSON struct {
	Temporal    map[string]int    `json:"temporal,omitempty"`
	NonTemporal map[string]string `json:"non_temporal,omitempty"`
}

type answersResponse struct {
	Answers []answerJSON `json:"answers"`
	Count   int          `json:"count"`
	// Rewrite is the specification's rewrite rule; each temporal binding
	// t stands for the infinite family reachable by running the rule
	// backwards (t, t+p, t+2p, ... once t >= base).
	Rewrite   string     `json:"rewrite"`
	Engine    string     `json:"engine"`
	ElapsedUs int64      `json:"elapsed_us"`
	Coalesced bool       `json:"coalesced,omitempty"`
	TraceID   string     `json:"trace_id,omitempty"`
	Trace     *traceJSON `json:"trace,omitempty"`
	// Profile mirrors askResponse.Profile (?profile=1).
	Profile *tdd.ProfileReport `json:"profile,omitempty"`
}

type listResponse struct {
	Programs []string `json:"programs"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// maxBodyBytes bounds request bodies; programs and queries are text, a
// megabyte is already generous.
const maxBodyBytes = 1 << 20

// jsonWriter is a pooled response encoder: enc encodes into buf, which
// writeJSON hands to the response in one Write. json.Encoder marshals a
// whole value before writing it, so the bytes are those a
// json.NewEncoder(w) with the same indent would write, and nothing on an
// encoding error.
type jsonWriter struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonWriters = sync.Pool{New: func() any {
	jw := &jsonWriter{}
	jw.enc = json.NewEncoder(&jw.buf)
	jw.enc.SetIndent("", " ")
	return jw
}}

// maxPooledResponse bounds the buffer a pooled encoder keeps: one large
// response (a long answers list, a trace) is not held for the next.
const maxPooledResponse = 64 << 10

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	jw := jsonWriters.Get().(*jsonWriter)
	jw.buf.Reset()
	if jw.enc.Encode(v) == nil {
		w.Write(jw.buf.Bytes()) //nolint:errcheck // best effort; client may be gone
	}
	if jw.buf.Cap() <= maxPooledResponse {
		jsonWriters.Put(jw)
	}
}

// fail maps an error to a JSON error response and books it against the
// route's counters. The shed verdict is the explicit-backpressure surface:
// a full worker queue is 503 with Retry-After, so well-behaved clients and
// load balancers pace themselves. Timeouts become 503; unknown programs
// 404; a panic the pool recovered 500, with its stack in the server's
// log; everything else is a client error 400.
func (s *Server) fail(w http.ResponseWriter, route string, err error) {
	rm := s.metrics.route(route)
	status := http.StatusBadRequest
	var panicked *PanicError
	switch {
	case errors.As(err, &panicked):
		status = http.StatusInternalServerError
		s.metrics.Panics.Add(1)
		s.cfg.Logger.Error("request panicked", "route", route, "panic", panicked.Value, "stack", string(panicked.Stack))
	case errors.Is(err, ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, ErrQueueFull):
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
		rm.Sheds.Add(1)
		err = fmt.Errorf("overloaded, retry later: %w", err)
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		status = http.StatusServiceUnavailable
		rm.Timeouts.Add(1)
		err = fmt.Errorf("request timed out or was canceled: %w", err)
	case errors.Is(err, ErrPoolClosed), errors.Is(err, wal.ErrClosed):
		// A WAL closed mid-request means shutdown won the race: the batch
		// was rejected, not torn — retry against a live server.
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding request body: %w", err)
	}
	// One object per body: anything after it but whitespace is refused.
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("decoding request body: unexpected data after the JSON object")
	}
	return nil
}

// dispatch runs fn on the worker pool under the per-request deadline. A
// full queue rejects in microseconds (ErrQueueFull) instead of blocking
// the connection until its deadline.
func (s *Server) dispatch(r *http.Request, fn func()) error {
	ctx := r.Context()
	if s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}
	return s.pool.TryDo(ctx, fn)
}

// run dispatches fn and reports whether it ran and succeeded; otherwise
// the error response has been written.
func (s *Server) run(w http.ResponseWriter, r *http.Request, route string, fn func() error) bool {
	var err error
	if derr := s.dispatch(r, func() { err = fn() }); derr != nil {
		// The abandoned closure may still write err: report derr alone.
		s.fail(w, route, derr)
		return false
	}
	if err != nil {
		s.fail(w, route, err)
		return false
	}
	return true
}

// awaitFlight blocks a coalesced request until its flight leader's
// evaluation resolves, honoring the joiner's own deadline. Joiners hold
// no worker and no queue slot — that is the point.
func (s *Server) awaitFlight(r *http.Request, f *flight) error {
	ctx := r.Context()
	if s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}
	select {
	case <-f.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// rejectReadOnly rejects a mutating request on a follower: the replica's
// state is defined entirely by the leader's WAL feed, so local writes
// would fork it. Enforced at the handler level — the registry itself
// stays writable for the replication loop.
func (s *Server) rejectReadOnly(w http.ResponseWriter) bool {
	if !s.readOnly {
		return false
	}
	writeJSON(w, http.StatusForbidden,
		errorResponse{Error: "read-only follower of " + s.cfg.Follow + ": send writes to the leader"})
	return true
}

// POST /programs
func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	if s.rejectReadOnly(w) {
		return
	}
	var req registerRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.fail(w, "register", err)
		return
	}
	if req.Unit == "" && req.Rules == "" {
		s.fail(w, "register", errors.New(`need "unit" or "rules" (+ optional "facts")`))
		return
	}
	if req.Unit != "" && (req.Rules != "" || req.Facts != "") {
		s.fail(w, "register", errors.New(`"unit" excludes "rules"/"facts"`))
		return
	}
	var (
		ent      *entry
		existing bool
	)
	if !s.run(w, r, "register", func() (err error) {
		ent, existing, err = s.reg.Register(req.Unit, req.Rules, req.Facts)
		return err
	}) {
		return
	}
	status := http.StatusCreated
	if existing {
		status = http.StatusOK
	}
	resp := registerResponse{
		ID:              ent.src.id,
		Rev:             ent.Rev(),
		Existing:        existing,
		Period:          periodJSON(ent.cert.Period),
		Representatives: ent.cert.Representatives,
		Facts:           ent.cert.Facts,
		LintWarnings:    ent.lint.Warnings(),
	}
	if optedIn(r, "lint") {
		res := ent.Lint()
		resp.Lint = &res
	}
	writeJSON(w, status, resp)
}

// GET /programs
func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, listResponse{Programs: s.reg.IDs()})
}

// POST /programs/{id}/facts — incremental fact ingestion. The batch is
// asserted into a fork of the program's database, propagated semi-naively
// through the evaluated model, re-certified, and published atomically;
// concurrent queries see the program either entirely before or entirely
// after the batch. Writers on one program are serialized.
func (s *Server) handleFacts(w http.ResponseWriter, r *http.Request) {
	if s.rejectReadOnly(w) {
		return
	}
	var req factsRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.fail(w, "facts", err)
		return
	}
	if req.Facts == "" {
		s.fail(w, "facts", errors.New(`need "facts"`))
		return
	}
	var (
		ent *entry
		res tdd.AssertResult
	)
	id := r.PathValue("id")
	start := time.Now()
	if !s.run(w, r, "facts", func() (err error) {
		ent, res, err = s.reg.Ingest(id, req.Facts)
		return err
	}) {
		return
	}
	resp := factsResponse{
		ID:              ent.src.id,
		Rev:             ent.Rev(),
		NewFacts:        res.NewFacts,
		Duplicates:      res.Duplicates,
		Derived:         res.Derived,
		Recertified:     res.Recertified,
		PeriodChanged:   res.PeriodChanged,
		Period:          periodJSON(ent.cert.Period),
		Representatives: ent.cert.Representatives,
		Facts:           ent.cert.Facts,
		LintWarnings:    ent.lint.Warnings(),
		ElapsedUs:       time.Since(start).Microseconds(),
	}
	if optedIn(r, "lint") {
		lres := ent.Lint()
		resp.Lint = &lres
	}
	writeJSON(w, http.StatusOK, resp)
}

// optedIn reports whether the request carries ?name=1: "trace" for the
// inline phase tree, "lint" for the full diagnostic list (the warning count
// is always present), "profile" for the EXPLAIN ANALYZE join-cost profile.
func optedIn(r *http.Request, name string) bool {
	if r.URL.RawQuery == "" {
		return false // the common case: skip parsing (and allocating) an empty query
	}
	v := r.URL.Query().Get(name)
	return v == "1" || v == "true"
}

// maybeLogSlow dumps the full phase tree of a request that crossed the
// configured slow-query threshold, and retains it in the /debug/slow
// ring so the tree is inspectable after the log line has scrolled away.
func (s *Server) maybeLogSlow(route, id, q string, elapsed time.Duration, tr *obs.Trace) {
	if s.cfg.SlowQueryLog <= 0 || elapsed < s.cfg.SlowQueryLog {
		return
	}
	s.slow.add(SlowQuery{
		Route:     route,
		Program:   id,
		Query:     q,
		TraceID:   tr.ID(),
		ElapsedUs: elapsed.Microseconds(),
		At:        time.Now(),
		Trace:     tr.Snapshot(),
	})
	s.cfg.Logger.Warn("slow query",
		"route", route,
		"program", id,
		"query", q,
		"elapsed_us", elapsed.Microseconds(),
		"threshold_us", s.cfg.SlowQueryLog.Microseconds(),
		"trace", tr.ID(),
		"phases", "\n"+tr.Tree(),
	)
}

// evaluate is the scaffold shared by ask and answers: it resolves key.id's
// warm entry and runs body against it on the worker pool, coalescing
// identical concurrent requests onto one evaluation. body stores its
// result in the handler's out (whose ent is set here); a joiner gets a copy
// of its flight leader's. tr is the request's own trace, nil unless
// ?trace=1 or the slow-query log wants one. ok=false means the error
// response has already been written.
func (s *Server) evaluate(w http.ResponseWriter, r *http.Request, route string, key flightKey,
	out *evaluation, body func(*entry, *obs.Trace) error) (_ *obs.Trace, coalesced, ok bool) {
	// Capture request-derived values before dispatch: on timeout the
	// worker may still run the closure after the handler has returned,
	// when r is no longer safe to touch.
	traceOn := optedIn(r, "trace") || s.cfg.SlowQueryLog > 0
	tid := obs.IDFrom(r.Context())
	// The revision read is one map lookup; it doubles as the 404
	// fast path and pins the coalescing key — identical requests coalesce
	// only within one content revision, so an ingest that moves the
	// program immediately stops answers from riding the stale flight.
	var known bool
	if _, key.rev, known = s.reg.SeqRev(key.id); !known {
		s.fail(w, route, ErrNotFound)
		return nil, false, false
	}
	// tr and *out belong to the dispatched closure until dispatch succeeds:
	// after a failed one it may still be running, so neither is read.
	var tr *obs.Trace
	eval := func() {
		if out.ent, out.err = s.reg.Lookup(key.id); out.err != nil {
			return
		}
		// The trace starts inside the dispatched closure so queue wait
		// does not smear into the first phase's duration.
		if traceOn {
			tr = obs.NewWithID(tid)
		}
		out.err = body(out.ent, tr)
	}
	var derr error
	if traceOn {
		// A trace documents one evaluation, so a traced request owns one:
		// it never joins, and nothing joins it (its result is never
		// published to the flight group).
		derr = s.dispatch(r, eval)
	} else if f, leader := s.reg.flights.join(key); leader {
		s.metrics.FlightLeaders.Add(1)
		if derr = s.dispatch(r, eval); derr != nil {
			// Publish only the dispatch error, never the closure's fields.
			f.err = derr
		} else {
			f.evaluation = *out
		}
		s.reg.flights.finish(key, f)
	} else {
		s.metrics.Coalesced.Add(1)
		if derr = s.awaitFlight(r, f); derr == nil {
			*out, coalesced = f.evaluation, true
		}
	}
	if derr == nil {
		derr = out.err
	}
	if derr != nil {
		s.fail(w, route, derr)
		return nil, false, false
	}
	return tr, coalesced, true
}

// diagnostics builds the opt-in response blocks: the merged phase tree
// (?trace=1) and the join-cost profile (?profile=1). The profile is
// program-lifetime state read at response-assembly time, so unlike a
// trace it does not force the request out of the coalescing path.
func diagnostics(r *http.Request, ent *entry, tr *obs.Trace) (trace *traceJSON, profile *tdd.ProfileReport) {
	if optedIn(r, "trace") {
		trace = mergedTrace(ent.CompileTrace(), tr.Snapshot(), ent.db.EngineDetail().Rules)
	}
	if optedIn(r, "profile") {
		profile = ent.db.ProfileReport()
	}
	return trace, profile
}

// POST /programs/{id}/ask
func (s *Server) handleAsk(w http.ResponseWriter, r *http.Request) {
	var req askRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.fail(w, "ask", err)
		return
	}
	id := r.PathValue("id")
	start := time.Now()
	var out evaluation
	tr, coalesced, ok := s.evaluate(w, r, "ask", flightKey{id: id, kind: askFlight, query: req.Query}, &out,
		func(ent *entry, tr *obs.Trace) (err error) {
			out.result, err = ent.db.AskTrace(req.Query, tr)
			return err
		})
	if !ok {
		return
	}
	elapsed := time.Since(start)
	resp := askResponse{
		Result:    out.result,
		Engine:    "spec",
		ElapsedUs: elapsed.Microseconds(),
		Coalesced: coalesced,
		TraceID:   obs.IDFrom(r.Context()),
	}
	resp.Trace, resp.Profile = diagnostics(r, out.ent, tr)
	s.maybeLogSlow("ask", id, req.Query, elapsed, tr)
	writeJSON(w, http.StatusOK, resp)
}

// POST /programs/{id}/answers
func (s *Server) handleAnswers(w http.ResponseWriter, r *http.Request) {
	var req answersRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.fail(w, "answers", err)
		return
	}
	if req.Limit < 0 {
		s.fail(w, "answers", errors.New("limit must be >= 0"))
		return
	}
	id := r.PathValue("id")
	start := time.Now()
	var out evaluation
	// The limit participates in the key: answers with different limits
	// are different result sets and must not share a flight.
	key := flightKey{id: id, kind: answersFlight, query: req.Query, limit: req.Limit}
	tr, coalesced, ok := s.evaluate(w, r, "answers", key, &out,
		func(ent *entry, tr *obs.Trace) (err error) {
			out.ans, err = ent.db.AnswersLimitTrace(req.Query, req.Limit, tr)
			return err
		})
	if !ok {
		return
	}
	elapsed := time.Since(start)
	per := out.ent.cert.Period
	resp := answersResponse{
		Answers:   make([]answerJSON, 0, len(out.ans)),
		Count:     len(out.ans),
		Rewrite:   fmt.Sprintf("%d -> %d", per.Base+per.P, per.Base),
		Engine:    "spec",
		ElapsedUs: elapsed.Microseconds(),
		Coalesced: coalesced,
		TraceID:   obs.IDFrom(r.Context()),
	}
	resp.Trace, resp.Profile = diagnostics(r, out.ent, tr)
	for _, a := range out.ans {
		resp.Answers = append(resp.Answers, answerJSON{Temporal: a.Temporal, NonTemporal: a.NonTemporal})
	}
	s.maybeLogSlow("answers", id, req.Query, elapsed, tr)
	writeJSON(w, http.StatusOK, resp)
}

// GET /programs/{id}/period
func (s *Server) handlePeriod(w http.ResponseWriter, r *http.Request) {
	var ent *entry
	id := r.PathValue("id")
	if !s.run(w, r, "period", func() (err error) {
		ent, err = s.reg.Lookup(id)
		return err
	}) {
		return
	}
	writeJSON(w, http.StatusOK, periodJSON(ent.cert.Period))
}

// GET /programs/{id}/spec — the relational specification, exported on
// demand from the snapshot the entry serves, in the stand-alone JSON form
// of the tdd facade, so clients can serve queries locally without the
// rules or the server.
func (s *Server) handleSpec(w http.ResponseWriter, r *http.Request) {
	var data []byte
	id := r.PathValue("id")
	if !s.run(w, r, "spec", func() error {
		ent, err := s.reg.Lookup(id)
		if err == nil {
			data, err = ent.db.ExportSpec()
		}
		return err
	}) {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(data) //nolint:errcheck
}

// GET /programs/{id}/wal — the replication feed: the batch history past
// the caller's cursor (?from=N batches already held), with the base
// sources when the cursor is 0 so an empty follower can bootstrap. The
// feed is built from the registry's in-memory rev chain, so any server —
// durable or not — can lead.
func (s *Server) handleWAL(w http.ResponseWriter, r *http.Request) {
	var from uint64
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			s.fail(w, "wal", fmt.Errorf("bad from cursor %q: %w", v, err))
			return
		}
		from = n
	}
	var feed WalFeed
	id := r.PathValue("id")
	if !s.run(w, r, "wal", func() (err error) {
		feed, err = s.reg.Feed(id, from)
		return err
	}) {
		return
	}
	writeJSON(w, http.StatusOK, feed)
}

// GET /healthz
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
