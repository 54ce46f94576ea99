package server

// Live introspection: the /debug endpoint group. Unlike /metrics (counter
// aggregates) these report the server's *current* working set —
//
//   GET /debug/flights  every in-flight HTTP request (age, trace id) and
//                       every in-flight coalescable evaluation with its
//                       joiner count
//   GET /debug/slow     a ring buffer of the last SlowQueryKeep slow
//                       queries with their full phase trees, so a slow
//                       spike can be diagnosed after the fact without
//                       grepping logs
//   GET /debug/graph    a program's predicate dependency condensation
//                       (SCCs, recursion classes, temporal depths,
//                       base-reachability) and, with ?q=, the relevance
//                       slice a query would evaluate
//
// All are read-only snapshots assembled under short locks; they are
// safe to poll from a dashboard while the server is under load.

import (
	"net/http"
	"sort"
	"sync"
	"time"

	"tdd"
	"tdd/internal/obs"
)

// inflightReq is one HTTP request currently executing, tracked by the
// route middleware from dispatch to response.
type inflightReq struct {
	route   string
	method  string
	path    string
	program string // "" on routes without a program id
	traceID string
	started time.Time
}

// inflightTable tracks in-flight requests for /debug/flights. Entries
// are keyed by a monotonically increasing token so removal is O(1) and
// never confuses two requests on the same path.
type inflightTable struct {
	mu   sync.Mutex
	next uint64
	m    map[uint64]*inflightReq
}

func newInflightTable() *inflightTable {
	return &inflightTable{m: make(map[uint64]*inflightReq)}
}

func (t *inflightTable) add(req *inflightReq) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.m[t.next] = req
	return t.next
}

func (t *inflightTable) remove(token uint64) {
	t.mu.Lock()
	delete(t.m, token)
	t.mu.Unlock()
}

func (t *inflightTable) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}

// InflightSnapshot is one in-flight request as reported by
// GET /debug/flights.
type InflightSnapshot struct {
	Route   string `json:"route"`
	Method  string `json:"method"`
	Path    string `json:"path"`
	Program string `json:"program,omitempty"`
	TraceID string `json:"trace_id"`
	AgeUs   int64  `json:"age_us"`
}

// snapshot reports every in-flight request, oldest first — the head of
// the list is the request most worth worrying about.
func (t *inflightTable) snapshot() []InflightSnapshot {
	t.mu.Lock()
	out := make([]InflightSnapshot, 0, len(t.m))
	now := time.Now()
	for _, r := range t.m {
		out = append(out, InflightSnapshot{
			Route:   r.route,
			Method:  r.method,
			Path:    r.path,
			Program: r.program,
			TraceID: r.traceID,
			AgeUs:   now.Sub(r.started).Microseconds(),
		})
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].AgeUs > out[j].AgeUs })
	return out
}

// SlowQuery is one slow-query record in the /debug/slow ring: what ran,
// how long it took, and the full phase tree it produced.
type SlowQuery struct {
	Route     string         `json:"route"`
	Program   string         `json:"program"`
	Query     string         `json:"query"`
	TraceID   string         `json:"trace_id"`
	ElapsedUs int64          `json:"elapsed_us"`
	At        time.Time      `json:"at"`
	Trace     *obs.TraceJSON `json:"trace,omitempty"`
}

// slowRing keeps the last keep slow queries. Older entries are
// overwritten; total counts every slow query ever recorded so a reader
// can tell "quiet since boot" from "ring wrapped many times".
type slowRing struct {
	mu    sync.Mutex
	keep  int
	buf   []SlowQuery
	next  int // write cursor into buf once it is full
	total int64
}

func newSlowRing(keep int) *slowRing {
	return &slowRing{keep: keep}
}

func (r *slowRing) add(q SlowQuery) {
	if r == nil || r.keep <= 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total++
	if len(r.buf) < r.keep {
		r.buf = append(r.buf, q)
		return
	}
	r.buf[r.next] = q
	r.next = (r.next + 1) % r.keep
}

// snapshot returns the retained entries newest-first and the lifetime
// slow-query count.
func (r *slowRing) snapshot() (entries []SlowQuery, total int64) {
	if r == nil {
		return nil, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	entries = make([]SlowQuery, 0, len(r.buf))
	// buf is ordered oldest→newest starting at the write cursor once the
	// ring has wrapped; walk it backwards to emit newest first.
	for i := 0; i < len(r.buf); i++ {
		idx := (r.next - 1 - i + len(r.buf)) % len(r.buf)
		entries = append(entries, r.buf[idx])
	}
	return entries, r.total
}

type debugFlightsResponse struct {
	// Requests is every HTTP request currently executing, oldest first.
	Requests []InflightSnapshot `json:"requests"`
	// Flights is every in-flight coalescable evaluation; a request shows
	// up here only while its leader is evaluating.
	Flights []FlightSnapshot `json:"flights"`
}

// GET /debug/flights
func (s *Server) handleDebugFlights(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, debugFlightsResponse{
		Requests: s.inflight.snapshot(),
		Flights:  s.reg.flights.snapshot(),
	})
}

type debugSlowResponse struct {
	// ThresholdUs is the configured slow-query threshold (0 = logging
	// disabled, in which case the ring never fills).
	ThresholdUs int64 `json:"threshold_us"`
	Keep        int   `json:"keep"`
	// Total counts every slow query since boot; Slow holds the last Keep
	// of them, newest first, each with its full phase tree.
	Total int64       `json:"total"`
	Slow  []SlowQuery `json:"slow"`
}

// GET /debug/slow
func (s *Server) handleDebugSlow(w http.ResponseWriter, _ *http.Request) {
	entries, total := s.slow.snapshot()
	if entries == nil {
		entries = []SlowQuery{}
	}
	writeJSON(w, http.StatusOK, debugSlowResponse{
		ThresholdUs: s.cfg.SlowQueryLog.Microseconds(),
		Keep:        s.cfg.SlowQueryKeep,
		Total:       total,
		Slow:        entries,
	})
}

type debugGraphResponse struct {
	ID string `json:"id"`
	// Graph is the whole-program dependency report: predicates with SCC
	// assignments, the SCC condensation with per-component recursion
	// class / temporal depth / base-reachability, and the rule table.
	Graph tdd.GraphReport `json:"graph"`
	// Rendered is the same condensation as tdd graph prints it.
	Rendered string `json:"rendered"`
	// Slice, present when ?q= names a query, is the relevance slice that
	// query's predicates select.
	Slice *tdd.SliceInfo `json:"slice,omitempty"`
}

// GET /debug/graph?id=PROGRAM[&q=QUERY] — the program's predicate
// dependency condensation (internal/progan), and optionally the slice a
// query would evaluate.
func (s *Server) handleDebugGraph(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	if id == "" {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "missing id parameter"})
		return
	}
	ent, err := s.reg.Lookup(id)
	if err != nil {
		s.fail(w, "debug_graph", err)
		return
	}
	resp := debugGraphResponse{
		ID:       id,
		Graph:    ent.db.GraphJSON(),
		Rendered: ent.db.Graph(),
	}
	if q := r.URL.Query().Get("q"); q != "" {
		info, err := ent.db.SliceFor(q)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
			return
		}
		resp.Slice = &info
	}
	writeJSON(w, http.StatusOK, resp)
}
