package server

// Hand-rolled singleflight for evaluation: identical concurrent asks —
// same program, same content revision, same query text (and for the
// answers endpoint, the same limit) — coalesce into one evaluation, and
// so do concurrent cache misses on one program revision (Registry.Lookup),
// into one compile. The first request becomes the flight leader and does
// the work — an ask through the ordinary admission path (the worker
// pool); every later arrival joins the in-flight evaluation and just
// waits for the leader's result, consuming no worker and no queue slot.
// The revision is part of the key, so an ingest that moves the program
// immediately stops coalescing against the stale model: the next ask for
// the new revision starts a fresh flight.
//
// Results are shared by pointer: entries and answer slices are
// immutable once published, and error values are never mutated, so a
// joiner may read the flight's fields freely after done is closed (the
// close is the happens-before edge).

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tdd"
)

// flightKey identifies one coalescable evaluation.
type flightKey struct {
	id    string
	rev   string
	query string // ask and answers only
	kind  flightKind
	limit int // answers only
}

// flightKind is what a flight evaluates. It is a byte so that flightKey,
// and the flight each leader allocates, keep their size classes.
type flightKind uint8

const (
	askFlight     flightKind = iota // a closed query (boolean)
	answersFlight                   // an open query (enumeration)
	compileFlight                   // a cache miss (Registry.Lookup)
)

func (k flightKind) String() string { return [...]string{"ask", "answers", "compile"}[k] }

// flight is one in-progress evaluation. The leader fills the result
// fields, then closes done; joiners block on done.
type flight struct {
	done chan struct{}

	// Introspection state for /debug/flights: the key and start time are
	// fixed at creation; joiners counts requests that coalesced onto this
	// evaluation (atomic — joins race the debug snapshot).
	key     flightKey
	started time.Time
	joiners atomic.Int64

	// Written by the leader before close(done), read-only afterwards.
	evaluation
}

// evaluation is what one ask or answers evaluation produced: the entry it
// ran against and the route's result, or the error that prevented one. A
// compile fills ent or err only.
type evaluation struct {
	ent    *entry
	result bool         // ask
	ans    []tdd.Answer // answers
	err    error
}

// flightGroup tracks in-flight evaluations by key. The zero value is
// ready to use.
type flightGroup struct {
	mu sync.Mutex
	m  map[flightKey]*flight
}

// join returns the flight for key, creating it when none is in
// progress. leader reports whether the caller owns the evaluation and
// must eventually call finish; a joiner only waits on f.done.
func (g *flightGroup) join(key flightKey) (f *flight, leader bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.m == nil {
		g.m = make(map[flightKey]*flight)
	}
	if f, ok := g.m[key]; ok {
		f.joiners.Add(1)
		return f, false
	}
	f = &flight{done: make(chan struct{}), key: key, started: time.Now()}
	g.m[key] = f
	return f, true
}

// finish publishes the leader's result: the key is retired first, so a
// request arriving after the close starts a fresh flight rather than
// reading an ever-staler cached answer, then done is closed to release
// the joiners.
func (g *flightGroup) finish(key flightKey, f *flight) {
	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	close(f.done)
}

// FlightSnapshot is one in-flight coalescable evaluation as reported by
// GET /debug/flights.
type FlightSnapshot struct {
	Program string `json:"program"`
	Rev     string `json:"rev"`
	Query   string `json:"query"`
	Kind    string `json:"kind"` // "ask", "answers" or "compile"
	Limit   int    `json:"limit,omitempty"`
	Joiners int64  `json:"joiners"`
	AgeUs   int64  `json:"age_us"`
}

// snapshot reports every in-flight evaluation, oldest first.
func (g *flightGroup) snapshot() []FlightSnapshot {
	g.mu.Lock()
	out := make([]FlightSnapshot, 0, len(g.m))
	now := time.Now()
	for _, f := range g.m {
		out = append(out, FlightSnapshot{
			Program: f.key.id,
			Rev:     f.key.rev,
			Query:   f.key.query,
			Kind:    f.key.kind.String(),
			Limit:   f.key.limit,
			Joiners: f.joiners.Load(),
			AgeUs:   now.Sub(f.started).Microseconds(),
		})
	}
	g.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].AgeUs > out[j].AgeUs })
	return out
}
