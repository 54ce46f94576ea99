// Package obs is a lightweight span/trace layer for the query-processing
// pipeline: a Trace is a tree of named, timed phases (parse, classify,
// certify-period, fixpoint sweeps, answer, ...) with integer counters
// attached. Traces power the server's ?trace=1 phase trees, the
// slow-query log, and tdd query's offline -trace EXPLAIN output.
//
// Tracing is opt-in per computation. A nil *Trace (and the nil *Span
// every method of a nil trace returns) is the disabled state: every
// method is a nil-receiver no-op, so instrumented code paths pay one
// pointer comparison — no allocation, no lock — when tracing is off.
// Instrumentation sites therefore never need to guard their calls.
//
// A Trace maintains a current-span stack: Begin opens a span as a child
// of the innermost open span, so layered instrumentation (core opens
// "certify-period", the engine opens "fixpoint" inside it) nests without
// the layers knowing about each other. The stack makes a Trace
// single-writer by design; the internal mutex only protects snapshotting
// a trace that another goroutine is still appending to.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// maxSpans bounds the spans recorded per trace so long-lived traces (a
// streaming session asserting thousands of batches) stay bounded; spans
// beyond the cap are counted, not recorded.
const maxSpans = 1 << 12

// clockBase anchors ClockNS: readings are offsets from process start,
// so they carry Go's monotonic clock and survive wall-clock steps.
var clockBase = time.Now()

// ClockNS returns monotonic nanoseconds since process start. It exists
// so packages under the clock import ban (internal/engine,
// internal/core) can measure durations for observability without
// importing "time": the reading feeds profiler/trace output only, never
// a model-visible value.
func ClockNS() int64 {
	return int64(time.Since(clockBase))
}

// NewID returns a fresh 16-hex-digit trace ID.
func NewID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failure is effectively impossible; fall back to a
		// time-derived ID rather than propagating an error through every
		// instrumentation site.
		return fmt.Sprintf("%016x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// Trace is one trace: an ID plus a tree of spans. The zero value is not
// used; construct with New or NewWithID. A nil *Trace is the disabled
// no-op tracer.
type Trace struct {
	id    string
	start time.Time

	mu      sync.Mutex
	phases  []*Span // top-level spans in creation order
	cur     *Span   // innermost open span; nil at top level
	nspans  int
	dropped int
}

// New returns a new trace with a fresh random ID.
func New() *Trace { return NewWithID(NewID()) }

// NewWithID returns a new trace carrying the given ID (the server reuses
// the per-request ID from its logs so log lines and trace trees join).
func NewWithID(id string) *Trace {
	return &Trace{id: id, start: time.Now()}
}

// ID returns the trace ID ("" on a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Begin opens a named span as a child of the innermost open span (or as
// a top-level phase) and makes it current. Returns nil — still safe to
// use — on a nil trace or past the span cap.
func (t *Trace) Begin(name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.nspans >= maxSpans {
		t.dropped++
		return nil
	}
	t.nspans++
	sp := &Span{tr: t, name: name, start: time.Now(), parent: t.cur}
	if t.cur != nil {
		t.cur.children = append(t.cur.children, sp)
	} else {
		t.phases = append(t.phases, sp)
	}
	t.cur = sp
	return sp
}

// Span is one named, timed phase of a trace. A nil *Span is a no-op.
type Span struct {
	tr     *Trace
	name   string
	start  time.Time
	dur    time.Duration
	ended  bool
	parent *Span

	counters []counter
	children []*Span
}

type counter struct {
	key string
	val int64
}

// Add accumulates an integer counter on the span (repeated keys sum).
func (s *Span) Add(key string, n int64) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	for i := range s.counters {
		if s.counters[i].key == key {
			s.counters[i].val += n
			return
		}
	}
	s.counters = append(s.counters, counter{key: key, val: n})
}

// End closes the span, recording its duration. The trace's current span
// reverts to the span's parent. End is idempotent.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	if s.ended {
		return
	}
	s.ended = true
	s.dur = time.Since(s.start)
	// Pop back to the parent. If children were left open (error paths),
	// closing the parent abandons them; their recorded time is whatever
	// elapsed before the snapshot.
	if s.tr.cur == s {
		s.tr.cur = s.parent
	}
}

// SpanJSON is the wire form of one span.
type SpanJSON struct {
	Name     string           `json:"name"`
	Us       int64            `json:"us"`
	Counters map[string]int64 `json:"counters,omitempty"`
	Children []SpanJSON       `json:"children,omitempty"`
}

// TraceJSON is the wire form of a whole trace: the phase tree plus the
// trace's total wall time from creation to snapshot. Instrumented
// pipelines keep their phases contiguous, so the per-phase durations sum
// to (within noise of) TotalUs.
type TraceJSON struct {
	TraceID string     `json:"trace_id"`
	TotalUs int64      `json:"total_us"`
	Dropped int        `json:"dropped_spans,omitempty"`
	Phases  []SpanJSON `json:"phases"`
}

// Snapshot renders the trace to its wire form (nil on a nil trace).
// Open spans are reported with their elapsed-so-far duration.
func (t *Trace) Snapshot() *TraceJSON {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := &TraceJSON{
		TraceID: t.id,
		TotalUs: time.Since(t.start).Microseconds(),
		Dropped: t.dropped,
		Phases:  make([]SpanJSON, len(t.phases)),
	}
	for i, sp := range t.phases {
		out.Phases[i] = sp.json()
	}
	return out
}

// json renders one span subtree; caller holds the trace mutex.
func (s *Span) json() SpanJSON {
	d := s.dur
	if !s.ended {
		d = time.Since(s.start)
	}
	j := SpanJSON{Name: s.name, Us: d.Microseconds()}
	if len(s.counters) > 0 {
		j.Counters = make(map[string]int64, len(s.counters))
		for _, c := range s.counters {
			j.Counters[c.key] = c.val
		}
	}
	for _, c := range s.children {
		j.Children = append(j.Children, c.json())
	}
	return j
}

// Tree renders the trace as an indented text phase tree for terminals
// and the slow-query log ("" on a nil trace).
func (t *Trace) Tree() string {
	snap := t.Snapshot()
	if snap == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s  total=%s\n", snap.TraceID, FormatUs(snap.TotalUs))
	for _, p := range snap.Phases {
		writeSpanTree(&b, p, 1)
	}
	if snap.Dropped > 0 {
		fmt.Fprintf(&b, "  (%d spans dropped past the %d-span cap)\n", snap.Dropped, maxSpans)
	}
	return b.String()
}

func writeSpanTree(b *strings.Builder, s SpanJSON, depth int) {
	fmt.Fprintf(b, "%s%-*s %10s", strings.Repeat("  ", depth), 24-2*depth, s.Name, FormatUs(s.Us))
	if len(s.Counters) > 0 {
		keys := make([]string, 0, len(s.Counters))
		for k := range s.Counters {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(b, "  %s=%d", k, s.Counters[k])
		}
	}
	b.WriteByte('\n')
	for _, c := range s.Children {
		writeSpanTree(b, c, depth+1)
	}
}

// FormatUs renders a microsecond count the way every phase tree and
// EXPLAIN ANALYZE report prints a duration.
func FormatUs(us int64) string {
	return (time.Duration(us) * time.Microsecond).String()
}

// ctxKey is the context key type for request-scoped trace IDs.
type ctxKey struct{}

// WithID returns a context carrying the trace ID.
func WithID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, ctxKey{}, id)
}

// IDFrom extracts the trace ID from the context ("" if absent).
func IDFrom(ctx context.Context) string {
	id, _ := ctx.Value(ctxKey{}).(string)
	return id
}
