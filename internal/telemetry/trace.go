package telemetry

// Request-scoped tracing: a Trace is one request's span tree — flat,
// pooled, and cheap enough to record on every sampled request of a
// serving daemon. Spans are recorded into it through Span handles
// (span.go) started from Root(registry, trace). The design follows the
// package's two contracts:
//
//   - Nil safety. A span whose trace is nil records no tree, so
//     instrumented layers thread one Span through unconditionally and an
//     unsampled request allocates nothing.
//   - Bounded memory. Spans live in one slice whose capacity survives
//     pool round-trips; a trace stops recording (and counts the drops)
//     at MaxTraceSpans instead of growing without bound.
//
// Spans form a tree through parent IDs: 0 is "no parent" (a root span).
// IDs are 1-based indexes into the trace's span slice, so resolving a
// parent is an index, not a search. Concurrent opens, closes and
// attribute writes are safe (the sealed corpus's shard fan-out records
// spans from parallel goroutines); ordering between siblings is whatever
// the scheduler produced.

import (
	"fmt"
	"math/rand/v2"
	"strconv"
	"sync"
	"time"
)

// TraceID is a 64-bit request trace identifier, rendered as 16 lowercase
// hex digits in headers, response JSON and logs. 0 is "no trace".
type TraceID uint64

// String renders the ID as 16 hex digits ("00000000deadbeef").
func (id TraceID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// ParseTraceID parses the 16-hex-digit header form. A malformed or
// zero ID reports ok=false.
func ParseTraceID(s string) (TraceID, bool) {
	if len(s) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil || v == 0 {
		return 0, false
	}
	return TraceID(v), true
}

// NewTraceID returns a fresh random non-zero trace ID.
func NewTraceID() TraceID {
	for {
		if v := rand.Uint64(); v != 0 {
			return TraceID(v)
		}
	}
}

// MaxTraceSpans bounds one trace's span count; Starts past the cap are
// dropped (and counted) rather than grown.
const MaxTraceSpans = 1024

// spanAttr is one typed span attribute.
type spanAttr struct {
	key   string
	num   int64
	str   string
	isStr bool
}

// spanRec is one recorded span. Records and their attr slices are
// reused across pool round-trips.
type spanRec struct {
	name    string
	parent  int32
	startNS int64 // offset from the trace's t0
	durNS   int64 // -1 while the span is open
	attrs   []spanAttr
}

// Trace is one request's span tree. Create with NewTrace, record spans
// from Root(registry, trace), then hand the finished trace to a
// TraceBuffer (which returns it to the pool) or call Free directly. All methods are safe
// for concurrent use and no-ops on a nil receiver.
type Trace struct {
	mu      sync.Mutex
	id      TraceID
	t0      time.Time
	durNS   int64
	spans   []spanRec
	dropped int
}

// tracePool recycles traces: a steady-state server allocates span
// storage only until its deepest request shape has been seen.
var tracePool = sync.Pool{New: func() any { return new(Trace) }}

// NewTrace returns a reset pooled trace with the given ID, its clock
// started now.
func NewTrace(id TraceID) *Trace {
	t := tracePool.Get().(*Trace)
	t.id = id
	t.t0 = time.Now()
	t.durNS = 0
	t.dropped = 0
	t.spans = t.spans[:0]
	return t
}

// Free returns the trace to the pool. The caller must not touch the
// trace afterwards. No-op on nil.
func (t *Trace) Free() {
	if t == nil {
		return
	}
	tracePool.Put(t)
}

// ID reports the trace's identifier; 0 on a nil trace.
func (t *Trace) ID() TraceID {
	if t == nil {
		return 0
	}
	return t.id
}

// open records a span under the given parent (0 for a root span) that
// started at now, and returns its ID: 0 on a nil trace or past
// MaxTraceSpans.
func (t *Trace) open(name string, parent int32, now time.Time) int32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= MaxTraceSpans {
		t.dropped++
		return 0
	}
	var rec *spanRec
	if len(t.spans) < cap(t.spans) {
		t.spans = t.spans[:len(t.spans)+1]
		rec = &t.spans[len(t.spans)-1]
		rec.attrs = rec.attrs[:0]
	} else {
		t.spans = append(t.spans, spanRec{})
		rec = &t.spans[len(t.spans)-1]
	}
	rec.name = name
	rec.parent = parent
	rec.startNS = int64(now.Sub(t.t0))
	rec.durNS = -1
	return int32(len(t.spans))
}

// close stamps span id's duration. Closing twice keeps the first
// duration; no-op for id 0.
func (t *Trace) close(id int32, d time.Duration) {
	if id == 0 {
		return
	}
	t.mu.Lock()
	if rec := &t.spans[id-1]; rec.durNS < 0 {
		rec.durNS = int64(d)
	}
	t.mu.Unlock()
}

// setAttr appends one attribute to span id's record; no-op for id 0.
func (t *Trace) setAttr(id int32, a spanAttr) {
	if id == 0 {
		return
	}
	t.mu.Lock()
	rec := &t.spans[id-1]
	rec.attrs = append(rec.attrs, a)
	t.mu.Unlock()
}

// Finish stamps the trace's total duration as time since NewTrace and
// closes any still-open spans at that instant, so a snapshot is always
// well-formed. Returns the duration; 0 on nil.
func (t *Trace) Finish() time.Duration {
	if t == nil {
		return 0
	}
	d := time.Since(t.t0)
	t.finish(d)
	return d
}

// finish is Finish with a caller-measured duration (the serve layer
// measures from admission, slightly before NewTrace).
func (t *Trace) finish(d time.Duration) {
	t.mu.Lock()
	t.durNS = int64(d)
	for i := range t.spans {
		if t.spans[i].durNS < 0 {
			t.spans[i].durNS = int64(d) - t.spans[i].startNS
			if t.spans[i].durNS < 0 {
				t.spans[i].durNS = 0
			}
		}
	}
	t.mu.Unlock()
}

// TraceSpan is one span of a trace snapshot, in JSON form. Parent 0
// marks a root span.
type TraceSpan struct {
	ID      int32          `json:"id"`
	Parent  int32          `json:"parent,omitempty"`
	Name    string         `json:"name"`
	StartUS float64        `json:"start_us"`
	DurUS   float64        `json:"dur_us"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// TraceSnapshot is a deep, JSON-encodable copy of a completed trace.
type TraceSnapshot struct {
	TraceID string  `json:"trace_id"`
	Start   string  `json:"start"`
	DurUS   float64 `json:"dur_us"`
	// DroppedSpans counts Starts lost to the MaxTraceSpans cap.
	DroppedSpans int         `json:"dropped_spans,omitempty"`
	Spans        []TraceSpan `json:"spans"`
}

// Snapshot deep-copies the trace into its JSON form. Safe to call on a
// live trace; returns the zero snapshot on nil.
func (t *Trace) Snapshot() TraceSnapshot {
	if t == nil {
		return TraceSnapshot{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	snap := TraceSnapshot{
		TraceID:      t.id.String(),
		Start:        t.t0.UTC().Format(time.RFC3339Nano),
		DurUS:        float64(t.durNS) / 1e3,
		DroppedSpans: t.dropped,
		Spans:        make([]TraceSpan, len(t.spans)),
	}
	for i := range t.spans {
		rec := &t.spans[i]
		ts := TraceSpan{
			ID:      int32(i + 1),
			Parent:  rec.parent,
			Name:    rec.name,
			StartUS: float64(rec.startNS) / 1e3,
			DurUS:   float64(rec.durNS) / 1e3,
		}
		if rec.durNS < 0 {
			ts.DurUS = 0 // snapshot of a still-open span
		}
		if len(rec.attrs) > 0 {
			ts.Attrs = make(map[string]any, len(rec.attrs))
			for _, a := range rec.attrs {
				if a.isStr {
					ts.Attrs[a.key] = a.str
				} else {
					ts.Attrs[a.key] = a.num
				}
			}
		}
		snap.Spans[i] = ts
	}
	return snap
}
