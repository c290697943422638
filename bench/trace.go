package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer's public function, recorded by
// the benchmark around the call. Spans of one request share Req; Parent
// is the span that caused this one (0 for a request's root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the trace began.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// N holds the counts taken at the same boundary as the span.
	N map[string]int64 `json:"n,omitempty"`
}

// tracer records spans in memory on the one goroutine that replays
// requests; they are written out when the run ends. A disabled tracer
// makes begin and end no-ops, which is how the same replay code runs
// untraced to measure the tracing overhead.
type tracer struct {
	off   bool
	t0    time.Time
	spans []span
	stack []int // open span IDs, innermost last
	req   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// request opens a new request scope: spans begun until the next call
// carry its ID.
func (t *tracer) request() int {
	t.req++
	return t.req
}

func (t *tracer) begin(name string) int {
	if t.off {
		return 0
	}
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: t.req, Name: name})
	t.stack = append(t.stack, id)
	t.spans[id-1].Start = int64(time.Since(t.t0))
	return id
}

func (t *tracer) end(id int) {
	if t.off {
		return
	}
	t.spans[id-1].End = int64(time.Since(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
}

// count attaches a count to an open or closed span.
func (t *tracer) count(id int, key string, v int64) {
	if t.off {
		return
	}
	s := &t.spans[id-1]
	if s.N == nil {
		s.N = map[string]int64{}
	}
	s.N[key] += v
}

// aggregate records, under the innermost open span, one child span that
// stands for many short calls whose time was summed by the caller (the
// interner wrapper sees thousands of calls per request; a span each
// would cost more than the calls). It starts where its parent started.
func (t *tracer) aggregate(name string, total time.Duration, calls int64) {
	if t.off {
		return
	}
	id := t.begin(name)
	s := &t.spans[id-1]
	s.Start = t.spans[s.Parent-1].Start
	s.End = s.Start + int64(total)
	s.N = map[string]int64{"calls": calls}
	t.stack = t.stack[:len(t.stack)-1]
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTimes reduces the spans to per-request times in microseconds by
// span name: self is a span's duration minus what its children cover,
// total its whole duration. A request with several spans of one name
// contributes their sum; a request with none contributes nothing.
func (t *tracer) layerTimes() (self, total map[string][]float64) {
	childNs := make([]int64, len(t.spans)+1)
	for i := range t.spans {
		s := &t.spans[i]
		if s.Parent > 0 {
			childNs[s.Parent] += s.End - s.Start
		}
	}
	type key struct {
		name string
		req  int
	}
	selfBy, totalBy := map[key]float64{}, map[key]float64{}
	var order []key
	for i := range t.spans {
		s := &t.spans[i]
		k := key{s.Name, s.Req}
		if _, seen := totalBy[k]; !seen {
			order = append(order, k)
		}
		d := s.End - s.Start
		totalBy[k] += float64(d) / 1e3
		selfBy[k] += float64(d-childNs[s.ID]) / 1e3
	}
	self, total = map[string][]float64{}, map[string][]float64{}
	for _, k := range order {
		self[k.name] = append(self[k.name], selfBy[k])
		total[k.name] = append(total[k.name], totalBy[k])
	}
	return self, total
}

// counts sums every span count over the whole trace, keyed
// "<span name>.<count key>".
func (t *tracer) counts() map[string]int64 {
	out := map[string]int64{}
	for i := range t.spans {
		for k, v := range t.spans[i].N {
			out[t.spans[i].Name+"."+k] += v
		}
	}
	return out
}
