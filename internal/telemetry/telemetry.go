// Package telemetry is the pipeline's dependency-free metrics core:
// atomic counters, gauges, bounded power-of-two histograms and stage
// timers, grouped under a Registry with a versioned JSON snapshot
// encoding, and one Span type (span.go) that times a piece of work into
// the stage of its name and into a request's trace alike.
//
// The package is built around two contracts the instrumented hot paths
// rely on:
//
//   - Nil safety. Every method on every type — including the Registry
//     itself — is a no-op (or returns the zero value) on a nil
//     receiver. Instrumented code therefore holds plain metric
//     pointers obtained once at session setup and calls them
//     unconditionally; a disabled session simply holds nils.
//   - No allocation when disabled. A nil Registry hands out nil
//     metrics, and operations on nil metrics neither allocate nor read
//     the clock, so disabled instrumentation costs one predictable
//     branch per call site.
//
// Metrics are identified by flat dotted names ("game.steps",
// "strand.strands"); the set of names a component records is its
// telemetry schema, snapshotted by Registry.Snapshot.
package telemetry

import (
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n. No-op on a nil counter.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on a nil counter.
func (c *Counter) Inc() { c.Add(1) }

// Value reports the current count; 0 on a nil counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores v. No-op on a nil gauge.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by delta. No-op on a nil gauge.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value reports the current value; 0 on a nil gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// HistBuckets is the fixed bucket count of every Histogram. Bucket 0
// holds non-positive observations; bucket b (1 ≤ b < HistBuckets-1)
// holds values in [2^(b-1), 2^b - 1]; the last bucket is the overflow
// bucket for everything at or above 2^(HistBuckets-2).
const HistBuckets = 32

// Histogram is a bounded power-of-two histogram: observations land in
// the bucket of their bit length, so the value range [1, 2^30) is
// covered by 30 buckets with relative resolution 2x, and anything
// larger overflows into the final bucket instead of growing the
// histogram. Count and sum are tracked exactly.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [HistBuckets]atomic.Int64
}

// BucketOf returns the bucket index an observation of v lands in.
func BucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v))
	if b > HistBuckets-1 {
		return HistBuckets - 1
	}
	return b
}

// BucketBounds returns the inclusive [lo, hi] value range of bucket i.
// The overflow bucket's hi is math.MaxInt64.
func BucketBounds(i int) (lo, hi int64) {
	switch {
	case i <= 0:
		return math.MinInt64, 0
	case i >= HistBuckets-1:
		return 1 << (HistBuckets - 2), math.MaxInt64
	default:
		return 1 << (i - 1), 1<<i - 1
	}
}

// Observe records one value. No-op on a nil histogram.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[BucketOf(v)].Add(1)
}

// Count reports the number of observations; 0 on a nil histogram.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reports the exact sum of all observations; 0 on a nil histogram.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Bucket reports the observation count of bucket i; 0 on a nil
// histogram or an out-of-range index.
func (h *Histogram) Bucket(i int) int64 {
	if h == nil || i < 0 || i >= HistBuckets {
		return 0
	}
	return h.buckets[i].Load()
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of the observed values
// from the bucket counts: the bucket holding the target rank is located
// and the value is linearly interpolated across the bucket's value
// range, so the estimate's error is bounded by the bucket's 2x
// resolution. Bucket 0 (non-positive observations) estimates 0 and the
// overflow bucket estimates its lower bound, since neither has a finite
// interior to interpolate over. Returns 0 on a nil or empty histogram.
//
// The count and bucket loads are not one atomic cut: under concurrent
// Observe traffic the estimate reflects some near-current state, which
// is the precision a bucketed quantile has anyway.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total <= 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i < HistBuckets; i++ {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		if cum+n >= rank {
			if i == 0 {
				return 0
			}
			lo, hi := BucketBounds(i)
			if i == HistBuckets-1 {
				return lo
			}
			frac := float64(rank-cum) / float64(n)
			return lo + int64(frac*float64(hi-lo))
		}
		cum += n
	}
	// Bucket sums can trail the count under concurrent observation; fall
	// back to the highest non-empty bucket's estimate.
	for i := HistBuckets - 1; i > 0; i-- {
		if h.buckets[i].Load() > 0 {
			lo, hi := BucketBounds(i)
			if i == HistBuckets-1 {
				return lo
			}
			return hi
		}
	}
	return 0
}

// Stage accumulates wall time and invocation count for one pipeline
// stage: the sum of every ended Span of its name under the registry.
type Stage struct {
	calls atomic.Int64
	ns    atomic.Int64
}

// Calls reports the number of completed spans; 0 on a nil stage.
func (s *Stage) Calls() int64 {
	if s == nil {
		return 0
	}
	return s.calls.Load()
}

// Ns reports the accumulated wall time in nanoseconds; 0 on a nil
// stage.
func (s *Stage) Ns() int64 {
	if s == nil {
		return 0
	}
	return s.ns.Load()
}

// Registry is a named collection of metrics: one per analysis session,
// typically. A nil Registry is the disabled state — every accessor
// returns nil, which the metric types accept — so "telemetry off" is
// expressed by never allocating a Registry at all. A Registry is safe
// for concurrent use.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	stages   map[string]*Stage
	funcs    map[string]func() int64
}

// New returns an empty enabled registry.
func New() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		stages:   map[string]*Stage{},
		funcs:    map[string]func() int64{},
	}
}

// Counter returns the named counter, creating it on first use. Returns
// nil (a valid disabled counter) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil
// on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
// Returns nil on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Stage returns the named stage timer, creating it on first use.
// Returns nil on a nil registry.
func (r *Registry) Stage(name string) *Stage {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.stages[name]
	if !ok {
		s = &Stage{}
		r.stages[name] = s
	}
	return s
}

// GaugeFunc registers a gauge whose value is computed at snapshot time
// (e.g. an interner's current size). Re-registering a name replaces the
// previous function. No-op on a nil registry.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[name] = fn
}

// names returns the sorted metric names of one kind, for deterministic
// iteration.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
