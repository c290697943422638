package telemetry

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// Histogram buckets are powers of two by bit length: bucket 0 holds
// non-positive values, bucket b holds [2^(b-1), 2^b - 1], and the last
// bucket absorbs everything else.
func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{math.MinInt64, 0}, {-1, 0}, {0, 0},
		{1, 1},
		{2, 2}, {3, 2},
		{4, 3}, {7, 3},
		{8, 4}, {15, 4},
		{1 << 29, 30}, {1<<30 - 1, 30},
		{1 << 30, HistBuckets - 1}, // first overflow value
		{1 << 40, HistBuckets - 1},
		{math.MaxInt64, HistBuckets - 1},
	}
	for _, c := range cases {
		if got := BucketOf(c.v); got != c.want {
			t.Errorf("BucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	// Every in-range value must fall inside its own bucket's bounds.
	for _, c := range cases {
		lo, hi := BucketBounds(BucketOf(c.v))
		if c.v < lo || c.v > hi {
			t.Errorf("value %d outside its bucket bounds [%d, %d]", c.v, lo, hi)
		}
	}
	// Buckets tile the positive range with no gaps or overlaps.
	for i := 1; i < HistBuckets-1; i++ {
		_, hi := BucketBounds(i)
		lo, _ := BucketBounds(i + 1)
		if lo != hi+1 {
			t.Errorf("gap between bucket %d (hi=%d) and %d (lo=%d)", i, hi, i+1, lo)
		}
	}
}

func TestHistogramObserveAndOverflow(t *testing.T) {
	var h Histogram
	vals := []int64{0, 1, 1, 3, 8, 1 << 35, math.MaxInt64}
	var sum int64
	for _, v := range vals {
		h.Observe(v)
		sum += v
	}
	if h.Count() != int64(len(vals)) {
		t.Errorf("Count = %d, want %d", h.Count(), len(vals))
	}
	if h.Sum() != sum {
		t.Errorf("Sum = %d, want %d", h.Sum(), sum)
	}
	if got := h.Bucket(0); got != 1 {
		t.Errorf("bucket 0 = %d, want 1 (the zero observation)", got)
	}
	if got := h.Bucket(1); got != 2 {
		t.Errorf("bucket 1 = %d, want 2 (the ones)", got)
	}
	if got := h.Bucket(HistBuckets - 1); got != 2 {
		t.Errorf("overflow bucket = %d, want 2", got)
	}
	var total int64
	for i := 0; i < HistBuckets; i++ {
		total += h.Bucket(i)
	}
	if total != h.Count() {
		t.Errorf("bucket totals %d != count %d", total, h.Count())
	}
	if h.Bucket(-1) != 0 || h.Bucket(HistBuckets) != 0 {
		t.Error("out-of-range Bucket index must report 0")
	}
}

// Counters, gauges and histograms must be safe for concurrent use;
// run under -race in CI.
func TestConcurrentIncrements(t *testing.T) {
	r := New()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	st := r.Stage("s")
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(int64(i % 100))
				sp := Root(r, nil).Start("s")
				sp.End()
				// Same-name accessors from many goroutines must agree.
				if r.Counter("c") != c {
					t.Error("Counter(name) not stable across goroutines")
					return
				}
			}
		}()
	}
	wg.Wait()
	want := int64(workers * perWorker)
	if c.Value() != want {
		t.Errorf("counter = %d, want %d", c.Value(), want)
	}
	if g.Value() != want {
		t.Errorf("gauge = %d, want %d", g.Value(), want)
	}
	if h.Count() != want {
		t.Errorf("histogram count = %d, want %d", h.Count(), want)
	}
	if st.Calls() != want {
		t.Errorf("stage calls = %d, want %d", st.Calls(), want)
	}
}

// The disabled state is a nil registry handing out nil metrics; every
// operation must be a silent no-op.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Histogram("x")
	s := r.Stage("x")
	if c != nil || g != nil || h != nil || s != nil {
		t.Fatal("nil registry must hand out nil metrics")
	}
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(1)
	h.Observe(42)
	sp := Root(r, nil).Start("x")
	sp.End()
	r.GaugeFunc("x", func() int64 { return 1 })
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || s.Calls() != 0 {
		t.Error("nil metrics must read as zero")
	}
	snap := r.Snapshot()
	if snap.Schema != SchemaVersion || snap.Counters != nil || snap.Stages != nil {
		t.Errorf("nil registry snapshot = %+v, want empty with schema", snap)
	}
}

func TestStageAccumulates(t *testing.T) {
	r := New()
	sp := Root(r, nil).Start("s")
	time.Sleep(time.Millisecond)
	sp.End()
	s := r.Stage("s")
	if s.Calls() != 1 {
		t.Errorf("calls = %d, want 1", s.Calls())
	}
	if s.Ns() < int64(time.Millisecond/2) {
		t.Errorf("ns = %d, implausibly small for a 1ms span", s.Ns())
	}
}

// Snapshots must survive a JSON round trip intact, with schema-stable
// field names.
func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := New()
	r.Counter("obj.parse").Add(7)
	r.Gauge("corpus.unique_strands").Set(123)
	r.GaugeFunc("index.postings", func() int64 { return 456 })
	for _, v := range []int64{1, 1, 2, 5, 1 << 40} {
		r.Histogram("game.steps").Observe(v)
	}
	sp := Root(r, nil).Start("cfg.recover")
	sp.End()

	snap := r.Snapshot()
	blob, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	// The wire names are the schema; renaming any of them is a
	// breaking change that must bump SchemaVersion.
	for _, field := range []string{
		`"schema"`, `"counters"`, `"gauges"`, `"histograms"`, `"stages"`,
		`"count"`, `"sum"`, `"buckets"`, `"lo"`, `"hi"`, `"calls"`, `"ns"`,
	} {
		if !strings.Contains(string(blob), field) {
			t.Errorf("snapshot JSON lacks schema field %s: %s", field, blob)
		}
	}
	var back Snapshot
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, back) {
		t.Errorf("round trip diverged:\nbefore: %+v\nafter:  %+v", snap, back)
	}
	if back.Gauges["index.postings"] != 456 {
		t.Errorf("gauge func not evaluated into snapshot: %+v", back.Gauges)
	}
	gs := back.Histograms["game.steps"]
	if gs.Count != 5 || len(gs.Buckets) != 4 {
		t.Errorf("histogram snapshot = %+v, want 5 observations in 4 buckets", gs)
	}
	// Identical state must encode identically (map keys sort).
	blob2, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != string(blob2) {
		t.Errorf("snapshot encoding unstable:\n%s\n%s", blob, blob2)
	}
}
