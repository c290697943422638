package telemetry

// SchemaVersion identifies the snapshot/report JSON layout. It is
// bumped on any field rename or semantic change, so downstream
// consumers can reject snapshots they do not understand instead of
// misreading them.
const SchemaVersion = 2

// Snapshot is a point-in-time copy of a registry's metrics in a
// schema-stable, JSON-encodable form. Maps marshal with sorted keys,
// so two snapshots of identical state encode identically.
type Snapshot struct {
	Schema     int                          `json:"schema"`
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Stages     map[string]StageSnapshot     `json:"stages,omitempty"`
}

// StageSnapshot is one stage timer's accumulated state.
type StageSnapshot struct {
	Calls int64 `json:"calls"`
	Ns    int64 `json:"ns"`
}

// HistogramSnapshot is one histogram's state: exact count and sum, the
// estimated p50/p90/p99 quantiles (see Histogram.Quantile for the
// interpolation and its bucket-bounded error), plus the non-empty
// buckets with their inclusive value bounds. The quantile fields are a
// schema-compatible addition: consumers of earlier snapshots ignore
// them, and the bucket layout is unchanged.
type HistogramSnapshot struct {
	Count   int64            `json:"count"`
	Sum     int64            `json:"sum"`
	P50     int64            `json:"p50"`
	P90     int64            `json:"p90"`
	P99     int64            `json:"p99"`
	Buckets []BucketSnapshot `json:"buckets,omitempty"`
}

// BucketSnapshot is one non-empty histogram bucket.
type BucketSnapshot struct {
	// Lo and Hi are the bucket's inclusive value bounds.
	Lo    int64 `json:"lo"`
	Hi    int64 `json:"hi"`
	Count int64 `json:"count"`
}

// Snapshot captures the registry's current state. On a nil registry it
// returns an empty snapshot carrying only the schema version, so
// disabled sessions still produce decodable (if vacuous) reports.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{Schema: SchemaVersion}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counters) > 0 {
		snap.Counters = make(map[string]int64, len(r.counters))
		for _, name := range sortedKeys(r.counters) {
			snap.Counters[name] = r.counters[name].Value()
		}
	}
	if len(r.gauges)+len(r.funcs) > 0 {
		snap.Gauges = make(map[string]int64, len(r.gauges)+len(r.funcs))
		for _, name := range sortedKeys(r.gauges) {
			snap.Gauges[name] = r.gauges[name].Value()
		}
		for _, name := range sortedKeys(r.funcs) {
			snap.Gauges[name] = r.funcs[name]()
		}
	}
	if len(r.hists) > 0 {
		snap.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for _, name := range sortedKeys(r.hists) {
			snap.Histograms[name] = r.hists[name].snapshot()
		}
	}
	if len(r.stages) > 0 {
		snap.Stages = make(map[string]StageSnapshot, len(r.stages))
		for _, name := range sortedKeys(r.stages) {
			s := r.stages[name]
			snap.Stages[name] = StageSnapshot{Calls: s.Calls(), Ns: s.Ns()}
		}
	}
	return snap
}

func (h *Histogram) snapshot() HistogramSnapshot {
	hs := HistogramSnapshot{
		Count: h.Count(),
		Sum:   h.Sum(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
	}
	for i := 0; i < HistBuckets; i++ {
		if n := h.Bucket(i); n > 0 {
			lo, hi := BucketBounds(i)
			hs.Buckets = append(hs.Buckets, BucketSnapshot{Lo: lo, Hi: hi, Count: n})
		}
	}
	return hs
}
