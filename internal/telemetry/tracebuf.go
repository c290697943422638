package telemetry

// Tail-based trace retention. Uniform head sampling keeps a
// representative slice of traffic but almost never the request you are
// debugging: the slow ones live in the tail. A TraceBuffer therefore
// looks at every completed trace after the fact and retains two
// overlapping views:
//
//   - the slowest-N requests seen since startup (replacement by
//     duration, so a new tail entrant evicts the fastest retained one),
//   - a ring of the most recent requests that exceeded a fixed latency
//     threshold, so a burst of slowness is visible even after faster
//     but still-tail requests have rotated the slowest-N view.
//
// Retention deep-copies the trace into its JSON snapshot form and the
// trace itself always goes back to the pool, so the buffer never pins
// pooled memory and the copy cost is paid only for retained (tail)
// traces.

import (
	"sync"
	"time"
)

// recentCap is the threshold ring's capacity.
const recentCap = 32

// TraceBuffer retains the tail of completed request traces. All methods
// are safe for concurrent use and no-ops on a nil receiver.
type TraceBuffer struct {
	mu        sync.Mutex
	keep      int
	threshold time.Duration
	slowest   []TraceSnapshot // sorted by DurUS descending, len <= keep
	recent    []TraceSnapshot // ring of threshold exceeders
	recentPos int             // next ring write slot once full
	offered   int64
	retained  int64
}

// NewTraceBuffer sizes a buffer: keep slowest-N (<=0 selects 16) and
// the threshold for the recent ring of 32 (<=0 disables threshold
// capture).
func NewTraceBuffer(keep int, threshold time.Duration) *TraceBuffer {
	if keep <= 0 {
		keep = 16
	}
	return &TraceBuffer{keep: keep, threshold: threshold}
}

// Offer consumes one completed trace: its total duration is stamped to
// dur, it is retained (as a deep copy) if it lands in either tail view,
// and the trace itself is returned to the pool either way — the caller
// must not use t afterwards. Reports whether the trace was retained.
// On a nil buffer the trace is still freed.
func (b *TraceBuffer) Offer(t *Trace, dur time.Duration) bool {
	if t == nil {
		return false
	}
	if b == nil {
		t.Free()
		return false
	}
	t.finish(dur)
	durUS := float64(dur) / 1e3
	b.mu.Lock()
	b.offered++
	keepSlow := len(b.slowest) < b.keep ||
		durUS > b.slowest[len(b.slowest)-1].DurUS
	keepRecent := b.threshold > 0 && dur >= b.threshold
	kept := false
	if keepSlow || keepRecent {
		snap := t.Snapshot()
		if keepSlow {
			b.insertSlowest(snap)
		}
		if keepRecent {
			b.pushRecent(snap)
		}
		b.retained++
		kept = true
	}
	b.mu.Unlock()
	t.Free()
	return kept
}

// insertSlowest places snap into the duration-sorted slowest view,
// evicting the fastest entry when full. Called with mu held.
func (b *TraceBuffer) insertSlowest(snap TraceSnapshot) {
	i := len(b.slowest)
	for i > 0 && b.slowest[i-1].DurUS < snap.DurUS {
		i--
	}
	if len(b.slowest) < b.keep {
		b.slowest = append(b.slowest, TraceSnapshot{})
	} else if i == len(b.slowest) {
		return // raced below the floor; nothing to evict for it
	}
	copy(b.slowest[i+1:], b.slowest[i:])
	b.slowest[i] = snap
}

// pushRecent appends snap to the threshold ring, overwriting the oldest
// entry once the ring is full. Called with mu held.
func (b *TraceBuffer) pushRecent(snap TraceSnapshot) {
	if len(b.recent) < recentCap {
		b.recent = append(b.recent, snap)
		return
	}
	b.recent[b.recentPos] = snap
	b.recentPos = (b.recentPos + 1) % recentCap
}

// RequestsSnapshot is the GET /debug/requests response schema: the
// retained tail traces plus the buffer's accounting.
type RequestsSnapshot struct {
	Schema   int   `json:"schema"`
	Offered  int64 `json:"offered"`
	Retained int64 `json:"retained"`
	// ThresholdUS is the recent-ring capture threshold; 0 when disabled.
	ThresholdUS int64 `json:"threshold_us"`
	// Slowest holds the slowest-N retained traces, slowest first.
	Slowest []TraceSnapshot `json:"slowest"`
	// Recent holds the most recent threshold-exceeding traces, newest
	// first.
	Recent []TraceSnapshot `json:"recent_over_threshold"`
}

// Snapshot copies the buffer's current state. On a nil buffer it
// returns an empty snapshot carrying only the schema version.
func (b *TraceBuffer) Snapshot() RequestsSnapshot {
	snap := RequestsSnapshot{
		Schema:  SchemaVersion,
		Slowest: []TraceSnapshot{},
		Recent:  []TraceSnapshot{},
	}
	if b == nil {
		return snap
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	snap.Offered = b.offered
	snap.Retained = b.retained
	snap.ThresholdUS = b.threshold.Microseconds()
	snap.Slowest = append(snap.Slowest, b.slowest...)
	// Unroll the ring newest-first: entries before recentPos are newer
	// than the ones at and after it.
	for i := len(b.recent) - 1; i >= 0; i-- {
		pos := i
		if len(b.recent) == recentCap {
			pos = (b.recentPos + i) % recentCap
		}
		snap.Recent = append(snap.Recent, b.recent[pos])
	}
	return snap
}
