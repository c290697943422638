package telemetry

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestTraceIDRoundTrip(t *testing.T) {
	id := TraceID(0xdeadbeef)
	s := id.String()
	if s != "00000000deadbeef" {
		t.Fatalf("String() = %q", s)
	}
	back, ok := ParseTraceID(s)
	if !ok || back != id {
		t.Fatalf("ParseTraceID(%q) = %v, %v", s, back, ok)
	}
	for _, bad := range []string{"", "deadbeef", "00000000deadbee", "00000000deadbeef0", "zzzzzzzzzzzzzzzz", "0000000000000000"} {
		if _, ok := ParseTraceID(bad); ok {
			t.Errorf("ParseTraceID(%q) accepted", bad)
		}
	}
	if NewTraceID() == 0 {
		t.Error("NewTraceID returned 0")
	}
}

func TestTraceNilSafety(t *testing.T) {
	var tr *Trace
	sp := Root(nil, tr).Start("x")
	if sp.Traced() || sp != (Span{}) {
		t.Fatal("nil registry and trace produced a live span")
	}
	sp.SetAttr("k", 1)
	sp.SetAttrStr("k", "v")
	sp.End()
	if tr.ID() != 0 || tr.Finish() != 0 {
		t.Fatal("nil trace accessors not zero")
	}
	tr.Free()
	if snap := tr.Snapshot(); len(snap.Spans) != 0 {
		t.Fatal("nil trace snapshot has spans")
	}
}

func TestTraceSpanTree(t *testing.T) {
	tr := NewTrace(TraceID(7))
	root := Root(nil, tr).Start("request")
	child := root.Start("search")
	child.SetAttr("examined", 42)
	child.SetAttrStr("proc", "ftp_retrieve_glob")
	child.End()
	root.End()
	tr.Finish()
	snap := tr.Snapshot()
	if snap.TraceID != TraceID(7).String() {
		t.Fatalf("trace id %q", snap.TraceID)
	}
	if len(snap.Spans) != 2 {
		t.Fatalf("%d spans", len(snap.Spans))
	}
	if snap.Spans[0].Name != "request" || snap.Spans[0].Parent != 0 {
		t.Fatalf("root span %+v", snap.Spans[0])
	}
	if snap.Spans[1].Parent != snap.Spans[0].ID {
		t.Fatalf("child parent %d want %d", snap.Spans[1].Parent, snap.Spans[0].ID)
	}
	if snap.Spans[1].Attrs["examined"] != int64(42) || snap.Spans[1].Attrs["proc"] != "ftp_retrieve_glob" {
		t.Fatalf("attrs %+v", snap.Spans[1].Attrs)
	}
	if snap.Spans[1].DurUS < 0 || snap.Spans[1].StartUS < snap.Spans[0].StartUS {
		t.Fatalf("timing: %+v", snap.Spans)
	}
	// The snapshot must be JSON-encodable as-is.
	if _, err := json.Marshal(snap); err != nil {
		t.Fatal(err)
	}
	tr.Free()
}

func TestTraceSpanCap(t *testing.T) {
	tr := NewTrace(NewTraceID())
	for i := 0; i < MaxTraceSpans+10; i++ {
		Root(nil, tr).Start("s").End()
	}
	snap := tr.Snapshot()
	if len(snap.Spans) != MaxTraceSpans {
		t.Fatalf("%d spans, want cap %d", len(snap.Spans), MaxTraceSpans)
	}
	if snap.DroppedSpans != 10 {
		t.Fatalf("dropped %d, want 10", snap.DroppedSpans)
	}
	tr.Free()
}

func TestTracePoolReuseResets(t *testing.T) {
	tr := NewTrace(TraceID(1))
	sp := Root(nil, tr).Start("a")
	sp.SetAttr("k", 9)
	sp.End()
	tr.Finish()
	tr.Free()
	// The pool may hand the same trace back; either way a fresh trace
	// must start empty.
	tr2 := NewTrace(TraceID(2))
	snap := tr2.Snapshot()
	if len(snap.Spans) != 0 || snap.DroppedSpans != 0 {
		t.Fatalf("reused trace not reset: %+v", snap)
	}
	sp2 := Root(nil, tr2).Start("b")
	sp2.End()
	if got := tr2.Snapshot().Spans[0]; got.Name != "b" || len(got.Attrs) != 0 {
		t.Fatalf("reused span slot leaked state: %+v", got)
	}
	tr2.Free()
}

func TestTraceConcurrentSpans(t *testing.T) {
	tr := NewTrace(NewTraceID())
	root := Root(nil, tr).Start("root")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				sp := root.Start("shard")
				sp.SetAttr("shard", int64(i))
				sp.End()
			}
		}(i)
	}
	wg.Wait()
	root.End()
	snap := tr.Snapshot()
	if len(snap.Spans) != 1+8*50 {
		t.Fatalf("%d spans", len(snap.Spans))
	}
	tr.Free()
}

func TestTraceBufferRetainsSlowest(t *testing.T) {
	b := NewTraceBuffer(2, 0)
	durations := []time.Duration{5 * time.Millisecond, 50 * time.Millisecond, 1 * time.Millisecond, 20 * time.Millisecond}
	for i, d := range durations {
		tr := NewTrace(TraceID(uint64(i + 1)))
		Root(nil, tr).Start("request").End()
		b.Offer(tr, d)
	}
	snap := b.Snapshot()
	if snap.Offered != 4 {
		t.Fatalf("offered %d", snap.Offered)
	}
	if len(snap.Slowest) != 2 {
		t.Fatalf("%d slowest retained", len(snap.Slowest))
	}
	// Slowest first: 50ms (trace 2) then 20ms (trace 4).
	if snap.Slowest[0].TraceID != TraceID(2).String() || snap.Slowest[1].TraceID != TraceID(4).String() {
		t.Fatalf("slowest order: %s, %s", snap.Slowest[0].TraceID, snap.Slowest[1].TraceID)
	}
	if snap.Slowest[0].DurUS < snap.Slowest[1].DurUS {
		t.Fatal("slowest not sorted descending")
	}
}

func TestTraceBufferThresholdRing(t *testing.T) {
	b := NewTraceBuffer(1, 10*time.Millisecond)
	// Trace 1 (8ms) is under the threshold; traces 2 … recentCap+3 exceed
	// it, so the ring wraps and keeps the recentCap newest.
	last := recentCap + 3
	for i := 1; i <= last; i++ {
		tr := NewTrace(TraceID(uint64(i)))
		b.Offer(tr, time.Duration(i)*8*time.Millisecond)
	}
	snap := b.Snapshot()
	if snap.ThresholdUS != 10_000 {
		t.Fatalf("threshold %d", snap.ThresholdUS)
	}
	if len(snap.Recent) != recentCap {
		t.Fatalf("%d recent, want %d", len(snap.Recent), recentCap)
	}
	// Newest first: traces last, last-1, … down to the oldest kept.
	for k, tr := range snap.Recent {
		if want := TraceID(uint64(last - k)).String(); tr.TraceID != want {
			t.Fatalf("recent[%d] = %s, want %s", k, tr.TraceID, want)
		}
	}
}

func TestTraceBufferNil(t *testing.T) {
	var b *TraceBuffer
	if b.Offer(NewTrace(NewTraceID()), time.Second) {
		t.Fatal("nil buffer retained")
	}
	snap := b.Snapshot()
	if snap.Schema != SchemaVersion || len(snap.Slowest) != 0 {
		t.Fatalf("nil snapshot: %+v", snap)
	}
}
