package telemetry

import (
	"testing"
	"time"
)

// One span, one clock: a span under a registry and a trace adds to the
// stage of its name and closes its tree record with the same duration,
// and children opened from it hang under it in the tree.
func TestSpanFeedsStageAndTree(t *testing.T) {
	r := New()
	tr := NewTrace(TraceID(9))
	defer tr.Free()
	root := Root(r, tr).Start("serve.request")
	child := root.Start("cfg.recover")
	time.Sleep(time.Millisecond)
	child.End()
	root.End()
	Root(r, tr).End() // the handle itself times nothing

	snap := tr.Snapshot()
	if len(snap.Spans) != 2 || snap.Spans[1].Parent != snap.Spans[0].ID {
		t.Fatalf("tree: %+v", snap.Spans)
	}
	for _, sp := range snap.Spans {
		st := r.Stage(sp.Name)
		if st.Calls() != 1 {
			t.Errorf("%s: stage calls = %d, want 1", sp.Name, st.Calls())
		}
		if got := float64(st.Ns()) / 1e3; got != sp.DurUS {
			t.Errorf("%s: stage %.3fus, tree %.3fus: not one measurement", sp.Name, got, sp.DurUS)
		}
	}
	if len(r.Snapshot().Stages) != 2 {
		t.Errorf("stages: %+v", r.Snapshot().Stages)
	}

	// Either half alone: registry without trace, trace without registry.
	Root(r, nil).Start("cfg.recover").End()
	if r.Stage("cfg.recover").Calls() != 2 {
		t.Error("untraced span did not feed its stage")
	}
	Root(nil, tr).Start("sim.build").End()
	if n := len(tr.Snapshot().Spans); n != 3 {
		t.Errorf("registry-less span not in the tree: %d spans", n)
	}
	if (Span{}).Or(root) != root || root.Or(child) != root {
		t.Error("Or: want the receiver unless it is the zero Span")
	}
}

// A span's counters and histograms are its registry's, whichever span
// of the registry they are looked up through; a span without a registry
// (the zero Span, a trace-only span) hands out nil handles, which record
// nothing.
func TestSpanMetricHandles(t *testing.T) {
	r := New()
	root := Root(r, nil)
	sp := root.Start("cfg.recover")
	sp.Counter("cfg.insts").Add(3)
	root.Counter("cfg.insts").Add(4)
	sp.Histogram("game.steps").Observe(2)
	sp.End()
	if got := r.Counter("cfg.insts").Value(); got != 7 {
		t.Errorf("cfg.insts = %d, want 7", got)
	}
	if got := r.Histogram("game.steps").Count(); got != 1 {
		t.Errorf("game.steps count = %d, want 1", got)
	}
	tr := NewTrace(NewTraceID())
	defer tr.Free()
	for _, s := range []Span{{}, Root(nil, tr).Start("sim.build")} {
		if s.Counter("x") != nil || s.Histogram("x") != nil {
			t.Error("a span without a registry handed out a live handle")
		}
		s.Counter("x").Inc()
		s.Histogram("x").Observe(1)
	}
}

// Past MaxTraceSpans a span is dropped from the tree but still timed
// into its stage.
func TestSpanDroppedFromTreeStillTimed(t *testing.T) {
	r := New()
	tr := NewTrace(NewTraceID())
	defer tr.Free()
	root := Root(r, tr)
	for i := 0; i < MaxTraceSpans+5; i++ {
		root.Start("s").End()
	}
	if got := r.Stage("s").Calls(); got != MaxTraceSpans+5 {
		t.Errorf("stage calls = %d, want %d", got, MaxTraceSpans+5)
	}
	if snap := tr.Snapshot(); len(snap.Spans) != MaxTraceSpans || snap.DroppedSpans != 5 {
		t.Errorf("%d spans, %d dropped", len(snap.Spans), snap.DroppedSpans)
	}
}

// Timing is free of allocations in both states the hot paths see: the
// inert zero Span, and a span under a registry plus a warmed pooled
// trace (what every game of a traced search runs under).
func TestSpanAllocations(t *testing.T) {
	cycle := func(parent Span) {
		sp := parent.Start("core.search")
		sp.SetAttr("examined", 7)
		sp.SetAttrStr("cache", "miss")
		child := sp.Start("store.materialize")
		child.End()
		sp.End()
	}
	if n := testing.AllocsPerRun(100, func() { cycle(Span{}) }); n != 0 {
		t.Errorf("inert span: %v allocations per Start/SetAttr/End, want 0", n)
	}
	r := New()
	tr := NewTrace(NewTraceID())
	defer tr.Free()
	live := func() {
		// Rewind the trace the way a pool round-trip does, so every run
		// reuses the span and attribute storage the first one grew.
		tr.spans = tr.spans[:0]
		cycle(Root(r, tr))
	}
	live()
	if n := testing.AllocsPerRun(100, live); n != 0 {
		t.Errorf("registry + warmed trace: %v allocations per Start/SetAttr/End, want 0", n)
	}
}
