package telemetry

import "time"

// Span is the one way to time anything: a single in-flight measurement
// whose End adds to the stage of its name in the registry it runs under
// and, when the request is sampled, closes its record in the request's
// trace tree — the same two clock reads for both, so a stage on
// /metrics and a span in /debug/requests are one number.
//
// A span carries its registry and trace, so a child is opened from its
// parent and one value is all a layer threads down:
//
//	sp := parent.Start("cfg.recover")
//	defer sp.End()
//	sweep := sp.Start("cfg.sweep")
//
// Either half may be absent: without a registry only the tree is
// recorded, without a trace only the stage. The zero Span has neither
// and is inert — Start on it returns another zero Span without reading
// the clock, and every other method is a no-op — so instrumented code
// holds and uses spans unconditionally. Spans are named layer.verb; the
// name is both the tree label and the Prometheus stage name.
type Span struct {
	reg   *Registry
	tr    *Trace
	stage *Stage // reg's stage of this span's name; nil on a Root handle
	id    int32  // this span's record in tr; 0 when there is none
	t0    time.Time
}

// Root returns the handle top-level spans are started from: spans opened
// on it record into reg and as root spans of tr, either of which may be
// nil. The handle itself times nothing (End on it is a no-op).
func Root(reg *Registry, tr *Trace) Span { return Span{reg: reg, tr: tr} }

// Or returns s, or d when s is the zero Span: how a component that owns
// a registry times work its caller passed no span for.
func (s Span) Or(d Span) Span {
	if s.reg == nil && s.tr == nil {
		return d
	}
	return s
}

// Start opens a child span. Past the trace's MaxTraceSpans the child is
// left out of the tree (and counted as dropped) but still feeds its
// stage.
func (s Span) Start(name string) Span {
	if s.reg == nil && s.tr == nil {
		return Span{}
	}
	c := Span{reg: s.reg, tr: s.tr, stage: s.reg.Stage(name), t0: time.Now()}
	c.id = s.tr.open(name, s.id, c.t0)
	return c
}

// End closes the span: its wall time is added to its stage and stamped
// on its trace record. A span is ended once; use defer so that every
// return path does.
func (s Span) End() {
	if s.stage == nil && s.id == 0 {
		return
	}
	d := time.Since(s.t0)
	if s.stage != nil {
		s.stage.calls.Add(1)
		s.stage.ns.Add(int64(d))
	}
	s.tr.close(s.id, d)
}

// Counter returns the named counter of the registry the span records
// into, nil (a valid disabled counter) without one. A layer counts
// through the span it is handed: it looks its handles up once per call
// or pass, never once per event.
func (s Span) Counter(name string) *Counter { return s.reg.Counter(name) }

// Histogram returns the named histogram of the span's registry, nil
// without one.
func (s Span) Histogram(name string) *Histogram { return s.reg.Histogram(name) }

// Traced reports whether the span has a record in a trace, so callers
// can skip computing attributes nobody will read.
func (s Span) Traced() bool { return s.id != 0 }

// TraceID reports the ID of the trace the span runs under; 0 without one.
func (s Span) TraceID() TraceID { return s.tr.ID() }

// SetAttr attaches an integer attribute (shard index, batch size,
// candidates examined, game steps...) to the span's trace record.
func (s Span) SetAttr(key string, v int64) {
	s.tr.setAttr(s.id, spanAttr{key: key, num: v})
}

// SetAttrStr attaches a string attribute to the span's trace record.
func (s Span) SetAttrStr(key, v string) {
	s.tr.setAttr(s.id, spanAttr{key: key, str: v, isStr: true})
}
