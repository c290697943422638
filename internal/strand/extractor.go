package strand

import (
	"cmp"
	"slices"

	"firmup/internal/telemetry"
	"firmup/internal/uir"
)

// Telemetry is the optional handle set extraction records against; a
// nil pointer (and any nil field) disables the corresponding metric.
// Extraction output is identical with and without it.
type Telemetry struct {
	// Blocks counts blocks canonicalized.
	Blocks *telemetry.Counter
	// Strands counts canonical strands produced.
	Strands *telemetry.Counter
}

// TelemetryUnder returns the handles extraction records into under sp's
// registry — strand.blocks and strand.strands — or nil when sp has none.
func TelemetryUnder(sp telemetry.Span) *Telemetry {
	blocks := sp.Counter("strand.blocks")
	if blocks == nil {
		return nil
	}
	return &Telemetry{Blocks: blocks, Strands: sp.Counter("strand.strands")}
}

// Extractor is a per-worker front end to strand extraction: it binds a
// pooled analysis scratch (node arena, substitution tables, renderer and
// the procedure's hash, ID and marker buffers) to one executable's
// options. An Extractor is NOT safe for concurrent use — create one per
// worker goroutine.
type Extractor struct {
	it Interner
	sc *extractScratch

	// telemetry handles, copied out of the Telemetry struct so recording
	// is an unconditional nil-safe call.
	telBlocks  *telemetry.Counter
	telStrands *telemetry.Counter
}

// NewExtractor creates an extractor for one executable's extraction
// options under an analyzer session, which interns every strand it
// extracts, recording extraction metrics into tel when it is non-nil.
func NewExtractor(opt *Options, it Interner, tel *Telemetry) *Extractor {
	ex := &Extractor{it: it, sc: getScratch(opt)}
	if tel != nil {
		ex.telBlocks = tel.Blocks
		ex.telStrands = tel.Strands
	}
	return ex
}

// Release returns the extractor's scratch to the pool; the extractor
// must not be used afterwards. Optional — an unreleased scratch is
// simply collected — but it is what lets the next executable start warm.
func (ex *Extractor) Release() {
	putScratch(ex.sc)
	ex.sc = nil
}

// IDs extracts every block of one procedure in a single pass, returning
// the procedure's strand set as sorted unique dense IDs — the set carries
// no hashes; AppendHashes derives them through the session — and its
// sorted unique marker constants. The two result slices are all it
// allocates. This is the pipeline's form (sim.BuildWith).
func (ex *Extractor) IDs(blocks []*uir.Block) (Set, []uint32) {
	ex.extract(blocks)
	sc := ex.sc
	return Set{IDs: owned(sortedUnique(sc.ids)), It: ex.it}, owned(sortedUnique(sc.markers))
}

// Proc is the inspection form of IDs: the same pass, whose set also
// carries the procedure's sorted unique strand hashes.
func (ex *Extractor) Proc(blocks []*uir.Block) (Set, []uint32) {
	set, markers := ex.IDs(blocks)
	set.Hashes = owned(sortedUnique(ex.sc.hashes))
	return set, markers
}

// extract renders every block of a procedure into the scratch: each
// block appends its sorted unique strand hashes to sc.hashes and its
// markers to sc.markers, and one InternAll over the concatenation fills
// sc.ids. The first-seen order of the concatenation is the order in
// which block-by-block interning would meet the hashes, so a growing
// interner assigns the same IDs.
func (ex *Extractor) extract(blocks []*uir.Block) {
	sc := ex.sc
	sc.hashes, sc.markers = sc.hashes[:0], sc.markers[:0]
	for _, b := range blocks {
		sc.analyze(b)
		lo := len(sc.hashes)
		sc.render(nil)
		slices.Sort(sc.hashes[lo:])
	}
	ex.telBlocks.Add(int64(len(blocks)))
	ex.telStrands.Add(int64(len(sc.hashes)))
	sc.ids = internAll(ex.it, sc.hashes, sc.ids[:0])
}

// sortedUnique sorts s in place and returns its unique prefix.
func sortedUnique[T cmp.Ordered](s []T) []T {
	slices.Sort(s)
	return slices.Compact(s)
}

// owned copies a scratch-backed slice into its own allocation; an empty
// one becomes nil, so nothing long-lived points into a scratch.
func owned[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return append(make([]T, 0, len(s)), s...)
}
