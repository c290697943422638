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

// Extractor is a per-worker front end to strand extraction: it binds a
// pooled analysis scratch (node arena, substitution tables, renderer and
// merge buffers) to one executable's options. An Extractor is NOT safe
// for concurrent use — create one per worker goroutine.
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

// Proc extracts every block of one procedure in a single pass,
// returning the merged canonical strand set, hashes and dense IDs, and
// the procedure's marker constants. The three result slices are all it
// allocates.
func (ex *Extractor) Proc(blocks []*uir.Block) (Set, []uint32) {
	sc := ex.sc
	sc.accH, sc.accI, sc.accM = sc.accH[:0], sc.accI[:0], sc.accM[:0]
	for _, b := range blocks {
		hashes, ids, markers := ex.compute(b)
		sc.accH, sc.tmpH = mergeSorted(sc.tmpH[:0], sc.accH, hashes), sc.accH
		sc.accM, sc.tmpM = mergeSorted(sc.tmpM[:0], sc.accM, markers), sc.accM
		sc.accI, sc.tmpI = mergeSorted(sc.tmpI[:0], sc.accI, ids), sc.accI
	}
	set := Set{
		Hashes: append(make([]uint64, 0, len(sc.accH)), sc.accH...),
		IDs:    append(make([]uint32, 0, len(sc.accI)), sc.accI...),
		It:     ex.it,
	}
	return set, owned(sc.accM)
}

// owned copies a scratch-backed slice into its own allocation; an empty
// one becomes nil, so nothing long-lived points into a scratch.
func owned[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return append(make([]T, 0, len(s)), s...)
}

// compute runs extraction for one block: its sorted unique strand
// hashes, dense IDs and markers, all views of the scratch valid until the
// next block.
func (ex *Extractor) compute(b *uir.Block) (hashes []uint64, ids, markers []uint32) {
	sc := ex.sc
	sc.analyze(b)
	sc.render(nil)
	ex.telBlocks.Inc()
	ex.telStrands.Add(int64(len(sc.hashes)))
	// Strands are unique by hash already (render dedups); sort for merge.
	slices.Sort(sc.hashes)
	slices.Sort(sc.markers)
	sc.ids = internAll(ex.it, sc.hashes, sc.ids[:0])
	slices.Sort(sc.ids)
	return sc.hashes, sc.ids, slices.Compact(sc.markers)
}

// mergeSorted appends the sorted-unique union of a and b (each sorted
// unique) to dst and returns it.
func mergeSorted[T cmp.Ordered](dst, a, b []T) []T {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			dst = append(dst, a[i])
			i++
			j++
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		default:
			dst = append(dst, b[j])
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}
