package strand

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"

	"firmup/internal/telemetry"
	"firmup/internal/uir"
)

// Telemetry is the optional handle set extraction records against; a
// nil pointer (and any nil field) disables the corresponding metric.
// It deliberately lives outside Options: Options is hashed into the
// block-cache context seed (contextSeed), and telemetry must never
// influence cache keys.
type Telemetry struct {
	// Blocks counts blocks canonicalized (cache hits included).
	Blocks *telemetry.Counter
	// Computed counts blocks that ran full extraction (cache misses
	// plus uncached extractors).
	Computed *telemetry.Counter
	// Strands counts canonical strands produced by full extraction.
	Strands *telemetry.Counter
}

// blockEntry is one cached canonicalization result: everything the
// analysis pipeline derives from a single lifted block, ready to merge
// into a procedure without re-running extraction.
type blockEntry struct {
	// hashes are the block's canonical strand hashes, sorted unique.
	hashes []uint64
	// ids are the dense interned equivalents of hashes, sorted unique;
	// nil when the cache's session has no interner.
	ids []uint32
	// markers are the block's identity-bearing constants (see isMarker),
	// sorted unique.
	markers []uint32
}

// BlockCache is a session-scoped block canonicalization cache: it maps
// the pre-canonical fingerprint of a lifted basic block to the block's
// already-computed canonical strand hashes, dense strand IDs and marker
// constants. Firmware corpora are massively self-similar — the same
// statically-linked library code repeats across executables and images
// — so a session analyzing many executables sees the same block over
// and over; a hit skips strand extraction, compiler-style
// re-optimization, hashing and interning for that block.
//
// Soundness: an entry is keyed by a 128-bit fingerprint of the block's
// statement stream seeded with a hash of the full extraction context
// (ABI, options, absolute section map) — exactly the inputs extraction
// is a pure function of — so fingerprint equality implies identical
// canonical strands up to hash collision (see uir.BlockFingerprint).
//
// A BlockCache is safe for concurrent use; entries are immutable once
// published. Dense IDs are only meaningful under the session interner
// the cache was created for: extractors attached to a different
// interner bypass the cache entirely.
type BlockCache struct {
	it   Interner
	mu   sync.RWMutex
	m    map[uir.Fingerprint]*blockEntry
	seen atomic.Int64
	hits atomic.Int64
}

// NewBlockCache creates an empty cache bound to a session interner
// (which may be nil for session-less use; entries then carry no dense
// IDs).
func NewBlockCache(it Interner) *BlockCache {
	return &BlockCache{it: it, m: map[uir.Fingerprint]*blockEntry{}}
}

// CacheStats summarizes a BlockCache's traffic.
type CacheStats struct {
	// Blocks is the number of blocks looked up.
	Blocks int64
	// Hits is the number of lookups answered from the cache.
	Hits int64
	// Unique is the number of distinct canonicalized blocks stored.
	Unique int
}

// HitRate returns Hits/Blocks, or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	if s.Blocks == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Blocks)
}

// Stats reports the cache's lookup and occupancy counters.
func (c *BlockCache) Stats() CacheStats {
	c.mu.RLock()
	unique := len(c.m)
	c.mu.RUnlock()
	return CacheStats{Blocks: c.seen.Load(), Hits: c.hits.Load(), Unique: unique}
}

func (c *BlockCache) lookup(k uir.Fingerprint) *blockEntry {
	c.mu.RLock()
	e := c.m[k]
	c.mu.RUnlock()
	c.seen.Add(1)
	if e != nil {
		c.hits.Add(1)
	}
	return e
}

// store publishes an entry, first-writer-wins: by the soundness
// contract concurrent writers computed identical entries, so keeping
// either is correct and the returned entry is the canonical one.
func (c *BlockCache) store(k uir.Fingerprint, e *blockEntry) *blockEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.m[k]; ok {
		return prev
	}
	c.m[k] = e
	return e
}

// Extractor is a per-worker front end to strand extraction: it binds a
// pooled analysis scratch (node arena, substitution tables, renderer and
// merge buffers) to one executable's options and consults the session's
// BlockCache. An Extractor is NOT safe for concurrent use — create one
// per worker goroutine; the cache behind them is shared.
type Extractor struct {
	it     Interner
	cache  *BlockCache
	seed   uint64
	ranges uir.SectionRanges

	sc *extractScratch

	// telemetry handles, copied out of the Telemetry struct so recording
	// is an unconditional nil-safe call.
	telBlocks   *telemetry.Counter
	telComputed *telemetry.Counter
	telStrands  *telemetry.Counter
}

// NewExtractor creates an extractor for one executable's extraction
// options under an analyzer session. A nil cache — or a cache bound to
// a different interner than it — disables caching; extraction then
// still runs single-pass with reused scratch.
func NewExtractor(opt *Options, it Interner, cache *BlockCache) *Extractor {
	return NewExtractorWith(opt, it, cache, nil)
}

// NewExtractorWith is NewExtractor recording extraction metrics into
// tel. Extraction output (and cache keys) are identical.
func NewExtractorWith(opt *Options, it Interner, cache *BlockCache, tel *Telemetry) *Extractor {
	ex := &Extractor{it: it, sc: getScratch(opt)}
	if cache != nil && cache.it == it {
		ex.cache = cache
		ex.seed = contextSeed(opt)
		ex.ranges = uir.SectionRanges{
			TextLo: opt.Sections.TextLo, TextHi: opt.Sections.TextHi,
			DataLo: opt.Sections.DataLo, DataHi: opt.Sections.DataHi,
		}
	}
	if tel != nil {
		ex.telBlocks = tel.Blocks
		ex.telComputed = tel.Computed
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

// contextSeed hashes every extraction input that is not part of the
// block itself: the options and the absolute section map. Folding it
// into the fingerprint seed keys the cache per extraction context, which
// is what makes a fingerprint hit imply identical canonical strands.
func contextSeed(opt *Options) uint64 {
	h := uint64(fnvOffset64)
	word := func(w uint64) { h = (h ^ w) * fnvPrime64 }
	if opt.KeepTrivial {
		word(1)
	}
	m := opt.Sections
	word(uint64(m.TextLo))
	word(uint64(m.TextHi))
	word(uint64(m.DataLo))
	word(uint64(m.DataHi))
	if abi := opt.ABI; abi != nil {
		word(2)
		word(uint64(abi.Arch))
		word(uint64(abi.RetReg))
		word(uint64(abi.SP))
		word(uint64(abi.LinkReg))
		for _, r := range abi.ArgRegs {
			word(3<<32 | uint64(r))
		}
		for _, r := range abi.Scratch {
			word(4<<32 | uint64(r))
		}
		for _, r := range abi.StatusRegs {
			word(5<<32 | uint64(r))
		}
	}
	return h
}

// Proc extracts every block of one procedure in a single pass,
// returning the merged canonical strand set (with dense IDs when under
// a session) and the procedure's marker constants. The three result
// slices are all it allocates when every block is computed or cached.
func (ex *Extractor) Proc(blocks []*uir.Block) (Set, []uint32) {
	sc := ex.sc
	sc.accH, sc.accI, sc.accM = sc.accH[:0], sc.accI[:0], sc.accM[:0]
	for _, b := range blocks {
		e := ex.block(b)
		sc.accH, sc.tmpH = mergeSorted(sc.tmpH[:0], sc.accH, e.hashes), sc.accH
		sc.accM, sc.tmpM = mergeSorted(sc.tmpM[:0], sc.accM, e.markers), sc.accM
		sc.accI, sc.tmpI = mergeSorted(sc.tmpI[:0], sc.accI, e.ids), sc.accI
	}
	set := Set{Hashes: append(make([]uint64, 0, len(sc.accH)), sc.accH...)}
	if ex.it != nil {
		set.IDs = append(make([]uint32, 0, len(sc.accI)), sc.accI...)
		set.It = ex.it
	}
	return set, owned(sc.accM)
}

// block returns the canonicalization of one block, from the cache when
// possible. Without a cache the entry's slices alias the scratch and are
// valid until the next block.
func (ex *Extractor) block(b *uir.Block) blockEntry {
	ex.telBlocks.Inc()
	if ex.cache == nil {
		return ex.compute(b)
	}
	k := uir.BlockFingerprint(b, ex.ranges, ex.seed)
	if e := ex.cache.lookup(k); e != nil {
		return *e
	}
	e := ex.compute(b)
	return *ex.cache.store(k, &blockEntry{
		hashes:  owned(e.hashes),
		ids:     owned(e.ids),
		markers: owned(e.markers),
	})
}

// owned copies a scratch-backed slice into its own allocation; an empty
// one becomes nil, so nothing long-lived points into a scratch.
func owned[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return append(make([]T, 0, len(s)), s...)
}

// compute runs extraction for one block. The returned entry is a view
// of the scratch: sorted unique hashes, IDs and markers.
func (ex *Extractor) compute(b *uir.Block) blockEntry {
	sc := ex.sc
	sc.analyze(b)
	sc.render(nil)
	ex.telComputed.Inc()
	ex.telStrands.Add(int64(len(sc.hashes)))
	// Strands are unique by hash already (render dedups); sort for merge.
	slices.Sort(sc.hashes)
	slices.Sort(sc.markers)
	e := blockEntry{hashes: sc.hashes, markers: slices.Compact(sc.markers)}
	if ex.it != nil {
		sc.ids = internAll(ex.it, sc.hashes, sc.ids[:0])
		slices.Sort(sc.ids)
		e.ids = sc.ids
	}
	return e
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
