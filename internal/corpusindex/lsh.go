package corpusindex

import (
	"fmt"
	"slices"

	"firmup/internal/sim"
	"firmup/internal/strand"
)

// The MinHash/LSH candidate tier: per-procedure MinHash signatures
// (strand.SigWords words, see internal/strand/minhash.go) banded into
// lshBands buckets of lshRows words each. Two procedures land in the
// same bucket of band b exactly when their signatures agree on all
// lshRows words of that band, which for Jaccard similarity j happens
// with probability j^lshRows per band — the classic banding S-curve
// 1-(1-j^lshRows)^lshBands. The 32x2 split is tuned for the
// cross-toolchain setting, where a true match's strand sets overlap
// far less than a byte-identical clone's: a 0.3-similar pair still
// collides in ≥1 band with probability 1-(1-0.3²)³² ≈ 0.95, while an
// unrelated 0.05-similar pair stays below 0.08 (and pairs sharing no
// strand at all collide only by 64-bit hash accident).
//
// The tier serves approximate queries only. The buckets *gate* the
// exact candidate set: a candidate that passed the exact floors is
// examined only if it also shares at least one band with the query, so
// the expensive downstream work — game playing, and for store-backed
// corpora the executable materialization — runs on a strict subset of
// the exact candidates. Findings are therefore one-sided (always a
// subset of an exact search's), a bounded-recall trade measured by
// internal/eval. Gating, rather than replacing the exact set with the
// raw bucket contents, is what keeps the approximate candidate count
// *below* the exact one: on corpora where distinct procedures still
// share library/runtime strands, nearly every executable collides with
// the query in some band, so the ungated bucket set is far larger than
// the floor-gated one.
//
// Exact queries never come here: their candidate set is examined in
// full, so a band ranking could only reorder probes no consumer
// observes. Signatures and buckets are therefore derived or attached on
// the first approximate query, and a corpus that is only ever searched
// exactly pays nothing for the tier.
const (
	lshBands = 32
	lshRows  = strand.SigWords / lshBands
)

// lshIndex is the banded bucket structure over one index's procedures,
// immutable once built. Buckets store executable IDs (deduplicated per
// band), so a probe counts each executable at most once per band and
// collision counts are bounded by lshBands.
type lshIndex struct {
	buckets [lshBands]map[uint64][]int32
}

// buildLSH banding-hashes every procedure signature in the flat slab
// (stride strand.SigWords, dense slots procOff[e]..procOff[e+1] per
// executable e). Sentinel (empty-set) signatures are skipped so empty
// procedures never collide with each other.
func buildLSH(sigs []uint32, procOff []int32, nexes int) *lshIndex {
	l := &lshIndex{}
	for b := range l.buckets {
		l.buckets[b] = map[uint64][]int32{}
	}
	for ei := 0; ei < nexes; ei++ {
		for di := procOff[ei]; di < procOff[ei+1]; di++ {
			sig := sigs[int(di)*strand.SigWords : (int(di)+1)*strand.SigWords]
			if strand.SigEmpty(sig) {
				continue
			}
			for b := 0; b < lshBands; b++ {
				key := bandKey(sig, b)
				lst := l.buckets[b][key]
				// Procedures iterate grouped by executable, so per-bucket
				// dedup only needs to compare against the last entry.
				if n := len(lst); n > 0 && lst[n-1] == int32(ei) {
					continue
				}
				l.buckets[b][key] = append(lst, int32(ei))
			}
		}
	}
	return l
}

// bandKey hashes band b of a signature (FNV-1a over the band's rows,
// seeded with the band index so identical row values in different
// bands key different buckets).
func bandKey(sig []uint32, b int) uint64 {
	h := uint64(14695981039346656037) ^ (uint64(b) * 0x100000001b3)
	for _, w := range sig[b*lshRows : (b+1)*lshRows] {
		h ^= uint64(w)
		h *= 0x100000001b3
	}
	return h
}

// probe accumulates the query signature's band collisions into the
// scratch counters: bandCnt[e] is the number of bands executable e
// shares with the query, bandExes the executables with ≥1 collision.
func (l *lshIndex) probe(qsig []uint32, s *queryScratch) {
	if strand.SigEmpty(qsig) {
		return
	}
	for b := 0; b < lshBands; b++ {
		for _, ei := range l.buckets[b][bandKey(qsig, b)] {
			c := s.bandCnt[ei] + 1
			s.bandCnt[ei] = c
			if c == 1 {
				s.bandExes = append(s.bandExes, ei)
			}
		}
	}
}

// lshGate prunes the exact candidate ranking (already accumulated into
// s.cands, with the probe's collisions in s.bandCnt) down to the
// executables the buckets corroborate: a candidate survives only if it
// collided with the query in at least one band, or the index holds no
// signature for it (an extra — un-interned, so the buckets cannot rule
// it out). Survivors keep the exact ranking's order.
func lshGate(s *queryScratch, extra []int) {
	kept := s.cands[:0]
	for _, c := range s.cands {
		if s.bandCnt[c.Exe] > 0 || slices.Contains(extra, c.Exe) {
			kept = append(kept, c)
		}
	}
	s.cands = kept
}

// deriveSigs concatenates the executables' own signature slabs in
// dense-slot order, with sentinel blocks for the executables listed in
// extra: their foreign IDs would hash into meaningless buckets, and they
// are always candidates anyway.
func deriveSigs(exes []*sim.Exe, extra []int, procs int) []uint32 {
	sigs := make([]uint32, 0, procs*strand.SigWords)
	for i, e := range exes {
		if slices.Contains(extra, i) {
			sigs = appendEmptySigs(sigs, len(e.Procs))
		} else {
			sigs = append(sigs, e.Signatures()...)
		}
	}
	return sigs
}

// appendEmptySigs appends n sentinel (empty-set) signatures.
func appendEmptySigs(sigs []uint32, n int) []uint32 {
	for i := 0; i < n*strand.SigWords; i++ {
		sigs = append(sigs, strand.SigEmptyWord)
	}
	return sigs
}

// --- live Index integration -------------------------------------------------

// ensureLSH returns the bucket structure over the current executables,
// rebuilding it when executables were added since the last build. The
// signature slab is only an input to the build, so it is not kept.
// Callers hold at least a read lock on the index; lshMu serializes the
// build itself.
func (x *Index) ensureLSH() *lshIndex {
	x.lshMu.Lock()
	defer x.lshMu.Unlock()
	if x.lsh == nil || x.lshExes != len(x.exes) {
		n := len(x.exes)
		x.lsh = buildLSH(deriveSigs(x.exes, x.liveExtra(), int(x.procOff[n])), x.procOff, n)
		x.lshExes = n
	}
	return x.lsh
}

// CandidateIndicesLSH is CandidateIndices gated by the MinHash/LSH
// signature tier: only the exact candidates sharing at least one
// signature band with the query (plus un-interned executables, which the
// index cannot rule out) are returned — a subset of the exact
// candidates, in the exact ranking's order. qsig is the query
// procedure's MinHash signature over q.IDs, which the query executable
// already caches (sim.Exe.Signatures). The second return is false when
// the query set was not interned under this session (caller falls back
// to exhaustive examination, as with CandidateIndices).
func (x *Index) CandidateIndicesLSH(q strand.Set, qsig []uint32, minScore int, ratioFloor float64, buf []int) ([]int, bool) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	s, ok := x.accumulate(q, minScore, ratioFloor)
	if !ok {
		x.telFallbacks.Inc()
		return nil, false
	}
	x.ensureLSH().probe(qsig, s)
	x.telLSHProbes.Inc()
	lshGate(s, x.liveExtra())
	x.telLSHCandidates.Observe(int64(len(s.cands)))
	return x.finish(s, buf), true
}

// liveExtra lists the executables registered without postings (not
// interned under this session) — always candidates, exactly as in
// accumulate.
func (x *Index) liveExtra() []int {
	var extra []int
	for ei, e := range x.exes {
		if !interned(x.it, e) {
			extra = append(extra, ei)
		}
	}
	return extra
}

// --- FrozenIndex integration ------------------------------------------------

// SetSignatures attaches a persisted per-procedure MinHash signature
// slab — a mapped corpus-sigs shard section — to a sealed index:
// strand.SigWords words per procedure in dense-slot order. The slice is
// aliased, not copied, and must stay valid for the index's lifetime.
// Call it before the index's first CandidateIndicesLSH call, from one
// goroutine; exact queries never read the slab, so they may already be
// in flight. Without a slab (and without in-RAM executables to derive
// one from) the LSH tier is unavailable and approximate queries fall
// back to the exact prefilter.
func (x *FrozenIndex) SetSignatures(sigs []uint32) error {
	if want := int(x.procOff[x.nexes]) * strand.SigWords; len(sigs) != want {
		return fmt.Errorf("corpusindex: signature slab holds %d words for %d procedures, want %d", len(sigs), x.procOff[x.nexes], want)
	}
	x.sigs = sigs
	return nil
}

// ensureLSH builds the bucket structure on the first approximate query.
// A dense index without an attached slab derives signatures from its
// in-RAM executables (pure function of their interned IDs, so the
// result is identical to the persisted slab); a foreign index without a
// slab — a pre-signature v2 shard — has no tier and returns nil.
func (x *FrozenIndex) ensureLSH() *lshIndex {
	x.lshOnce.Do(func() {
		sigs := x.sigs
		if sigs == nil {
			if x.exes == nil {
				return
			}
			sigs = deriveSigs(x.exes, x.extra, int(x.procOff[x.nexes]))
		}
		x.lsh = buildLSH(sigs, x.procOff, x.nexes)
	})
	return x.lsh
}

// CandidateIndicesLSH is Index.CandidateIndicesLSH over the sealed
// postings: identical semantics, no locks. An index without signature
// data serves the plain exact ranking and counts an lsh fallback.
func (x *FrozenIndex) CandidateIndicesLSH(q strand.Set, qsig []uint32, minScore int, ratioFloor float64, buf []int) ([]int, bool) {
	s, ok := x.accumulate(q, minScore, ratioFloor)
	if !ok {
		x.telFallbacks.Inc()
		return nil, false
	}
	if l := x.ensureLSH(); l == nil {
		x.telLSHFallbacks.Inc()
	} else {
		l.probe(qsig, s)
		x.telLSHProbes.Inc()
		lshGate(s, x.extra)
		x.telLSHCandidates.Observe(int64(len(s.cands)))
	}
	return x.finish(s, buf), true
}
