// Package corpusindex implements the shared signature store an analyzer
// session is built around: a strand-hash interner that deduplicates the
// 64-bit canonical strand hashes of every executable analyzed under one
// session into dense IDs, and a corpus-level inverted index mapping each
// dense strand ID to the distinct procedure strand sets containing it.
//
// The interner is what lets sim.Exe keep sorted dense-ID sets and
// slice-backed posting lists instead of per-executable hash maps; the
// index is what lets a whole-image (or whole-corpus) search rank
// candidate executables by shared-strand count and skip targets that
// provably cannot clear the acceptance threshold, instead of playing
// the back-and-forth game against every executable.
package corpusindex

import (
	"slices"
	"sync"
)

// Interner assigns dense uint32 IDs to 64-bit strand hashes, first come
// first served. It is safe for concurrent use: parallel analysis of the
// executables of an image interns through one shared instance.
type Interner struct {
	mu     sync.RWMutex
	ids    map[uint64]uint32
	hashes []uint64 // by dense ID
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{ids: map[uint64]uint32{}}
}

// Intern returns the dense ID for hash, assigning the next free ID on
// first sight.
func (it *Interner) Intern(h uint64) uint32 {
	it.mu.RLock()
	id, ok := it.ids[h]
	it.mu.RUnlock()
	if ok {
		return id
	}
	it.mu.Lock()
	defer it.mu.Unlock()
	if id, ok := it.ids[h]; ok {
		return id
	}
	return it.assign(h)
}

// assign gives h the next free ID; the caller holds the write lock.
func (it *Interner) assign(h uint64) uint32 {
	id := uint32(len(it.hashes))
	it.ids[h] = id
	it.hashes = append(it.hashes, h)
	return id
}

// InternAll appends the dense IDs of hashes to out in input order and
// returns it, taking the lock once per batch instead of once per hash.
// It implements strand.BulkInterner, the fast path Set.Interned and the
// extractor use: a whole procedure's strand hashes intern under one
// read-lock round (plus one write round when the procedure introduces
// new vocabulary).
func (it *Interner) InternAll(hashes []uint64, out []uint32) []uint32 {
	base := len(out)
	missed := false
	it.mu.RLock()
	for _, h := range hashes {
		id, ok := it.ids[h]
		if !ok {
			missed = true
			break
		}
		out = append(out, id)
	}
	it.mu.RUnlock()
	if !missed {
		return out
	}
	out = out[:base]
	it.mu.Lock()
	defer it.mu.Unlock()
	for _, h := range hashes {
		id, ok := it.ids[h]
		if !ok {
			id = it.assign(h)
		}
		out = append(out, id)
	}
	return out
}

// AppendHashes appends the hash of each of ids, all assigned by it, to
// dst in ids order. It implements strand.Vocabulary.
func (it *Interner) AppendHashes(dst []uint64, ids []uint32) []uint64 {
	it.mu.RLock()
	defer it.mu.RUnlock()
	for _, id := range ids {
		dst = append(dst, it.hashes[id])
	}
	return dst
}

// Size reports the number of distinct strand hashes interned so far —
// the session's strand vocabulary.
func (it *Interner) Size() int {
	it.mu.RLock()
	defer it.mu.RUnlock()
	return len(it.hashes)
}

// candidate is one executable that could contain the query procedure.
type candidate struct {
	// Exe is the executable's position in its index.
	Exe int
	// MaxSim is the maximum Sim(q, p) over the executable's procedures —
	// an exact upper bound on the score of any finding the game can
	// produce in this executable.
	MaxSim int
}

// queryScratch is one query's pooled accumulator state: a count per
// distinct strand set, which a scan only increments, and the ranked
// result.
type queryScratch struct {
	counts []int32     // per set number, all-zero between queries
	cands  []candidate // the ranked result, reused across queries
}

// getScratch draws a scratch from pool — one index's, so every scratch
// in it has the same nsets counts.
func getScratch(pool *sync.Pool, nsets int) *queryScratch {
	s, _ := pool.Get().(*queryScratch)
	if s == nil {
		s = &queryScratch{counts: make([]int32, nsets)}
	}
	return s
}

// putScratch clears every count (a fresh scratch is zeroed by the
// runtime, so each query starts from zero) and returns s to pool.
func putScratch(pool *sync.Pool, s *queryScratch) {
	clear(s.counts)
	s.cands = s.cands[:0]
	pool.Put(s)
}

// bump accumulates one posting row: one more shared strand for each
// set in it.
func (s *queryScratch) bump(posts []uint32) {
	counts := s.counts
	for _, p := range posts {
		counts[p]++
	}
}

// rank takes the MaxSim of each executable inScope admits (nil admits
// all) — the largest count over the sets of its slots,
// setOf[procOff[e]:procOff[e+1]], in one sequential pass — applies the
// floors to it and fills s.cands with the survivors, ordered MaxSim
// descending, executable ID ascending.
func (s *queryScratch) rank(procOff []int32, setOf []uint32, inScope []bool, qsize, minScore int, ratioFloor float64) {
	if minScore < 1 {
		minScore = 1
	}
	for e := range len(procOff) - 1 {
		if inScope != nil && !inScope[e] {
			continue
		}
		best := int32(0)
		for _, set := range setOf[procOff[e]:procOff[e+1]] {
			best = max(best, s.counts[set])
		}
		c := int(best)
		if c < minScore {
			continue
		}
		if ratioFloor > 0 && qsize > 0 && float64(c)/float64(qsize) < ratioFloor {
			continue
		}
		s.cands = append(s.cands, candidate{Exe: e, MaxSim: c})
	}
	slices.SortFunc(s.cands, func(a, b candidate) int {
		if a.MaxSim != b.MaxSim {
			return b.MaxSim - a.MaxSim
		}
		return a.Exe - b.Exe
	})
}
