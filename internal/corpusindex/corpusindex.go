// Package corpusindex implements the shared signature store an analyzer
// session is built around: a strand-hash interner that deduplicates the
// 64-bit canonical strand hashes of every executable analyzed under one
// session into dense IDs, and a corpus-level inverted index mapping each
// dense strand ID to its (executable, procedure) postings.
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

	"firmup/internal/telemetry"
)

// Telemetry is the optional handle set candidate queries record
// against; a nil pointer (and any nil field) disables the
// corresponding metric. Rankings are identical with and without it.
type Telemetry struct {
	// Queries counts candidate-ranking queries answered from postings.
	Queries *telemetry.Counter
	// Fallbacks counts queries whose set was not interned under this
	// session, forcing the caller into exhaustive examination.
	Fallbacks *telemetry.Counter
	// Fanout observes the number of candidate executables each answered
	// query kept after the score floors.
	Fanout *telemetry.Histogram
}

// Interner assigns dense uint32 IDs to 64-bit strand hashes, first come
// first served. It is safe for concurrent use: parallel analysis of the
// executables of an image interns through one shared instance.
type Interner struct {
	mu  sync.RWMutex
	ids map[uint64]uint32
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
	id = uint32(len(it.ids))
	it.ids[h] = id
	return id
}

// InternAll appends the dense IDs of hashes to out in input order and
// returns it, taking the lock once per batch instead of once per hash.
// It implements strand.BulkInterner, the fast path Set.Interned and the
// block-cache extractor use: on a cache miss a whole block's strand
// hashes intern under one read-lock round (plus one write round when
// the block introduces new vocabulary).
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
			id = uint32(len(it.ids))
			it.ids[h] = id
		}
		out = append(out, id)
	}
	return out
}

// Size reports the number of distinct strand hashes interned so far —
// the session's strand vocabulary.
func (it *Interner) Size() int {
	it.mu.RLock()
	defer it.mu.RUnlock()
	return len(it.ids)
}

// Posting locates one procedure that contains a strand: Exe is the
// executable's position in its index, Proc the procedure's position
// within the executable.
type Posting struct {
	Exe  int32
	Proc int32
}

// Row is one inverted-index row: a dense strand ID and the postings of
// every procedure containing that strand.
type Row struct {
	ID    uint32
	Posts []Posting
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

// queryScratch is one query's pooled accumulator state. Only the
// entries of the dense counts slab a query actually touched are zeroed on
// release, so reuse is O(postings touched), not O(corpus).
type queryScratch struct {
	counts  []int32     // per (exe, proc) dense slot, all-zero between queries
	maxSim  []int32     // per exe, all-zero between queries
	touched []int32     // dense slots bumped by this query
	exes    []int32     // exe IDs with maxSim > 0 this query
	cands   []candidate // the ranked result, reused across queries
}

// getScratch draws a scratch from pool sized for a corpus of nProcs
// procedures in nExes executables.
func getScratch(pool *sync.Pool, nProcs, nExes int) *queryScratch {
	s, _ := pool.Get().(*queryScratch)
	if s == nil {
		s = &queryScratch{}
	}
	s.size(nProcs, nExes)
	return s
}

func putScratch(pool *sync.Pool, s *queryScratch) {
	s.reset()
	pool.Put(s)
}

// size grows the dense slabs to the corpus layout. The
// zero-between-queries invariant holds because reset clears every
// touched entry and fresh allocations are zeroed by the runtime.
func (s *queryScratch) size(nProcs, nExes int) {
	if len(s.counts) < nProcs {
		s.counts = make([]int32, nProcs)
	}
	if len(s.maxSim) < nExes {
		s.maxSim = make([]int32, nExes)
	}
}

func (s *queryScratch) reset() {
	for _, di := range s.touched {
		s.counts[di] = 0
	}
	for _, ei := range s.exes {
		s.maxSim[ei] = 0
	}
	s.touched = s.touched[:0]
	s.exes = s.exes[:0]
	s.cands = s.cands[:0]
}

// bump accumulates one posting row: it counts shared strands per
// (exe, proc) dense slot and tracks the per-exe maximum over procedures,
// the bound the floors apply to.
func (s *queryScratch) bump(procOff []int32, posts []Posting) {
	for _, p := range posts {
		di := procOff[p.Exe] + p.Proc
		c := s.counts[di] + 1
		s.counts[di] = c
		if c == 1 {
			s.touched = append(s.touched, di)
		}
		if c > s.maxSim[p.Exe] {
			if s.maxSim[p.Exe] == 0 {
				s.exes = append(s.exes, p.Exe)
			}
			s.maxSim[p.Exe] = c
		}
	}
}

// rank applies the floors to the accumulated maxima and fills s.cands
// with the survivors, ordered MaxSim descending, executable ID ascending.
func (s *queryScratch) rank(qsize, minScore int, ratioFloor float64) {
	if minScore < 1 {
		minScore = 1
	}
	for _, ei := range s.exes {
		c := int(s.maxSim[ei])
		if c < minScore {
			continue
		}
		if ratioFloor > 0 && qsize > 0 && float64(c)/float64(qsize) < ratioFloor {
			continue
		}
		s.cands = append(s.cands, candidate{Exe: int(ei), MaxSim: c})
	}
	slices.SortFunc(s.cands, func(a, b candidate) int {
		if a.MaxSim != b.MaxSim {
			return b.MaxSim - a.MaxSim
		}
		return a.Exe - b.Exe
	})
}
