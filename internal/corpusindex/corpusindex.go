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

	"firmup/internal/sim"
	"firmup/internal/strand"
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

// Hashes returns the interned vocabulary ordered by dense ID:
// Hashes()[id] is the 64-bit strand hash id stands for. It is the
// serialized form of the interner a snapshot persists.
func (it *Interner) Hashes() []uint64 {
	it.mu.RLock()
	defer it.mu.RUnlock()
	out := make([]uint64, len(it.ids))
	for h, id := range it.ids {
		out[id] = h
	}
	return out
}

// Posting locates one procedure that contains a strand: Exe is the
// executable's insertion-order ID in its index, Proc the procedure's
// position within the executable.
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

// Index is the corpus-level inverted index: dense strand ID →
// (executable, procedure) postings over every executable added to it.
// Executables are identified by their insertion order.
type Index struct {
	mu   sync.RWMutex
	it   *Interner
	exes []*sim.Exe
	post [][]Posting // indexed by dense strand ID
	// procOff are prefix sums of per-executable procedure counts:
	// procedure p of executable e occupies dense slot procOff[e]+p in a
	// query scratch. procOff[len(exes)] is the corpus procedure total.
	procOff []int32
	// extra lists the executables that never interned under the session
	// (no postings): the index has no information about them, so they are
	// always candidates.
	extra []int
	// scratch pools query accumulators (see queryScratch): Candidates is
	// on the search hot path and must not allocate per query.
	scratch sync.Pool

	// telemetry handles; the struct fields are individually nil-safe, so
	// recording is unconditional once copied here.
	telQueries   *telemetry.Counter
	telFallbacks *telemetry.Counter
	telFanout    *telemetry.Histogram
}

// SetTelemetry attaches metric handles to the index. Call it before
// issuing queries; it is not synchronized against concurrent Candidates
// calls.
func (x *Index) SetTelemetry(tel *Telemetry) {
	if tel == nil {
		x.telQueries, x.telFallbacks, x.telFanout = nil, nil, nil
		return
	}
	x.telQueries = tel.Queries
	x.telFallbacks = tel.Fallbacks
	x.telFanout = tel.Fanout
}

// NewIndex returns an empty index over the session's interner.
func NewIndex(it *Interner) *Index {
	return &Index{it: it, procOff: []int32{0}}
}

// Interner returns the session interner the index is keyed by.
func (x *Index) Interner() *Interner { return x.it }

// Add indexes every procedure of e and returns e's executable ID (its
// position in insertion order). The executable must have been built
// under the index's session so its sets carry comparable dense IDs;
// un-interned executables are registered but contribute no postings
// (searches fall back to exhaustive examination for them).
func (x *Index) Add(e *sim.Exe) int {
	x.mu.Lock()
	defer x.mu.Unlock()
	ei := len(x.exes)
	x.exes = append(x.exes, e)
	x.procOff = append(x.procOff, x.procOff[ei]+int32(len(e.Procs)))
	if !interned(x.it, e) {
		x.extra = append(x.extra, ei)
	}
	for pi, p := range e.Procs {
		if p.Set.It != strand.Interner(x.it) {
			continue
		}
		for _, id := range p.Set.IDs {
			if int(id) >= len(x.post) {
				// Grow through append so capacity doubles amortizedly;
				// growing to exactly id+1 each time is quadratic over a
				// session's vocabulary.
				x.post = append(x.post, make([][]Posting, int(id)+1-len(x.post))...)
			}
			x.post[id] = append(x.post[id], Posting{Exe: int32(ei), Proc: int32(pi)})
		}
	}
	return ei
}

// Len reports the number of indexed executables.
func (x *Index) Len() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return len(x.exes)
}

// Postings reports the total number of (strand, executable, procedure)
// postings held — the index's size measure.
func (x *Index) Postings() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	n := 0
	for _, ps := range x.post {
		n += len(ps)
	}
	return n
}

// Candidate is one executable that could contain the query procedure.
type Candidate struct {
	// Exe is the executable's insertion-order ID.
	Exe int
	// MaxSim is the maximum Sim(q, p) over the executable's procedures —
	// an exact upper bound on the score of any finding the game can
	// produce in this executable.
	MaxSim int
}

// Candidates ranks the indexed executables by MaxSim against the query
// set and drops those provably unable to clear the acceptance floors:
// a finding's score is Sim(q, matched procedure) ≤ MaxSim, so an
// executable with MaxSim < minScore — or, when ratioFloor > 0, with
// MaxSim/|q| < ratioFloor — cannot yield an accepted finding. Pass
// ratioFloor 0 when the acceptance ratio is not plain Score/|q| (e.g.
// under a strand weigher). The ranking is deterministic: MaxSim
// descending, executable ID ascending.
//
// The second return is false when the query set was not interned under
// this index's session, in which case the caller must fall back to
// exhaustive examination.
func (x *Index) Candidates(q strand.Set, minScore int, ratioFloor float64) ([]Candidate, bool) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	s, ok := x.accumulate(q, minScore, ratioFloor)
	if !ok {
		x.telFallbacks.Inc()
		return nil, false
	}
	x.telQueries.Inc()
	x.telFanout.Observe(int64(len(s.cands)))
	out := append([]Candidate(nil), s.cands...)
	putScratch(&x.scratch, s)
	return out, true
}

// CandidateIndices is Candidates reduced to the executable IDs, appended
// to buf (which may be nil) — the allocation-free form the search
// prefilter consumes. The order is Candidates' ranking.
func (x *Index) CandidateIndices(q strand.Set, minScore int, ratioFloor float64, buf []int) ([]int, bool) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	s, ok := x.accumulate(q, minScore, ratioFloor)
	if !ok {
		x.telFallbacks.Inc()
		return nil, false
	}
	return x.finish(s, buf), true
}

// finish records an answered query, appends its ranked executable IDs to
// buf and recycles the scratch. Callers hold at least a read lock.
func (x *Index) finish(s *queryScratch, buf []int) []int {
	x.telQueries.Inc()
	x.telFanout.Observe(int64(len(s.cands)))
	for _, c := range s.cands {
		buf = append(buf, c.Exe)
	}
	putScratch(&x.scratch, s)
	return buf
}

// queryScratch is one query's pooled accumulator state, shared by Index
// and FrozenIndex. The dense counts slab replaces the (exe,proc)-keyed
// hash map the prefilter used to rebuild per query; only the entries a
// query actually touched are zeroed on release, so reuse is O(postings
// touched), not O(corpus).
type queryScratch struct {
	counts  []int32     // per (exe, proc) dense slot, all-zero between queries
	maxSim  []int32     // per exe, all-zero between queries
	touched []int32     // dense slots bumped by this query
	exes    []int32     // exe IDs with maxSim > 0 this query
	cands   []Candidate // the ranked result, reused across queries
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
// with the survivors plus extra — the executables the index has no
// information about, which must still be examined — ordered MaxSim
// descending, executable ID ascending.
func (s *queryScratch) rank(qsize, minScore int, ratioFloor float64, extra []int) {
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
		s.cands = append(s.cands, Candidate{Exe: int(ei), MaxSim: c})
	}
	for _, ei := range extra {
		s.cands = append(s.cands, Candidate{Exe: ei, MaxSim: 0})
	}
	slices.SortFunc(s.cands, func(a, b Candidate) int {
		if a.MaxSim != b.MaxSim {
			return b.MaxSim - a.MaxSim
		}
		return a.Exe - b.Exe
	})
}

// accumulate runs one ranking query into pooled scratch; the caller owns
// the returned scratch until putScratch. Callers hold at least a read
// lock.
func (x *Index) accumulate(q strand.Set, minScore int, ratioFloor float64) (*queryScratch, bool) {
	if !strand.Compatible(q.It, x.it) {
		return nil, false
	}
	s := getScratch(&x.scratch, int(x.procOff[len(x.exes)]), len(x.exes))
	for _, id := range q.IDs {
		if int(id) < len(x.post) {
			s.bump(x.procOff, x.post[id])
		}
	}
	s.rank(len(q.IDs), minScore, ratioFloor, x.extra)
	return s, true
}

// Rows returns the index's non-empty posting rows ordered by strictly
// increasing dense strand ID — the serialized form a snapshot persists.
// The posting slices are shared with the index, not copied.
func (x *Index) Rows() []Row {
	x.mu.RLock()
	defer x.mu.RUnlock()
	out := make([]Row, 0, len(x.post))
	for id, ps := range x.post {
		if len(ps) > 0 {
			out = append(out, Row{ID: uint32(id), Posts: ps})
		}
	}
	return out
}

// RestoreIndex reconstructs an index from rows previously produced by
// Rows, over exes in their original insertion order. The caller
// guarantees the rows' dense-ID space is it's ID space (a snapshot
// loader uses this only when the saved vocabulary re-interned to
// identical IDs; otherwise it rebuilds with Add).
func RestoreIndex(it *Interner, exes []*sim.Exe, rows []Row) *Index {
	x := &Index{it: it, exes: append([]*sim.Exe(nil), exes...)}
	x.procOff = make([]int32, len(x.exes)+1)
	for i, e := range x.exes {
		x.procOff[i+1] = x.procOff[i] + int32(len(e.Procs))
		if !interned(it, e) {
			x.extra = append(x.extra, i)
		}
	}
	if n := len(rows); n > 0 {
		x.post = make([][]Posting, rows[n-1].ID+1)
	}
	for _, r := range rows {
		x.post[r.ID] = r.Posts
	}
	return x
}

// interned reports whether e carries dense IDs from it (checked on the
// first procedure: Build interns all sets or none).
func interned(it *Interner, e *sim.Exe) bool {
	if len(e.Procs) == 0 {
		return true // nothing to examine either way
	}
	return e.Procs[0].Set.It == strand.Interner(it)
}
