package corpusindex

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"firmup/internal/setdedup"
	"firmup/internal/sim"
	"firmup/internal/strand"
	"firmup/internal/telemetry"
)

// Frozen is the sealed, immutable form of an analyzer session's
// interner: a closed strand vocabulary with lock-free lookups. Nothing
// mutates a Frozen after construction, so any number of concurrent
// readers share one instance without synchronization.
//
// A Frozen still implements strand.Interner so sealed executables can
// carry it as their session binding, but its vocabulary is closed:
// Intern of a hash outside the vocabulary panics, because assigning a
// fresh ID would require mutation. Query analysis against a sealed
// corpus must therefore run under a per-request QueryInterner overlay,
// never under the Frozen itself.
//
// A strand's dense ID in a Frozen is its hash's rank, not the ID the
// session's interner gave it, so a sealed corpus's numbering does not
// depend on the order analysis met its strands: the vocabulary is one
// slice of hashes ascending — shard 0's corpus-vocab section — and a
// radix directory over the top bits of the hash narrows a lookup to one
// bucket of one or two entries on average.
type Frozen struct {
	hashes []uint64 // dense ID -> hash, ascending
	// dir[k]:dir[k+1] is the span of hashes whose top bits, the hash
	// shifted right by shift, are k: 2^b+1 offsets with 2^b below the
	// vocabulary size, so at most one per entry once it holds two.
	dir   []uint32
	shift uint
}

// Sorted returns the interner's current vocabulary in ascending hash
// order, which numbers a sealed corpus's strands, and each dense ID's rank
// in it. The live interner keeps working afterwards.
func (it *Interner) Sorted() (sorted []uint64, rank []uint32) {
	it.mu.RLock()
	byID := it.hashes // assign only appends: these entries never change
	it.mu.RUnlock()
	sorted = slices.Clone(byID)
	slices.Sort(sorted)
	rank = make([]uint32, len(byID))
	for id, h := range byID {
		r, _ := slices.BinarySearch(sorted, h)
		rank[id] = uint32(r)
	}
	return sorted, rank
}

// NewFrozen constructs a Frozen directly over foreign memory: hashes,
// strictly increasing, as a shard persists them. Nothing is cloned and no
// map is built: the one pass that checks the order also builds the
// directory, so opening a paper-scale vocabulary costs that pass only.
// The slice must stay valid and unmodified for the Frozen's lifetime.
func NewFrozen(hashes []uint64) (*Frozen, error) {
	b := 0
	if len(hashes) > 1 {
		b = bits.Len(uint(len(hashes)-1)) - 1
	}
	f := &Frozen{hashes: hashes, dir: make([]uint32, 1<<b+1), shift: uint(64 - b)}
	k := 0 // the next directory offset to fill
	for i, h := range hashes {
		if i > 0 && h <= hashes[i-1] {
			return nil, fmt.Errorf("corpusindex: vocabulary not strictly increasing at entry %d", i)
		}
		for ; k <= int(h>>f.shift); k++ {
			f.dir[k] = uint32(i)
		}
	}
	for ; k < len(f.dir); k++ {
		f.dir[k] = uint32(len(hashes))
	}
	return f, nil
}

// FrozenFromSlabs is NewFrozen over a vocabulary given with a sorted copy
// and its IDs, which must be the vocabulary itself and the identity. It is
// kept for bench/'s replay, which builds its frozen vocabulary this way.
func FrozenFromSlabs(vocab []uint64, sortedHashes []uint64, sortedIDs []uint32) (*Frozen, error) {
	if len(sortedHashes) != len(vocab) || len(sortedIDs) != len(vocab) {
		return nil, fmt.Errorf("corpusindex: sorted vocabulary slabs hold %d+%d entries, vocabulary holds %d", len(sortedHashes), len(sortedIDs), len(vocab))
	}
	for i, id := range sortedIDs {
		if int(id) != i || sortedHashes[i] != vocab[i] {
			return nil, fmt.Errorf("corpusindex: sorted vocabulary entry %d (hash %#x, id %d) disagrees with the vocabulary", i, sortedHashes[i], id)
		}
	}
	return NewFrozen(vocab)
}

// Size reports the vocabulary size.
func (f *Frozen) Size() int { return len(f.hashes) }

// Vocab returns the vocabulary, ascending, ordered by dense ID. The slice
// is the Frozen's own storage: callers must treat it as read-only.
func (f *Frozen) Vocab() []uint64 { return f.hashes }

// AppendHashes appends the hash of each of ids, all in the vocabulary,
// to dst in ids order. It implements strand.Vocabulary.
func (f *Frozen) AppendHashes(dst []uint64, ids []uint32) []uint64 {
	for _, id := range ids {
		dst = append(dst, f.hashes[id])
	}
	return dst
}

// Lookup returns the dense ID of h — its position in the vocabulary — and
// whether h is in it: a scan of h's directory bucket. It performs no
// locking and no allocation.
func (f *Frozen) Lookup(h uint64) (uint32, bool) {
	k := h >> f.shift
	lo := f.dir[k]
	for i, g := range f.hashes[lo:f.dir[k+1]] {
		if g >= h {
			if g == h {
				return lo + uint32(i), true
			}
			break
		}
	}
	return 0, false
}

// Intern returns the dense ID of a vocabulary hash. It panics on a hash
// outside the closed vocabulary — a sealed corpus cannot grow; route
// query analysis through NewQueryInterner instead.
func (f *Frozen) Intern(h uint64) uint32 {
	id, ok := f.Lookup(h)
	if !ok {
		panic(fmt.Sprintf("corpusindex: Intern(%#x) on a frozen interner: the sealed vocabulary is closed; analyze queries under a QueryInterner overlay", h))
	}
	return id
}

// InternAll is the bulk form of Intern, with the same closed-vocabulary
// contract.
func (f *Frozen) InternAll(hashes []uint64, out []uint32) []uint32 {
	for _, h := range hashes {
		out = append(out, f.Intern(h))
	}
	return out
}

// QueryInterner is the per-request overlay a sealed corpus analyzes
// query executables under: hashes in the frozen vocabulary resolve to
// their frozen IDs (lock-free), and hashes the corpus has never seen
// get private IDs starting at the frozen vocabulary size, stored in
// request-local state. Private IDs therefore never collide with any ID
// a sealed posting list or CSR row can contain, which is what makes a
// query set interned here directly comparable with sealed sets. Two
// overlays of one base are not comparable with each other: their private
// IDs overlap while standing for different hashes.
//
// A QueryInterner is safe for the concurrent procedure-level workers of
// one query build; it is not meant to be shared across requests.
type QueryInterner struct {
	base *Frozen

	mu     sync.Mutex
	extra  map[uint64]uint32 // hashes outside the frozen vocabulary
	extraH []uint64          // by private ID less the frozen vocabulary size
}

// NewQueryInterner returns an overlay over the frozen vocabulary.
func NewQueryInterner(base *Frozen) *QueryInterner {
	return &QueryInterner{base: base, extra: map[uint64]uint32{}}
}

// BaseInterner returns the frozen vocabulary the overlay extends.
func (q *QueryInterner) BaseInterner() *Frozen { return q.base }

// Novel reports how many strand hashes outside the frozen vocabulary
// the overlay has assigned private IDs so far.
func (q *QueryInterner) Novel() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.extraH)
}

// Intern returns the frozen ID for vocabulary hashes and a request-local
// private ID (≥ the frozen vocabulary size) otherwise.
func (q *QueryInterner) Intern(h uint64) uint32 {
	if id, ok := q.base.Lookup(h); ok {
		return id
	}
	return q.private(h)
}

// private returns the private ID of h, which the frozen vocabulary does
// not hold, assigning the next one on first sight.
func (q *QueryInterner) private(h uint64) uint32 {
	q.mu.Lock()
	defer q.mu.Unlock()
	id, ok := q.extra[h]
	if !ok {
		id = uint32(len(q.base.hashes) + len(q.extraH))
		q.extra[h] = id
		q.extraH = append(q.extraH, h)
	}
	return id
}

// InternAll appends the IDs of hashes to out in input order, touching
// the overlay lock only for hashes outside the frozen vocabulary.
func (q *QueryInterner) InternAll(hashes []uint64, out []uint32) []uint32 {
	for _, h := range hashes {
		id, ok := q.base.Lookup(h)
		if !ok {
			id = q.private(h)
		}
		out = append(out, id)
	}
	return out
}

// AppendHashes appends the hash of each of ids, frozen or private to this
// overlay, to dst in ids order. It implements strand.Vocabulary.
func (q *QueryInterner) AppendHashes(dst []uint64, ids []uint32) []uint64 {
	n := uint32(len(q.base.hashes))
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, id := range ids {
		if id < n {
			dst = append(dst, q.base.hashes[id])
		} else {
			dst = append(dst, q.extraH[id-n])
		}
	}
	return dst
}

// FrozenIndex is the corpus-level inverted index — dense strand ID →
// the distinct procedure strand sets holding it, flattened into one CSR
// slab — and the only index type there is: built once over every
// distinct executable of a sealed corpus, never changed afterwards, and
// never persisted: a shard stores each of its distinct strand sets
// once, and the index is derived from those sets. It holds no lock and
// supports no mutation, so unlimited concurrent readers share it freely.
// The only shared structure the query path touches is a sync.Pool of
// scratch accumulators, which is race-safe by construction and carries no
// corpus state between queries.
type FrozenIndex struct {
	// rows is the dense row directory, one offset per strand ID below the
	// bound and one past the last: row id's postings, set numbers
	// ascending, are posts[rows[id]:rows[id+1]].
	rows  []uint32
	posts []uint32
	// procOff are prefix sums of per-executable procedure counts:
	// procedure p of executable e is slot procOff[e]+p, and the last
	// entry is the slot total.
	procOff []int32
	// setOf numbers each slot's strand set. Equal sets share one number,
	// and numbers follow the first slot holding each set; nsets sets in
	// all, each posted once and counted once in a query scratch.
	setOf []uint32
	nsets int

	scratch sync.Pool
}

// SetTable is one shard's share of an index build: its distinct
// strand-ID sets, and for each of its procedure slots in order — executable
// by executable — the number of the set the slot holds.
type SetTable struct {
	Sets  [][]uint32
	SetOf []uint32
}

// NewFrozenIndex builds the index over executables given as each one's
// procedure count and, shard by shard in corpus order, the set table of
// the shards' procedure slots: the tables' SetOf together hold exactly
// the counts' sum, each a number below its table's set count. The sets
// are strictly increasing, with IDs all assigned by one interner and
// below bound — the frozen vocabulary's size for a sealed corpus. A set
// stored by several shards is numbered once (setdedup); each shard set a
// slot holds is hashed once, and corpus-wide sets are numbered in order
// of the first slot holding each. A counting pass per strand ID over the
// distinct sets sizes the postings exactly and leaves, as prefix sums,
// the row directory; the postings are then filled from the last
// set back, so each row ends up in set order. The index keeps none of the
// sets, so they may alias memory that is released later.
func NewFrozenIndex(bound int, procCounts []int32, tables []SetTable) *FrozenIndex {
	x := &FrozenIndex{procOff: make([]int32, len(procCounts)+1)}
	for i, n := range procCounts {
		x.procOff[i+1] = x.procOff[i] + n
	}
	slots, shardSets := 0, 0
	for _, t := range tables {
		slots, shardSets = slots+len(t.SetOf), shardSets+len(t.Sets)
	}
	if want := x.procOff[len(procCounts)]; int(want) != slots {
		panic(fmt.Sprintf("corpusindex: %d procedure set numbers for %d procedures", slots, want))
	}
	x.setOf = make([]uint32, 0, slots)
	dedup := setdedup.New(shardSets)
	for _, t := range tables {
		number := make([]uint32, len(t.Sets)) // corpus-wide set number + 1; 0 is not yet seen
		for _, k := range t.SetOf {
			if number[k] == 0 {
				number[k] = dedup.Number(t.Sets[k]) + 1
			}
			x.setOf = append(x.setOf, number[k]-1)
		}
	}
	distinct := dedup.Sets()
	x.nsets = len(distinct)
	rows := make([]uint32, bound+1) // counts, then row ends, then row starts
	for _, ids := range distinct {
		for _, id := range ids {
			rows[id]++
		}
	}
	for id := 1; id <= bound; id++ {
		rows[id] += rows[id-1]
	}
	x.rows, x.posts = rows, make([]uint32, rows[bound])
	for n := len(distinct) - 1; n >= 0; n-- {
		for _, id := range distinct[n] {
			rows[id]--
			x.posts[rows[id]] = uint32(n)
		}
	}
	return x
}

// Scans collects the results of one search pass's posting scans: the
// candidates of every scanned query back to back, and for each its
// similarity vector. Candidate k (a position in Exes) has the vector
// Vecs[Off[k]:Off[k+1]]; a query that appended Exes[lo:hi] owns
// Off[lo:hi+1]. The zero value is ready to use and records nothing;
// Reset readies a used one for the next pass, keeping its storage.
type Scans struct {
	// Exes are executable IDs, each query's in Scan's ranking.
	Exes []int
	Off  []int32
	// Vecs holds, per candidate, the positive entries of the query's
	// similarity vector over that executable's procedures, in procedure
	// order — exactly the positive entries of the executable's SimAll
	// for the query set, since a posting is one (strand, procedure)
	// membership and the scan counts the query's strands per procedure.
	Vecs []sim.ProcScore

	// What the pass's scans count into (see Reset); nil records nothing.
	queries  *telemetry.Counter
	postings *telemetry.Histogram
	fanout   *telemetry.Histogram
}

// Reset empties the collection for the next pass, whose scans then
// count into sp's registry: index.queries, one per scan; index.postings,
// the postings each scan walked; and index.fanout, the candidate
// executables each scan kept in its scope after the floors. Rankings are
// identical with and without a registry.
func (s *Scans) Reset(sp telemetry.Span) {
	s.Exes, s.Off, s.Vecs = s.Exes[:0], s.Off[:0], s.Vecs[:0]
	s.queries, s.postings, s.fanout = sp.Counter("index.queries"), sp.Histogram("index.postings"), sp.Histogram("index.fanout")
}

// Scan is the index's one query: a posting scan that ranks the indexed
// executables inScope admits (nil admits all) by MaxSim — the maximum
// Sim(q, p) over an executable's procedures — and drops those provably
// unable to clear the acceptance floors: a finding's score is Sim(q,
// matched procedure) ≤ MaxSim, so an executable with MaxSim < minScore —
// or, when ratioFloor > 0, with MaxSim/|q| < ratioFloor — cannot yield an
// accepted finding. Pass ratioFloor 0 to drop by the score floor alone.
// The ranking is deterministic: MaxSim descending, executable ID
// ascending.
//
// Scan appends to out every candidate together with its similarity
// vector, which the scan has already counted and the game would
// otherwise accumulate again. The query set must be interned under the
// indexed executables' interner or an overlay of it.
func (x *FrozenIndex) Scan(q strand.Set, minScore int, ratioFloor float64, inScope []bool, out *Scans) {
	s, walked := x.accumulate(q, minScore, ratioFloor, inScope)
	out.queries.Inc()
	out.postings.Observe(int64(walked))
	out.fanout.Observe(int64(len(s.cands)))
	if len(out.Off) == 0 {
		out.Off = append(out.Off, 0)
	}
	for _, c := range s.cands {
		for pi, set := range x.setOf[x.procOff[c.Exe]:x.procOff[c.Exe+1]] {
			if n := s.counts[set]; n > 0 {
				out.Vecs = append(out.Vecs, sim.ProcScore{Proc: int32(pi), Score: n})
			}
		}
		out.Exes = append(out.Exes, c.Exe)
		out.Off = append(out.Off, int32(len(out.Vecs)))
	}
	putScratch(&x.scratch, s)
}

// accumulate runs one ranking query into pooled scratch and reports the
// postings it walked; the caller owns the returned scratch until
// putScratch. IDs at or above the bound the index was built with —
// assigned by a growing interner after the build, or overlay-private and
// so above the vocabulary — match no row; q.IDs ascend, so they are the
// tail the scan stops at.
func (x *FrozenIndex) accumulate(q strand.Set, minScore int, ratioFloor float64, inScope []bool) (s *queryScratch, walked int) {
	s = getScratch(&x.scratch, x.nsets)
	bound := uint32(len(x.rows) - 1)
	for _, id := range q.IDs {
		if id >= bound {
			break
		}
		row := x.posts[x.rows[id]:x.rows[id+1]]
		s.bump(row)
		walked += len(row)
	}
	s.rank(x.procOff, x.setOf, inScope, len(q.IDs), minScore, ratioFloor)
	return s, walked
}
