// Package sim builds the indexed procedure representation the search
// layers operate on: every procedure of an executable as a set of
// canonical strands, plus call-graph and CFG shape metadata used by the
// graph-based baseline, with an inverted strand index for fast
// best-match queries (the paper's Sim(q,t) = |Strands(q) ∩ Strands(t)|).
//
// Every executable is built under an analyzer session (a strand.Interner)
// that assigns its strands dense IDs, and keeps its inverted index as
// posting lists over them in CSR form. Similarity is counted over those
// IDs alone, so a query set must come from the executable's session or
// an overlay of it.
package sim

import (
	"cmp"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"firmup/internal/cfg"
	"firmup/internal/isa"
	"firmup/internal/strand"
	"firmup/internal/telemetry"
	"firmup/internal/uir"
)

// Telemetry is the optional counter set indexing records against; a nil
// pointer (and any nil field) disables the corresponding metric. The
// indexed output is identical with and without it.
type Telemetry struct {
	// Procs counts procedures indexed.
	Procs *telemetry.Counter
	// Extract is forwarded to the per-worker strand extractors.
	Extract *strand.Telemetry
}

// Proc is one indexed procedure.
type Proc struct {
	Name     string
	Addr     uint32
	Exported bool
	Set      strand.Set
	// Markers are the procedure's distinctive plain constants, used by
	// the automated confirmation step (see strand.MarkerOverlap).
	Markers []uint32
	// CFG/call-graph shape, consumed by the BinDiff-style baseline.
	BlockCount int
	EdgeCount  int
	InstCount  int
	Calls      []int // indices of called procedures within the executable
	CalledBy   []int
}

// Exe is one indexed executable.
type Exe struct {
	Path  string
	Arch  uir.Arch
	Procs []*Proc
	// Stripped mirrors the container flag.
	Stripped bool

	it strand.Interner
	// CSR inverted index over dense strand IDs: ids is the sorted set of
	// distinct strand IDs present in the executable, and
	// procs[start[k]:start[k+1]] lists the procedures containing ids[k].
	ids   []uint32
	start []int32
	procs []int32

	nameOnce sync.Once
	names    map[string]int
}

// BuildConfig tunes BuildWith for analyzer sessions. The zero value
// (and a nil pointer) selects serial analysis.
type BuildConfig struct {
	// Workers bounds procedure-level parallelism within this executable
	// (values ≤ 1 build serially). The analyzed output is byte-identical
	// to the serial build: procedures are assembled by index, and every
	// per-procedure result is a pure function of the recovered input.
	Workers int
	// Tel, when non-nil, records indexing metrics.
	Tel *Telemetry
	// Span is the parent the build is timed under: one "sim.build" span
	// end to end with inverted-index construction ("sim.index") as its
	// child. The zero Span times nothing.
	Span telemetry.Span
}

// Build indexes a recovered executable under the analyzer session it:
// every procedure's strand set is interned to dense IDs and the inverted
// index is built as posting lists over them.
func Build(path string, rec *cfg.Recovered, it strand.Interner) *Exe {
	return BuildWith(path, rec, it, nil)
}

// BuildWith is Build with session tuning: a bounded procedure-level
// worker pool, telemetry and a parent span.
//
// rec is a plan (cfg.Plan) or a full recovery (cfg.Recover). A planned
// procedure is lifted by the worker that extracts it, right before, into
// the worker's cfg.Lifter, and dropped when it fails to lift, as Recover
// drops it; a procedure that has Blocks is read as it is. Either way the
// indexed executable is the same.
func BuildWith(path string, rec *cfg.Recovered, it strand.Interner, bc *BuildConfig) *Exe {
	be, err := isa.ByArch(rec.Arch)
	var abi *uir.ABI
	if err == nil {
		abi = be.ABI()
	}
	opt := &strand.Options{ABI: abi, Sections: rec.File.Map()}
	e := &Exe{Path: path, Arch: rec.Arch, Stripped: rec.File.Stripped}
	if bc == nil {
		bc = &BuildConfig{}
	}
	tel := bc.Tel
	buildSpan := bc.Span.Start("sim.build")
	defer buildSpan.End()
	var extractTel *strand.Telemetry
	if tel != nil {
		extractTel = tel.Extract
	}
	workers := min(bc.Workers, len(rec.Procs))
	// Each worker owns a lifter and an extractor (their scratch drawn
	// from, and returned to, the cfg and strand packages' pools);
	// procedures are claimed via an atomic cursor and written to their
	// slot, so assembly order is index order regardless of schedule. The
	// recovered input is shared and only read.
	procs := make([]*Proc, len(rec.Procs))
	var cursor atomic.Int64
	work := func() {
		pb := &procBuilder{rec: rec, lift: cfg.NewLifter(rec), ex: strand.NewExtractor(opt, it, extractTel), listed: make([]int32, len(rec.Procs))}
		defer pb.lift.Release()
		defer pb.ex.Release()
		for {
			i := int(cursor.Add(1)) - 1
			if i >= len(rec.Procs) {
				return
			}
			procs[i] = pb.build(i)
		}
	}
	if workers <= 1 {
		work()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}
	e.Procs, e.it = dropUnlifted(procs), it
	for i, p := range e.Procs {
		for _, c := range p.Calls {
			e.Procs[c].CalledBy = append(e.Procs[c].CalledBy, i)
		}
	}
	if tel != nil {
		tel.Procs.Add(int64(len(e.Procs)))
	}
	indexSpan := buildSpan.Start("sim.index")
	e.buildIndex()
	indexSpan.End()
	return e
}

// dropUnlifted removes the procedures that failed to lift (nil) and
// renumbers every Calls entry, an index into the recovered procedures,
// to the survivors', dropping calls to a procedure that went.
func dropUnlifted(procs []*Proc) []*Proc {
	if !slices.Contains(procs, nil) {
		return procs
	}
	to := make([]int, len(procs))
	n := 0
	for i, p := range procs {
		to[i] = -1
		if p != nil {
			to[i], procs[n] = n, p
			n++
		}
	}
	clear(procs[n:])
	procs = procs[:n]
	for _, p := range procs {
		calls := p.Calls[:0]
		for _, c := range p.Calls {
			if to[c] >= 0 {
				calls = append(calls, to[c])
			}
		}
		if len(calls) == 0 {
			calls = nil
		}
		p.Calls = calls
	}
	return procs
}

// procBuilder indexes the procedures of one recovered executable, one at
// a time; a build's workers own one each.
type procBuilder struct {
	rec  *cfg.Recovered
	lift *cfg.Lifter
	ex   *strand.Extractor
	// listed is the call-list deduplication table, by callee index: the
	// procedure (plus one) whose Calls last took the callee. A row written
	// for another caller is empty, so nothing is cleared between
	// procedures.
	listed []int32
	succs  []uint32
}

// build indexes procedure i, lifting it first when it has no blocks,
// and returns nil when it fails to lift. The result is a pure function of
// the recovered input and references none of it but the name; its Calls
// index the recovered procedures until dropUnlifted renumbers them.
func (pb *procBuilder) build(i int) *Proc {
	p := pb.rec.Procs[i]
	blocks := p.Blocks
	if blocks == nil {
		var ok bool
		if blocks, ok = pb.lift.Lift(p); !ok {
			return nil
		}
	}
	set, markers := pb.ex.Proc(blocks)
	sp := &Proc{
		Name:       p.Name,
		Addr:       p.Entry,
		Exported:   p.Exported,
		Set:        set,
		Markers:    markers,
		BlockCount: len(blocks),
		InstCount:  len(p.Insts),
	}
	for _, b := range blocks {
		pb.succs = b.Succs(pb.succs[:0])
		sp.EdgeCount += len(pb.succs)
	}
	for k := range p.Insts {
		in := &p.Insts[k]
		if in.Kind != isa.KindCall {
			continue
		}
		// Procs is sorted by entry (see cfg.Recovered).
		ti, ok := slices.BinarySearchFunc(pb.rec.Procs, in.Target, func(p *cfg.Proc, a uint32) int { return cmp.Compare(p.Entry, a) })
		if ok && pb.listed[ti] != int32(i)+1 {
			pb.listed[ti] = int32(i) + 1
			sp.Calls = append(sp.Calls, ti)
		}
	}
	return sp
}

// FromProcs assembles an executable from procedures under the analyzer
// session it, interning every strand set. Sets already interned under it
// (e.g. materialized from a shard) are kept as-is.
func FromProcs(path string, procs []*Proc, it strand.Interner) *Exe {
	e := &Exe{Path: path, Procs: procs, it: it}
	for _, p := range e.Procs {
		if p.Set.It != it {
			p.Set = p.Set.Interned(it)
		}
	}
	e.buildIndex()
	return e
}

// Session returns the analyzer session the executable was built under.
func (e *Exe) Session() strand.Interner { return e.it }

// Rebound returns a copy of the executable bound to a different session
// interner without re-interning: the CSR posting lists and every
// procedure's slice data (hashes, IDs, markers, call graph) are shared
// with the receiver, but the Proc structs are fresh so the copy's sets
// carry it as their session. The caller guarantees it assigns the same
// dense ID to every hash the receiver's session did — the contract a
// frozen snapshot of the live interner satisfies by construction.
// The lazily-built name map is not carried over; the copy builds its
// own on first use.
func (e *Exe) Rebound(it strand.Interner) *Exe {
	out := &Exe{
		Path:     e.Path,
		Arch:     e.Arch,
		Stripped: e.Stripped,
		it:       it,
		ids:      e.ids,
		start:    e.start,
		procs:    e.procs,
	}
	out.Procs = make([]*Proc, len(e.Procs))
	for i, p := range e.Procs {
		cp := *p
		cp.Set.It = it
		out.Procs[i] = &cp
	}
	return out
}

// WithPath returns a copy of the executable under another path: the
// procedures and CSR posting lists are shared with the receiver, only
// Path differs. The lazily-built name map is not carried over; the copy
// builds its own on first use.
func (e *Exe) WithPath(path string) *Exe {
	return &Exe{
		Path:     path,
		Arch:     e.Arch,
		Procs:    e.Procs,
		Stripped: e.Stripped,
		it:       e.it,
		ids:      e.ids,
		start:    e.start,
		procs:    e.procs,
	}
}

// csrScratch is buildIndex's counting scratch, pooled across builds:
// cnt[id] is strand id's posting count, then its fill cursor; seen marks
// the IDs counted. Both are all zero between builds.
type csrScratch struct {
	cnt  []int32
	seen []uint64
}

var csrPool = sync.Pool{New: func() any { return new(csrScratch) }}

// buildIndex builds the executable's CSR posting lists.
func (e *Exe) buildIndex() {
	sc := csrPool.Get().(*csrScratch)
	sc.build(e)
	csrPool.Put(sc)
}

// build builds e's CSR posting lists by counting, with no comparison:
// every procedure's IDs are sorted and procedures are visited in index
// order, so counting per ID, walking the occupancy bitmap in ID order and
// filling in procedure order yields rows sorted by ID with ascending
// procedures. The scratch grows to the largest ID seen, overlay-private
// ones included, and only what a build touched is zeroed again:
// O(postings + maxID/64), never a vocabulary-sized clear.
func (sc *csrScratch) build(e *Exe) {
	n, maxID := 0, uint32(0)
	for _, p := range e.Procs {
		if ids := p.Set.IDs; len(ids) > 0 {
			n += len(ids)
			maxID = max(maxID, ids[len(ids)-1])
		}
	}
	if need := int(maxID) + 1; len(sc.cnt) < need {
		need += need / 2 // a live session's vocabulary grows with every executable
		sc.cnt = make([]int32, need)
		sc.seen = make([]uint64, (need+63)/64)
	}
	cnt, seen := sc.cnt, sc.seen[:maxID>>6+1]
	distinct := 0
	for _, p := range e.Procs {
		for _, id := range p.Set.IDs {
			if cnt[id] == 0 {
				seen[id>>6] |= 1 << (id & 63)
				distinct++
			}
			cnt[id]++
		}
	}
	e.ids = make([]uint32, distinct)
	rows := make([]int32, distinct+1+n)
	e.start, e.procs = rows[:distinct+1:distinct+1], rows[distinct+1:]
	k, pos := 0, int32(0)
	for w, word := range seen {
		for ; word != 0; word &= word - 1 {
			id := uint32(w<<6 + bits.TrailingZeros64(word))
			e.ids[k], e.start[k] = id, pos
			cnt[id], pos = pos, pos+cnt[id]
			k++
		}
	}
	e.start[k] = pos
	for pi, p := range e.Procs {
		for _, id := range p.Set.IDs {
			e.procs[cnt[id]] = int32(pi)
			cnt[id]++
		}
	}
	for _, id := range e.ids {
		cnt[id] = 0
	}
	clear(seen)
}

// ProcByName returns the index of the first procedure with the given
// name, or -1. The name map is built lazily on first use.
func (e *Exe) ProcByName(name string) int {
	e.nameOnce.Do(func() {
		e.names = make(map[string]int, len(e.Procs))
		for i, p := range e.Procs {
			if _, ok := e.names[p.Name]; !ok {
				e.names[p.Name] = i
			}
		}
	})
	if i, ok := e.names[name]; ok {
		return i
	}
	return -1
}

// Sim computes the paper's similarity score between a strand set of the
// executable's session (or an overlay of it) and procedure i.
func (e *Exe) Sim(q strand.Set, i int) int {
	return q.Intersect(e.Procs[i].Set)
}

// SimAll computes Sim(q, t) for every procedure via the inverted index:
// one counter bump per (query strand, containing procedure) pair.
func (e *Exe) SimAll(q strand.Set) []int {
	return e.SimAllInto(q, nil)
}

// SimAllInto is SimAll accumulating into a caller-provided buffer: counts
// is resliced to len(e.Procs) and zeroed when its capacity suffices, and
// reallocated otherwise; the used buffer is returned. It is what lets the
// game engine's matcher run similarity queries without a per-call
// allocation.
func (e *Exe) SimAllInto(q strand.Set, counts []int) []int {
	if cap(counts) < len(e.Procs) {
		counts = make([]int, len(e.Procs))
	} else {
		counts = counts[:len(e.Procs)]
		clear(counts)
	}
	e.simIDs(q.IDs, counts)
	return counts
}

// simIDs accumulates posting counts for sorted query IDs. When the query
// is much smaller than the executable's vocabulary each ID is located by
// a galloping search from the previous ID's row — the probe doubles its
// stride until it passes id, then bisects the last stride — so a lookup
// costs the logarithm of the gap it jumps, not of the whole tail;
// otherwise a linear merge over the two sorted sequences.
func (e *Exe) simIDs(qids []uint32, counts []int) {
	ids := e.ids
	if len(qids) == 0 || len(ids) == 0 {
		return
	}
	if len(qids)*8 < len(ids) {
		lo := 0
		for _, id := range qids {
			// Invariant: every row below lo is < id; find the first row
			// at or after lo that is >= id.
			hi, step := lo, 1
			for hi < len(ids) && ids[hi] < id {
				lo = hi + 1
				hi += step
				step <<= 1
			}
			if hi > len(ids) {
				hi = len(ids)
			}
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				if ids[mid] < id {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			if lo == len(ids) {
				return
			}
			if ids[lo] == id {
				for _, pi := range e.procs[e.start[lo]:e.start[lo+1]] {
					counts[pi]++
				}
			}
		}
		return
	}
	i, j := 0, 0
	for i < len(qids) && j < len(ids) {
		switch {
		case qids[i] == ids[j]:
			for _, pi := range e.procs[e.start[j]:e.start[j+1]] {
				counts[pi]++
			}
			i++
			j++
		case qids[i] < ids[j]:
			i++
		default:
			j++
		}
	}
}

// BestMatch returns the procedure with maximal Sim to q, skipping indices
// for which excluded returns true. Ties break toward the lower index
// (deterministic). Returns (-1, 0) when no candidate shares any strand.
func (e *Exe) BestMatch(q strand.Set, excluded func(int) bool) (int, int) {
	return e.BestMatchFrom(e.SimAll(q), excluded)
}

// BestMatchFrom is the scan half of BestMatch over a similarity vector
// already accumulated by SimAllInto — the exclusion filter is applied at
// scan time, so one accumulation serves any number of exclusion sets.
// The tie-break is BestMatch's: strictly-greater scores win, so equal
// scores keep the lower index.
func (e *Exe) BestMatchFrom(counts []int, excluded func(int) bool) (int, int) {
	best, bestScore := -1, 0
	for i, c := range counts {
		if c == 0 || (excluded != nil && excluded(i)) {
			continue
		}
		if c > bestScore {
			best, bestScore = i, c
		}
	}
	return best, bestScore
}

// TopK returns the k most similar procedures in descending score order,
// ties toward the lower index (procedures sharing no strands are
// omitted). Selection is a bounded min-heap over the positive scores, so
// large executables never sort their full procedure list for a small k.
func (e *Exe) TopK(q strand.Set, k int) []Scored {
	if k <= 0 {
		return nil
	}
	counts := e.SimAll(q)
	var h []Scored
	for i, c := range counts {
		if c == 0 {
			continue
		}
		s := Scored{Proc: i, Score: float64(c)}
		if len(h) < k {
			h = append(h, s)
			scoredSiftUp(h)
		} else if scoredWorse(h[0], s) {
			h[0] = s
			scoredSiftDown(h, 0, len(h))
		}
	}
	// Heapsort: each step moves the worst remaining entry to the shrinking
	// tail, leaving h in descending-score (ascending-index on ties) order.
	for n := len(h) - 1; n > 0; n-- {
		h[0], h[n] = h[n], h[0]
		scoredSiftDown(h, 0, n)
	}
	return h
}

// scoredWorse reports whether a ranks strictly below b in TopK order
// (score descending, procedure index ascending on ties). The heap is a
// min-heap under this order: its root is the worst kept candidate.
func scoredWorse(a, b Scored) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Proc > b.Proc
}

func scoredSiftUp(h []Scored) {
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !scoredWorse(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func scoredSiftDown(h []Scored, i, n int) {
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		j := l
		if r := l + 1; r < n && scoredWorse(h[r], h[l]) {
			j = r
		}
		if !scoredWorse(h[j], h[i]) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// Scored pairs a procedure index with a score.
type Scored struct {
	Proc  int
	Score float64
}

// ProcScore is one positive entry of a similarity vector: procedure Proc
// shares Score strands with the query set. A vector is kept as its
// positive entries in procedure order — the compact form the game
// engine memoizes and a corpus posting scan hands it ready-made.
type ProcScore struct {
	Proc  int32
	Score int32
}
