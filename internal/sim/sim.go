// Package sim builds the indexed procedure representation the search
// layers operate on: every procedure of an executable as a set of
// canonical strands, plus call-graph and CFG shape metadata used by the
// graph-based baseline, with an inverted strand index for fast
// best-match queries (the paper's Sim(q,t) = |Strands(q) ∩ Strands(t)|).
//
// Every executable is built under an analyzer session (a strand.Interner)
// that assigns its strands dense IDs. Its inverted index — posting lists
// over those IDs in CSR form — is built on its first similarity query,
// not with the executable: many executables are never asked one.
// Similarity is counted over the IDs alone, so a query set must come from
// the executable's session or an overlay of it.
package sim

import (
	"cmp"
	"math/bits"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"

	"firmup/internal/cfg"
	"firmup/internal/isa"
	"firmup/internal/strand"
	"firmup/internal/telemetry"
	"firmup/internal/uir"
)

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

// Exe is one indexed executable: one analysis, which an analyzer session
// shares between every sighting of the bytes it was built from. Where
// each sighting sits is its caller's to keep; Path is the label the
// executable was built under.
type Exe struct {
	Path  string
	Arch  uir.Arch
	Procs []*Proc
	// Stripped mirrors the container flag.
	Stripped bool

	it strand.Interner
	// index is the inverted index, built on first use (SimAllInto).
	index lazyIndex

	nameOnce sync.Once
	names    map[string]int
}

// BuildConfig tunes BuildWith for analyzer sessions. The zero value
// (and a nil pointer) selects serial analysis.
type BuildConfig struct {
	// Workers bounds procedure-level parallelism within this executable:
	// the build runs on the caller's goroutine and Workers−1 more (values
	// ≤ 1 build serially). The analyzed output is byte-identical
	// to the serial build: procedures are assembled by index, and every
	// per-procedure result is a pure function of the recovered input.
	Workers int
	// Span is the parent the build is timed and counted under: one
	// "sim.build" span end to end, and in its registry sim.procs, the
	// procedures indexed, beside the extractors' strand.blocks and
	// strand.strands. The inverted index is not part of the build: it is
	// built on the executable's first similarity query. The zero Span
	// records nothing. The indexed output is identical either way.
	Span telemetry.Span
}

// BuildWith indexes a recovered executable under the analyzer session
// it: every procedure's strand set is interned to dense IDs by a bounded
// procedure-level worker pool (bc, which may be nil).
//
// rec is a plan (cfg.Plan) or a full recovery (cfg.Recover). A planned
// procedure is lifted by the worker that extracts it, right before, into
// the worker's cfg.Lifter, and dropped when it fails to lift, as Recover
// drops it; a procedure that has Blocks is read as it is. Either way the
// indexed executable is the same.
//
// A panic on any worker — a memory fault included, when it interns into
// a vocabulary that aliases a mapped file truncated under the process —
// is re-raised on the caller once every worker has stopped, so the
// caller's recover sees it.
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
	buildSpan := bc.Span.Start("sim.build")
	defer buildSpan.End()
	extractTel := strand.TelemetryUnder(bc.Span)
	workers := min(bc.Workers, len(rec.Procs))
	// Each worker owns a lifter and an extractor (their scratch drawn
	// from, and returned to, the cfg and strand packages' pools);
	// procedures are claimed via an atomic cursor and written to their
	// slot, so assembly order is index order regardless of schedule. The
	// recovered input is shared and only read.
	procs := make([]*Proc, len(rec.Procs))
	var cursor atomic.Int64
	var panicOnce sync.Once
	var panicked any
	work := func() {
		defer func() {
			if r := recover(); r != nil {
				panicOnce.Do(func() { panicked = r })
				cursor.Store(int64(len(rec.Procs))) // the others claim no more
			}
		}()
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
	var wg sync.WaitGroup
	for range workers - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			debug.SetPanicOnFault(true)
			work()
		}()
	}
	work()
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	e.Procs, e.it = dropUnlifted(procs), it
	for i, p := range e.Procs {
		for _, c := range p.Calls {
			e.Procs[c].CalledBy = append(e.Procs[c].CalledBy, i)
		}
	}
	bc.Span.Counter("sim.procs").Add(int64(len(e.Procs)))
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
	set, markers := pb.ex.IDs(blocks)
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
	return e
}

// Session returns the analyzer session the executable was built under.
func (e *Exe) Session() strand.Interner { return e.it }

// csr is an executable's inverted index over dense strand IDs: ids is the
// sorted set of distinct strand IDs present in the executable, and
// procs[start[k]:start[k+1]] lists the procedures containing ids[k].
// dir[j]:dir[j+1] is the span of ids whose top bits, id>>shift, are j:
// 2^b+1 offsets with 2^b below the distinct ID count, so a lookup
// bisects one bucket of one or two rows on average when the IDs spread
// evenly, as a sealed corpus's hash ranks do.
type csr struct {
	ids   []uint32
	start []int32
	procs []int32
	dir   []int32
	shift uint
}

// lazyIndex holds an executable's csr once built. The first query builds
// it under mu while later ones wait, and it is published only when the
// build returns: a build that panics — a fault reading a set that aliases
// a shard truncated under the process — publishes nothing, and the next
// query builds again. (A sync.Once would count the panicking call as done
// and every later query would read an empty index, scoring zero.)
type lazyIndex struct {
	built atomic.Pointer[csr]
	mu    sync.Mutex
}

// get returns the index of procs, building it on first use.
func (h *lazyIndex) get(procs []*Proc) *csr {
	if c := h.built.Load(); c != nil {
		return c
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if c := h.built.Load(); c != nil {
		return c
	}
	sc := csrPool.Get().(*csrScratch)
	c := sc.build(procs)
	// Not deferred: a build that panics leaves its scratch dirty, and the
	// scratch is dropped with it.
	csrPool.Put(sc)
	h.built.Store(c)
	return c
}

// csrScratch is a csr build's counting scratch, pooled across builds:
// cnt[id] is strand id's posting count, then its fill cursor; seen marks
// the IDs counted. Both are all zero between builds.
type csrScratch struct {
	cnt  []int32
	seen []uint64
}

var csrPool = sync.Pool{New: func() any { return new(csrScratch) }}

// build builds the CSR posting lists of procs by counting, with no
// comparison: every procedure's IDs are sorted and procedures are visited
// in index order, so counting per ID, walking the occupancy bitmap in ID
// order and filling in procedure order yields rows sorted by ID with
// ascending procedures. The scratch grows to the largest ID seen,
// overlay-private ones included, and only what a build touched is zeroed
// again: O(postings + maxID/64), never a vocabulary-sized clear. The
// directory over the rows is filled in one more pass over them.
func (sc *csrScratch) build(procs []*Proc) *csr {
	n, maxID := 0, uint32(0)
	for _, p := range procs {
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
	for _, p := range procs {
		for _, id := range p.Set.IDs {
			if cnt[id] == 0 {
				seen[id>>6] |= 1 << (id & 63)
				distinct++
			}
			cnt[id]++
		}
	}
	c := &csr{ids: make([]uint32, distinct)}
	rows := make([]int32, distinct+1+n)
	c.start, c.procs = rows[:distinct+1:distinct+1], rows[distinct+1:]
	k, pos := 0, int32(0)
	for w, word := range seen {
		for ; word != 0; word &= word - 1 {
			id := uint32(w<<6 + bits.TrailingZeros64(word))
			c.ids[k], c.start[k] = id, pos
			cnt[id], pos = pos, pos+cnt[id]
			k++
		}
	}
	c.start[k] = pos
	b := 0
	if distinct > 1 {
		b = bits.Len(uint(distinct-1)) - 1
	}
	c.shift, c.dir = uint(max(0, bits.Len32(maxID)-b)), make([]int32, 1<<b+1)
	j := 0
	for i, id := range c.ids {
		for ; j <= int(id>>c.shift); j++ {
			c.dir[j] = int32(i)
		}
	}
	for ; j < len(c.dir); j++ {
		c.dir[j] = int32(distinct)
	}
	for pi, p := range procs {
		for _, id := range p.Set.IDs {
			c.procs[cnt[id]] = int32(pi)
			cnt[id]++
		}
	}
	for _, id := range c.ids {
		cnt[id] = 0
	}
	clear(seen)
	return c
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
// one counter bump per (query strand, containing procedure) pair. The
// executable's first call builds the index.
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

// simIDs accumulates posting counts for sorted query IDs, each located
// by a bisection of its directory bucket.
func (e *Exe) simIDs(qids []uint32, counts []int) {
	if len(qids) == 0 {
		return
	}
	ix := e.index.get(e.Procs)
	for _, id := range qids {
		j := int(id >> ix.shift)
		if j >= len(ix.dir)-1 {
			return // past the largest ID, as every later one is
		}
		lo, end := ix.dir[j], ix.dir[j+1]
		for hi := end; lo < hi; {
			if mid := (lo + hi) >> 1; ix.ids[mid] < id {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < end && ix.ids[lo] == id {
			for _, pi := range ix.procs[ix.start[lo]:ix.start[lo+1]] {
				counts[pi]++
			}
		}
	}
}

// BestMatch returns the procedure with maximal Sim to q, skipping indices
// for which excluded returns true. Ties break toward the lower index
// (deterministic). Returns (-1, 0) when no candidate shares any strand.
// The exclusion filter is applied when the accumulated vector is
// scanned, so the vector itself does not depend on it.
func (e *Exe) BestMatch(q strand.Set, excluded func(int) bool) (int, int) {
	best, bestScore := -1, 0
	for i, c := range e.SimAll(q) {
		if c == 0 || (excluded != nil && excluded(i)) {
			continue
		}
		if c > bestScore {
			best, bestScore = i, c
		}
	}
	return best, bestScore
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
