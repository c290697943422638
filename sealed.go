package firmup

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"firmup/internal/cfg"
	"firmup/internal/core"
	"firmup/internal/corpusindex"
	"firmup/internal/obj"
	"firmup/internal/sim"
	"firmup/internal/snapshot"
	"firmup/internal/strand"
	"firmup/internal/telemetry"
	"firmup/internal/uir"
)

// SealedCorpus is the immutable, serve-oriented form of an analysis
// session: a frozen strand vocabulary plus every sealed image's
// executables and inverted index, re-expressed as read-only views. The
// query path — AnalyzeQuery through SearchImage — performs no writes to
// the corpus: query executables are analyzed under per-request overlay
// interners whose private IDs sit above the frozen vocabulary, so their
// sets remain directly comparable with sealed sets while the corpus
// itself is shared, lock-free, by unlimited concurrent readers.
//
// A sealed corpus answers searches identically to the live session it
// was sealed from: same candidate ranking, same acceptance floors, same
// game — byte-identical findings, examined counts and step histograms.
type SealedCorpus struct {
	frozen *corpusindex.Frozen
	images []*SealedImage
	// front is what query analysis records into (see SetTelemetry).
	front frontEndMetrics

	// shards is non-empty only for corpora opened from FWCORP v2 shard
	// files (OpenSealedCorpus / OpenSealedCorpusDir); it drives the
	// per-shard fan-out of corpus-wide searches and Close.
	shards []*sealedShardRef
}

// SealedImage is one firmware image of a sealed corpus.
//
// In-RAM images (Seal, LoadSealedCorpus) carry all executables in
// Exes. Store-backed images (OpenSealedCorpus) leave Exes nil until a
// search needs every executable: individual executables materialize
// from the mapped shard on demand, so access Exes only through
// Executable / search APIs, which fault them in as needed.
type SealedImage struct {
	Vendor  string
	Device  string
	Version string
	Exes    []*Executable
	// Skipped carries the analysis-time skip diagnostics verbatim.
	Skipped []SkipReason

	index   *corpusindex.FrozenIndex
	targets []*sim.Exe

	// tel, when non-nil, is applied to the image's frozen index —
	// immediately for in-RAM images, at first index build for
	// store-backed ones (see SealedCorpus.SetTelemetry).
	tel *corpusindex.Telemetry

	// Store-backed state (nil/zero for in-RAM images).
	store    *sealedStore
	storeImg int // image index within the shard
	nExes    int
	lazy     []lazyExe
	idxOnce  sync.Once
	idxErr   error
	allOnce  sync.Once
	allErr   error
}

// Executable returns the sealed executable with the given in-image
// path, or nil. On a store-backed image this materializes the whole
// image; nil is also returned if the shard fails to decode.
func (im *SealedImage) Executable(path string) *Executable {
	if err := im.ensureAll(); err != nil {
		return nil
	}
	for _, e := range im.Exes {
		if e.Path == path {
			return e
		}
	}
	return nil
}

// IndexedStrands reports the number of postings in the image's sealed
// search index, or 0 when the image was sealed without one (or its
// shard index fails to decode).
func (im *SealedImage) IndexedStrands() int {
	if err := im.ensureIndex(); err != nil {
		return 0
	}
	if im.index == nil {
		return 0
	}
	return im.index.Postings()
}

// Seal freezes the session's current state into an immutable corpus
// over the given images. The live Analyzer and its images stay fully
// usable afterwards — Seal copies what it must (procedure headers,
// posting slabs) and shares what is already final (hash and ID slices,
// CSR rows) — so sealing is cheap relative to analysis while the sealed
// corpus aliases no mutable session state.
//
// Every image must have been analyzed (or loaded) under this session;
// an executable from another session has incomparable dense IDs and is
// rejected.
func (a *Analyzer) Seal(images ...*Image) (*SealedCorpus, error) {
	frozen := a.interner.Freeze()
	sc := &SealedCorpus{frozen: frozen}
	for ii, img := range images {
		si := &SealedImage{
			Vendor:  img.Vendor,
			Device:  img.Device,
			Version: img.Version,
			Skipped: append([]SkipReason(nil), img.Skipped...),
		}
		for _, e := range img.Exes {
			if e.exe.Session() != strand.Interner(a.interner) {
				return nil, fmt.Errorf("firmup: Seal: image %d executable %s was not analyzed under this session", ii, e.Path)
			}
			si.Exes = append(si.Exes, &Executable{Path: e.Path, exe: e.exe.Rebound(frozen)})
		}
		si.nExes = len(si.Exes)
		si.targets = make([]*sim.Exe, len(si.Exes))
		for i, e := range si.Exes {
			si.targets[i] = e.exe
		}
		if img.index != nil {
			idx, err := corpusindex.NewFrozenIndex(frozen, si.targets, img.index.Rows())
			if err != nil {
				return nil, fmt.Errorf("firmup: Seal: image %d: %w", ii, err)
			}
			si.index = idx
		}
		sc.images = append(sc.images, si)
	}
	return sc, nil
}

// Images returns the sealed images in seal order. The slice is shared;
// treat it as read-only.
func (sc *SealedCorpus) Images() []*SealedImage { return sc.images }

// UniqueStrands reports the frozen vocabulary size.
func (sc *SealedCorpus) UniqueStrands() int { return sc.frozen.Size() }

// SetTelemetry attaches the corpus to a registry under the live
// session's names. Every image index records the prefilter:
// index.queries / index.fallbacks / index.fanout for every candidate
// query. Query analysis (AnalyzeQueryWith) records the front-end layer
// by layer: obj.parse, cfg.recover / cfg.sweep / cfg.lift and their
// counters, sim.build /
// sim.index / sim.procs, and strand.blocks / strand.blocks_computed /
// strand.strands. Call before serving — store-backed images apply the
// index handles when their index first builds, in-RAM images
// immediately. A nil registry detaches.
func (sc *SealedCorpus) SetTelemetry(r *telemetry.Registry) {
	var tel *corpusindex.Telemetry
	sc.front = frontEndMetrics{}
	if r != nil {
		tel = newIndexTelemetry(r)
		sc.front = newFrontEndMetrics(r)
	}
	for _, im := range sc.images {
		im.tel = tel
		if im.index != nil {
			im.index.SetTelemetry(tel)
		}
	}
}

// Executables reports the total executable count across all images.
// Cheap even when store-backed: counts come from shard metadata, not
// materialization.
func (sc *SealedCorpus) Executables() int {
	n := 0
	for _, im := range sc.images {
		n += im.nExes
	}
	return n
}

// AnalyzeQuery analyzes a query binary against the sealed corpus under
// a fresh per-request overlay interner (see AnalyzeQueryWith).
func (sc *SealedCorpus) AnalyzeQuery(data []byte) (*Executable, error) {
	return sc.AnalyzeQueryWith("query", data, 0)
}

// AnalyzeQueryWith analyzes one FWELF binary for querying this sealed
// corpus, with a bounded procedure-level worker budget (≤ 0 selects
// GOMAXPROCS). The analysis runs under a request-private overlay of the
// frozen vocabulary: strands the corpus knows resolve to their frozen
// IDs, novel strands get private IDs above the vocabulary, and nothing
// in the corpus is written. The returned executable queries this corpus
// on the interned fast paths; against any other corpus it falls back to
// hash-based comparison (still correct, just slower).
func (sc *SealedCorpus) AnalyzeQueryWith(path string, data []byte, workers int) (*Executable, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	f, err := obj.ReadWith(data, sc.front.obj)
	if err != nil {
		return nil, err
	}
	rec, err := cfg.RecoverWith(f, sc.front.cfg)
	if err != nil {
		return nil, fmt.Errorf("firmup: %s: %w", path, err)
	}
	qit := corpusindex.NewQueryInterner(sc.frozen)
	bc := &sim.BuildConfig{Workers: workers, Tel: sc.front.sim}
	return &Executable{Path: path, exe: sim.BuildWith(path, rec, qit, bc)}, nil
}

// candidateList is one query's resolved candidate executables for an
// image pass.
type candidateList struct {
	query core.BatchQuery
	cands []int
}

// plan prepares one pass of the given queries over the image and
// returns the target slice the games run against. Each query's candidate
// list is resolved exactly once, here, and serves both purposes it has:
// it selects the executables a store-backed image materializes (so peak
// RSS tracks the working set; non-candidate slots stay nil and are never
// dereferenced), and it is installed as s.Prefilter — a lookup, not a
// second index query — so the games run on the very lists that chose
// what to materialize. Unindexed images, exhaustive searches and passes
// with a query the index cannot narrow examine (and materialize) every
// executable (ok=false from the index means it has no information about
// a query not analyzed under this corpus). The acceptance floors are
// baked into the lists, so the narrowing stays sound (see
// corpusindex.Candidates).
func (im *SealedImage) plan(cqs []core.BatchQuery, s *core.SearchOptions, opt *Options) ([]*sim.Exe, error) {
	if err := im.ensureIndex(); err != nil {
		return nil, err
	}
	narrowed := im.index != nil && (opt == nil || !opt.Exhaustive)
	if narrowed {
		lists := make([]candidateList, 0, len(cqs))
		for _, cq := range cqs {
			cands, ok := im.index.CandidateIndices(cq.Q.Procs[cq.QI].Set, s.MinScore, s.MinRatio, nil)
			if ok {
				lists = append(lists, candidateList{cq, cands})
			} else {
				narrowed = false
			}
		}
		// Batches are small, so the lookup is a scan, not a map.
		s.Prefilter = func(q *sim.Exe, qi int, _ []*sim.Exe) ([]int, bool) {
			for _, l := range lists {
				if l.query.Q == q && l.query.QI == qi {
					return l.cands, true
				}
			}
			return nil, false
		}
		if narrowed && im.store != nil {
			return im.materializeCandidates(lists, s)
		}
	}
	if err := im.ensureAll(); err != nil {
		return nil, err
	}
	return im.targets, nil
}

// SearchImageDetailed looks for the query executable's procedure in
// every executable of one sealed image, with the search accounting
// exposed. The result is identical to the live Analyzer's
// SearchImageDetailed over the image this one was sealed from.
func (sc *SealedCorpus) SearchImageDetailed(query *Executable, procedure string, img *SealedImage, opt *Options) (*SearchResult, error) {
	qi := query.exe.ProcByName(procedure)
	if qi < 0 {
		return nil, fmt.Errorf("firmup: query executable has no procedure %q", procedure)
	}
	return sc.searchImageIdx(query, qi, img, opt, opt.traceSpan())
}

// searchImageIdx runs one resolved query procedure against one image,
// in-RAM or store-backed alike. parent is the trace span the search
// spans attach under — the caller's TraceSpan for direct searches, the
// per-shard span inside a corpus-wide fan-out.
func (sc *SealedCorpus) searchImageIdx(query *Executable, qi int, img *SealedImage, opt *Options, parent telemetry.SpanID) (*SearchResult, error) {
	s := opt.search()
	s.TraceParent = parent
	targets, err := img.plan([]core.BatchQuery{{Q: query.exe, QI: qi}}, s, opt)
	if err != nil {
		return nil, err
	}
	return searchResultFromCore(core.Search(query.exe, qi, targets, s)), nil
}

// SearchBatch looks for every batch query in one sealed image in a
// single batched game-engine pass (see Analyzer.SearchBatch). Results
// align with queries and are byte-identical to per-query
// SearchImageDetailed calls against this sealed image — and therefore
// to the live session the image was sealed from.
func (sc *SealedCorpus) SearchBatch(queries []BatchQuery, img *SealedImage, opt *Options) ([]*SearchResult, error) {
	cqs, err := coreBatch(queries)
	if err != nil {
		return nil, err
	}
	return sc.searchBatchCore(cqs, img, opt, opt.traceSpan())
}

// searchBatchCore is SearchBatch after query resolution, shared with
// the corpus-wide fan-out so resolution runs once per corpus pass: one
// candidate plan for the whole batch, then one shared-matcher
// core.SearchBatch over its targets.
func (sc *SealedCorpus) searchBatchCore(cqs []core.BatchQuery, img *SealedImage, opt *Options, parent telemetry.SpanID) ([]*SearchResult, error) {
	s := opt.search()
	s.TraceParent = parent
	targets, err := img.plan(cqs, s, opt)
	if err != nil {
		return nil, err
	}
	res := core.SearchBatch(cqs, targets, s)
	out := make([]*SearchResult, len(res))
	for i := range res {
		out[i] = searchResultFromCore(res[i])
	}
	return out, nil
}

// SearchImage looks for the query executable's procedure in every
// executable of one sealed image.
func (sc *SealedCorpus) SearchImage(query *Executable, procedure string, img *SealedImage, opt *Options) ([]Finding, error) {
	res, err := sc.SearchImageDetailed(query, procedure, img, opt)
	if err != nil {
		return nil, err
	}
	return res.Findings, nil
}

// ImageFindings is one sealed image's outcome of a corpus-wide search.
type ImageFindings struct {
	Vendor   string    `json:"vendor"`
	Device   string    `json:"device"`
	Version  string    `json:"version"`
	Findings []Finding `json:"findings"`
	Examined int       `json:"examined"`
}

// SearchAll runs the query against every image of the corpus in seal
// order. On a sharded corpus the shards are searched in parallel; the
// merged result is index-for-index identical to the sequential pass —
// per-image searches share no mutable state, so fan-out order cannot
// influence findings, examined counts or step histograms.
func (sc *SealedCorpus) SearchAll(query *Executable, procedure string, opt *Options) ([]ImageFindings, error) {
	qi := query.exe.ProcByName(procedure)
	if qi < 0 {
		return nil, fmt.Errorf("firmup: query executable has no procedure %q", procedure)
	}
	out := make([]ImageFindings, len(sc.images))
	err := sc.fanOut(opt.trace(), opt.traceSpan(), func(i int, parent telemetry.SpanID) error {
		img := sc.images[i]
		res, err := sc.searchImageIdx(query, qi, img, opt, parent)
		if err != nil {
			return err
		}
		out[i] = ImageFindings{
			Vendor:   img.Vendor,
			Device:   img.Device,
			Version:  img.Version,
			Findings: res.Findings,
			Examined: res.Examined,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// fanOut fills per-image results for every image of the corpus: one
// sequential pass when the corpus is a single range (in-RAM), one
// goroutine per shard otherwise, merged by global image index. The
// first error in shard order wins. When the corpus is sharded and a
// trace is attached, each shard's pass runs under its own
// "corpus.shard" span (shard index + image count attributes), so a
// slow request attributes its latency to the shard that caused it;
// fill receives the span it should parent its own spans under.
func (sc *SealedCorpus) fanOut(tr *telemetry.Trace, parent telemetry.SpanID, fill func(i int, parent telemetry.SpanID) error) error {
	ranges := sc.shardRanges()
	if len(ranges) == 1 {
		r := ranges[0]
		for i := r[0]; i < r[0]+r[1]; i++ {
			if err := fill(i, parent); err != nil {
				return err
			}
		}
		return nil
	}
	workers := min(len(ranges), runtime.GOMAXPROCS(0))
	sem := make(chan struct{}, workers)
	errs := make([]error, len(ranges))
	var wg sync.WaitGroup
	for ri, r := range ranges {
		wg.Add(1)
		go func(ri int, r [2]int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			shardParent := parent
			if tr != nil {
				sp := tr.Start("corpus.shard", parent)
				sp.SetAttr("shard", int64(ri))
				sp.SetAttr("images", int64(r[1]))
				defer sp.End()
				shardParent = sp.ID()
			}
			for i := r[0]; i < r[0]+r[1]; i++ {
				if err := fill(i, shardParent); err != nil {
					errs[ri] = err
					return
				}
			}
		}(ri, r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// SearchAllBatch runs every batch query against every image of the
// corpus in seal order, one batched game-engine pass per image. The
// outer result dimension aligns with queries, the inner with Images();
// each entry is byte-identical to the corresponding sequential
// SearchAll call. This is the serve path's coalesced form: concurrent
// requests against one corpus share each image's target pass instead of
// replaying it per request.
func (sc *SealedCorpus) SearchAllBatch(queries []BatchQuery, opt *Options) ([][]ImageFindings, error) {
	cqs, err := coreBatch(queries)
	if err != nil {
		return nil, err
	}
	out := make([][]ImageFindings, len(queries))
	for qx := range queries {
		out[qx] = make([]ImageFindings, len(sc.images))
	}
	err = sc.fanOut(opt.trace(), opt.traceSpan(), func(i int, parent telemetry.SpanID) error {
		img := sc.images[i]
		res, err := sc.searchBatchCore(cqs, img, opt, parent)
		if err != nil {
			return err
		}
		for qx, r := range res {
			out[qx][i] = ImageFindings{
				Vendor:   img.Vendor,
				Device:   img.Device,
				Version:  img.Version,
				Findings: r.Findings,
				Examined: r.Examined,
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// MatchProcedure runs the back-and-forth game for one query procedure
// against a single sealed executable.
func (sc *SealedCorpus) MatchProcedure(query *Executable, procedure string, target *Executable, opt *Options) (*Finding, int, error) {
	f, r, err := matchTracedCore(nil, query, procedure, target, opt, false)
	if err != nil {
		return nil, 0, err
	}
	return f, r.Steps, nil
}

// MatchProcedureTraced is MatchProcedure with the full game course
// recorded, for sealed targets. Traces are identical to the live
// session's for the same query/target pair.
func (sc *SealedCorpus) MatchProcedureTraced(query *Executable, procedure string, target *Executable, opt *Options) (*Finding, *GameTrace, error) {
	f, r, err := matchTracedCore(nil, query, procedure, target, opt, true)
	if err != nil {
		return nil, nil, err
	}
	return f, traceFromResult(r), nil
}

// Save serializes the sealed corpus into the FWCORP artifact: one
// shared frozen vocabulary plus every image's executables and index, so
// a serving process cold-starts by LoadSealedCorpus instead of
// re-analyzing firmware.
func (sc *SealedCorpus) Save() ([]byte, error) {
	c := &snapshot.Corpus{Interner: sc.frozen.Vocab()}
	for i := range sc.images {
		ci, err := sc.imageModel(i)
		if err != nil {
			return nil, err
		}
		c.Images = append(c.Images, ci)
	}
	return snapshot.EncodeCorpus(c)
}

// exeToModel serializes one sealed executable into the snapshot model.
func exeToModel(path string, e *sim.Exe) snapshot.Exe {
	se := snapshot.Exe{Path: path, Arch: uint8(e.Arch), Stripped: e.Stripped}
	for _, p := range e.Procs {
		sp := snapshot.Proc{
			Name:       p.Name,
			Addr:       p.Addr,
			Exported:   p.Exported,
			IDs:        p.Set.IDs,
			Markers:    p.Markers,
			BlockCount: p.BlockCount,
			EdgeCount:  p.EdgeCount,
			InstCount:  p.InstCount,
		}
		for _, c := range p.Calls {
			sp.Calls = append(sp.Calls, int32(c))
		}
		se.Procs = append(se.Procs, sp)
	}
	return se
}

// LoadSealedCorpus reconstructs a sealed corpus from a Save artifact.
// No live session is involved: the saved vocabulary restores directly
// into a frozen interner, the saved dense-ID sets and indexes are valid
// in its ID space verbatim, and the result serves queries exactly like
// the corpus that was saved. Unreadable input fails with an error
// wrapping ErrSnapshotCorrupt.
func LoadSealedCorpus(data []byte) (*SealedCorpus, error) {
	c, err := snapshot.DecodeCorpus(data)
	if err != nil {
		return nil, err
	}
	frozen, err := corpusindex.FrozenFromVocab(c.Interner)
	if err != nil {
		return nil, err
	}
	sc := &SealedCorpus{frozen: frozen}
	for ii := range c.Images {
		ci := &c.Images[ii]
		si := &SealedImage{Vendor: ci.Vendor, Device: ci.Device, Version: ci.Version}
		for _, s := range ci.Skipped {
			si.Skipped = append(si.Skipped, SkipReason{Path: s.Path, Err: errors.New(s.Err)})
		}
		for ei := range ci.Exes {
			se := &ci.Exes[ei]
			procs := make([]*sim.Proc, len(se.Procs))
			for pi := range se.Procs {
				procs[pi] = loadFrozenProc(&se.Procs[pi], c.Interner, frozen)
			}
			for i, p := range procs {
				for _, cl := range p.Calls {
					procs[cl].CalledBy = append(procs[cl].CalledBy, i)
				}
			}
			e := sim.FromProcsSession(se.Path, procs, frozen)
			e.Arch = uir.Arch(se.Arch)
			e.Stripped = se.Stripped
			si.Exes = append(si.Exes, &Executable{Path: se.Path, exe: e})
			si.targets = append(si.targets, e)
		}
		si.nExes = len(si.Exes)
		if ci.Index != nil {
			rows := make([]corpusindex.Row, len(ci.Index))
			for i, r := range ci.Index {
				rows[i] = corpusindex.Row{ID: r.ID, Posts: postsFromModel(r.Posts)}
			}
			idx, err := corpusindex.NewFrozenIndex(frozen, si.targets, rows)
			if err != nil {
				return nil, err
			}
			si.index = idx
		}
		sc.images = append(sc.images, si)
	}
	return sc, nil
}

// loadFrozenProc rebuilds one procedure in the frozen ID space: the
// saved dense IDs are the frozen IDs themselves, and the hashes are
// recovered through the vocabulary. The set binds to the frozen
// interner directly, so no Intern call ever runs during load.
func loadFrozenProc(sp *snapshot.Proc, vocab []uint64, frozen *corpusindex.Frozen) *sim.Proc {
	ids := append([]uint32(nil), sp.IDs...)
	hashes := make([]uint64, len(sp.IDs))
	for k, id := range sp.IDs {
		hashes[k] = vocab[id]
	}
	// Set invariant: Hashes sorted ascending (IDs already are).
	sort.Slice(hashes, func(i, j int) bool { return hashes[i] < hashes[j] })
	p := &sim.Proc{
		Name:       sp.Name,
		Addr:       sp.Addr,
		Exported:   sp.Exported,
		Set:        strand.Set{Hashes: hashes, IDs: ids, It: frozen},
		Markers:    sp.Markers,
		BlockCount: sp.BlockCount,
		EdgeCount:  sp.EdgeCount,
		InstCount:  sp.InstCount,
	}
	for _, c := range sp.Calls {
		p.Calls = append(p.Calls, int(c))
	}
	return p
}
