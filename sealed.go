package firmup

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"firmup/internal/core"
	"firmup/internal/corpusindex"
	"firmup/internal/obj"
	"firmup/internal/sim"
	"firmup/internal/snapshot"
	"firmup/internal/strand"
	"firmup/internal/telemetry"
)

// SealedCorpus is the immutable, serve-oriented form of an analysis
// session, and the only one that searches: a frozen strand vocabulary
// plus every sealed image's executables, re-expressed as read-only views.
// The query path — AnalyzeQuery through SearchAll — performs no writes to
// the corpus:
// query executables are analyzed under per-request overlay interners
// whose private IDs sit above the frozen vocabulary, so their sets remain
// directly comparable with sealed sets while the corpus itself is
// shared, lock-free, by unlimited concurrent readers.
//
// The same executable ships in image after image, so a sealed corpus
// holds each distinct executable once, under a corpus-wide ID, and per
// image a list of occurrences (path, executable ID). Every corpus is
// read from FWCORP shard bytes — the one shard Seal encodes in memory, or
// the shard files OpenSealedCorpus maps — and its executables are split
// into groups, one per shard: the contiguous ID range the shard stores,
// materialized from it. One inverted index covers them all. A search is
// one pass: it scans each query once, materializes each candidate from
// its shard, plays each (query, distinct candidate) once, and fans the
// outcome out to every occurrence. Split into any number of shards, a
// corpus answers every search with the same findings and examined counts.
type SealedCorpus struct {
	frozen *corpusindex.Frozen
	images []*SealedImage
	// groups hold the distinct executables, one per shard.
	groups exeStore
	// index covers every distinct executable, numbered by corpus ID. It is
	// built on the first search that scans (ensureIndex), under idxMu.
	index atomic.Pointer[corpusIndex]
	idxMu sync.Mutex
	spare budget // the worker tokens every call borrows from (Options.Workers)
	// root is the span query analysis and search record under when their
	// caller passes none (see SetTelemetry).
	root telemetry.Span
}

// corpusIndex is a corpus's index and, by group, the error reading the
// group's strand sets for it returned: such a group's executables are
// indexed without procedures, and a search whose scope holds one of them
// fails with that error.
type corpusIndex struct {
	x    *corpusindex.FrozenIndex
	errs []error
}

// sealedGroup is one shard's share of a corpus: the range of distinct
// executables the shard stores, which a search materializes from it and
// blames the shard's corruption on.
type sealedGroup struct {
	base, n int // the group holds executables [base, base+n) of its store
	// frozen is the corpus vocabulary the executables are bound to.
	frozen *corpusindex.Frozen

	// The shard that stores the executables, the path errors name it by,
	// and one materialize-once slot per executable. Materialized ones
	// carry no path: findings take theirs from the occurrence.
	shard *snapshot.CorpusShard
	path  string
	lazy  []lazyExe
	// corrupt is the first corruption error a read returned, as text
	// (recoverCorrupt).
	corrupt atomic.Pointer[string]
}

// SealedImage is one firmware image of a sealed corpus: its identity
// and its executables, each an occurrence of one of the corpus's distinct
// executables under the image's own path.
type SealedImage struct {
	Vendor  string
	Device  string
	Version string
	// Skipped carries the analysis-time skip diagnostics, each error as
	// the text the shard stores.
	Skipped []SkipReason

	store exeStore // the corpus's, which holds what occs name
	occs  []snapshot.Occurrence
}

// Executable returns the sealed executable with the given in-image
// path, or nil. This materializes it from its shard; nil is also
// returned if the shard fails to decode.
func (im *SealedImage) Executable(path string) *Executable {
	for _, oc := range im.occs {
		if oc.Path == path {
			e, err := im.store.exe(oc.Exe)
			if err != nil {
				return nil
			}
			return &Executable{Path: path, exe: e}
		}
	}
	return nil
}

// Options tune the search engine. The zero value selects the defaults
// used throughout the evaluation.
type Options struct {
	// MinScore is the minimum number of shared canonical strands for a
	// detection (default 8).
	MinScore int
	// MinRatio is the minimum fraction of the query's strands that must
	// be shared (default 0.42).
	MinRatio float64
	// Workers bounds a call's goroutines: its caller's and at most
	// Workers−1 the corpus lends without waiting (default GOMAXPROCS).
	Workers int
	// Exhaustive disables the corpus-index prefilter for this search:
	// every executable in scope is examined. Findings are identical; only
	// the work done differs.
	Exhaustive bool
	// Span, when set, is the span a query analysis or a search runs
	// under: their layers open theirs (the front end's parse, recovery
	// and build; store materialization and the core search) as
	// its children, each feeding the stage of its name and its counters
	// in the span's registry and, under a sampled request, the request's
	// tree. Unset, the corpus's own root span stands in (see
	// SealedCorpus.SetTelemetry). Purely observational — output is
	// byte-identical with and without it. The zero Span records nothing
	// at zero cost.
	Span telemetry.Span
}

func (o *Options) span() telemetry.Span {
	if o == nil {
		return telemetry.Span{}
	}
	return o.Span
}

func (o *Options) workers() int {
	if o == nil || o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// search is the core form of o; core supplies the defaults.
func (o *Options) search() *core.SearchOptions {
	if o == nil {
		return &core.SearchOptions{}
	}
	return &core.SearchOptions{MinScore: o.MinScore, MinRatio: o.MinRatio}
}

// Finding reports one detection of the query procedure. The JSON field
// names are part of the firmupd response schema.
type Finding struct {
	// ExePath locates the containing executable within the image.
	ExePath string `json:"exe_path"`
	// ProcName is the matched procedure's recovered name (sub_<addr> in
	// stripped binaries).
	ProcName string `json:"proc_name"`
	// ProcAddr is its entry address — the "exact location" the paper's
	// stripped-search findings provide.
	ProcAddr uint32 `json:"proc_addr"`
	// Score is Sim(query, match): the number of shared canonical strands.
	Score int `json:"score"`
	// Confidence is Score over the query's strand count.
	Confidence float64 `json:"confidence"`
	// GameSteps is the number of back-and-forth iterations needed.
	GameSteps int `json:"game_steps"`
}

// SearchResult pairs an image search's findings with its accounting.
type SearchResult struct {
	Findings []Finding
	// Examined is the number of executables the search considered — every
	// executable the corpus-index prefilter kept, usually well below the
	// image's executable count; a game is played against those of them that hold a
	// procedure the search could accept.
	Examined int
}

// BatchQuery names one query procedure of a batched search.
type BatchQuery struct {
	// Query is the analyzed query executable.
	Query *Executable
	// Procedure is the query procedure's name within it.
	Procedure string
}

// coreBatch resolves the facade batch queries to core form, rejecting
// queries the corpus did not analyse (checkQuery) and unknown procedure
// names with the same errors MatchProcedure reports.
func (sc *SealedCorpus) coreBatch(queries []BatchQuery) ([]core.BatchQuery, error) {
	out := make([]core.BatchQuery, len(queries))
	for i, bq := range queries {
		if err := sc.checkQuery(bq.Query); err != nil {
			return nil, err
		}
		qi := bq.Query.exe.ProcByName(bq.Procedure)
		if qi < 0 {
			return nil, fmt.Errorf("firmup: query executable has no procedure %q", bq.Procedure)
		}
		out[i] = core.BatchQuery{Q: bq.Query.exe, QI: qi}
	}
	return out, nil
}

// exeStore is a corpus's distinct executables, numbered from 0 and split
// into groups: contiguous ID ranges in ID order, one per shard. Seal
// numbers the session's distinct analyses in first-sight order, one per
// byte string however many images ship it; WriteShards renumbers them
// shard by shard, after cutting them into shards by package, so a
// reopened corpus's ranges are still contiguous.
type exeStore []*sealedGroup

// size is the distinct executable count.
func (st exeStore) size() int {
	n := 0
	for _, g := range st {
		n += g.n
	}
	return n
}

// group returns the group holding executable u.
func (st exeStore) group(u int) *sealedGroup {
	return st[sort.Search(len(st), func(i int) bool { return st[i].base+st[i].n > u })]
}

// exe returns executable u, materialized by the group holding it.
func (st exeStore) exe(u int) (*sim.Exe, error) {
	g := st.group(u)
	return g.exe(u - g.base)
}

// Seal freezes the session's current state into an immutable corpus
// over the given images: the corpus that searches them. The frozen
// vocabulary numbers each strand by its hash's rank, not by the ID the
// session's interner gave it in the order analysis met it, so what Seal
// encodes does not depend on how analysis was scheduled. An executable
// is the byte string the session analysed it from: every sighting of one
// holds the same analysis (OpenImage), so the images' distinct
// executables are their distinct analyses, numbered in first-sight order
// and encoded, their strand sets renumbered, with the frozen vocabulary
// as the one shard of a 1-shard corpus, held in memory and read like a
// shard file — the corpus aliases nothing of the session, and the
// Analyzer and its images stay fully usable afterwards.
// WriteShards keeps that numbering for one shard and renumbers for more,
// where it cuts the executables into shards by package. The corpus lends the session's worker
// tokens, and is indexed on its first search, not here.
//
// Every image must have been analyzed (or loaded) under this session;
// an executable from another session has incomparable dense IDs and is
// rejected.
func (a *Analyzer) Seal(images ...*Image) (*SealedCorpus, error) {
	vocab, rank := a.interner.Sorted()
	c := &snapshot.Corpus{}
	ids := map[*sim.Exe]int{} // each distinct executable's number
	for ii, img := range images {
		ci := snapshot.CorpusImage{Vendor: img.Vendor, Device: img.Device, Version: img.Version, Skipped: skipsToModel(img.Skipped)}
		for _, e := range img.Exes {
			if e.exe.Session() != strand.Interner(a.interner) {
				return nil, fmt.Errorf("firmup: Seal: image %d executable %s was not analyzed under this session", ii, e.Path)
			}
			ref, ok := ids[e.exe]
			if !ok {
				ref = len(c.Exes)
				ids[e.exe] = ref
				c.Exes = append(c.Exes, exeToModel(e.exe, rank))
			}
			ci.Occs = append(ci.Occs, snapshot.Occurrence{Path: e.Path, Exe: ref})
		}
		c.Images = append(c.Images, ci)
	}
	enc, err := snapshot.EncodeVocab(vocab)
	if err != nil {
		return nil, err
	}
	data, err := enc.EncodeShard(c, snapshot.ShardHeader{ShardCount: 1, TotalImages: len(c.Images), TotalExes: len(c.Exes)})
	if err != nil {
		return nil, err
	}
	shard, err := snapshot.OpenCorpusShardBytes(data)
	if err != nil {
		return nil, err
	}
	sc, err := sealedFromShards([]*snapshot.CorpusShard{shard}, []string{sealedShardPath})
	if err != nil {
		return nil, err
	}
	sc.spare = a.spare
	return sc, nil
}

// Images returns the sealed images in seal order. The slice is shared;
// treat it as read-only.
func (sc *SealedCorpus) Images() []*SealedImage { return sc.images }

// UniqueStrands reports the frozen vocabulary size.
func (sc *SealedCorpus) UniqueStrands() int { return sc.frozen.Size() }

// SetTelemetry attaches the corpus to a registry: its root becomes the
// span query analysis and search record under when their Options carry
// no Span. Query analysis then records the front end layer by layer —
// obj.parse, cfg.recover / cfg.sweep and the cfg counters, sim.build
// (which lifts each procedure as it extracts it) / sim.procs, and
// strand.blocks / strand.strands — and a search its core.search (and
// store.materialize) stages, the prefilter's index.queries,
// index.postings and index.fanout and the game engine's game.*, search.*
// and batch.* metrics. Call before serving. A nil registry detaches.
func (sc *SealedCorpus) SetTelemetry(r *telemetry.Registry) {
	sc.root = telemetry.Root(r, nil)
}

// Executables reports the total executable count across all images,
// every occurrence counted. Cheap: counts come from shard metadata, not
// materialization.
func (sc *SealedCorpus) Executables() int {
	n := 0
	for _, im := range sc.images {
		n += len(im.occs)
	}
	return n
}

// UniqueExecutables reports how many executables the corpus stores: the
// distinct ones, each once however many images and shards there are.
func (sc *SealedCorpus) UniqueExecutables() int { return sc.groups.size() }

// AnalyzeQuery analyzes one FWELF binary for querying this sealed
// corpus, with opt's Workers as its procedure-level worker budget and
// under opt's Span (nil selects the defaults). The analysis runs under a
// request-private overlay of the frozen vocabulary: strands the corpus
// knows resolve to their frozen IDs, novel strands get private IDs above
// the vocabulary, and nothing in the corpus is written. The returned
// executable queries this corpus only: its private IDs mean nothing to
// another, which refuses it.
//
// The front-end layers are timed as children of the span (obj.parse,
// cfg.recover, sim.build), so a traced request sees where its analysis
// went; without one they record under the corpus's root (see
// SetTelemetry).
func (sc *SealedCorpus) AnalyzeQuery(data []byte, opt *Options) (*Executable, error) {
	return sc.analyzeQuery("query", data, opt)
}

// AnalyzeQueryWith is AnalyzeQuery with the executable labelled path and
// a worker budget of workers.
func (sc *SealedCorpus) AnalyzeQueryWith(path string, data []byte, workers int) (*Executable, error) {
	return sc.analyzeQuery(path, data, &Options{Workers: workers})
}

// analyzeQuery looks every strand of the query up in the frozen
// vocabulary, which reads shard 0's mapping, on the caller's goroutine and
// the build's workers (sim.BuildWith re-raises a worker's panic here). A
// memory fault there — shard 0 truncated under the process — is that
// shard's corruption, and fails the analysis with its error; any other
// panic is not the shard's, and goes on up.
func (sc *SealedCorpus) analyzeQuery(path string, data []byte, opt *Options) (e *Executable, err error) {
	defer func() {
		if r := recover(); r != nil {
			if _, fault := r.(interface{ Addr() uintptr }); !fault {
				panic(r)
			}
			e = nil
			sc.groups[0].blame("corpus-vocab", r, &err)
		}
	}()
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	sp := opt.span().Or(sc.root)
	f, err := obj.ReadWith(data, sp)
	if err != nil {
		return nil, err
	}
	return analyze(path, f, corpusindex.NewQueryInterner(sc.frozen), opt.workers(), sc.spare, sp)
}

// scansPool recycles the per-query scan results (candidate lists and
// similarity vectors) across search passes.
var scansPool = sync.Pool{New: func() any { return new(corpusindex.Scans) }}

// search is the one search pass there is: every query against the
// distinct executables that occur in imgs — all of the corpus's for a
// corpus-wide search, one image's for a per-image search — and the
// outcome fanned out to the occurrences of imgs, timed under parent. The
// result is indexed [image][query].
//
// Each query's candidates are resolved exactly once, by one posting scan
// of the corpus index over the scope, and everything the scan computed is
// used: the candidate list selects what is materialized, each candidate
// from the shard that stores it (so peak RSS tracks the working set), and
// is the list the games run on, and the per-procedure counts behind it
// are each game's first similarity vector, from which the game engine
// also reads off whether a candidate can be accepted at all. An
// exhaustive search examines every executable in scope. The acceptance
// floors are baked into the lists, so the narrowing stays sound (see
// FrozenIndex.Scan). The scans and then the games, each (query,
// executable) once in one core.PlayBatch, run on the caller's goroutine
// and those the corpus lends; parent is told the games planned
// (unique_candidates) and the occurrences they stood for (occurrences).
//
// Since candidacy is a property of the executable alone, an image gets
// exactly the findings and examined count a search of it on its own
// would produce.
//
// A shard stays the unit of corruption. A search fails with a shard's
// error when its scope holds an executable of a shard whose strand sets
// the index could not read, when a candidate the shard stores fails to
// materialize, or when a game panics on a target the shard stores — a
// fault on a shard truncated under the process (recoverCorrupt).
func (sc *SealedCorpus) search(cqs []core.BatchQuery, imgs []*SealedImage, opt *Options, parent telemetry.Span) (res [][]*SearchResult, err error) {
	// A shard truncated under the process faults the read that touches
	// it; a game's fault comes back from PlayBatch as a core.TargetPanic.
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			tp, ok := r.(core.TargetPanic)
			if !ok {
				panic(r)
			}
			res = nil
			sc.groups.group(tp.Target).blame("search", tp.Value, &err)
		}
	}()
	// uses[u] counts the occurrences of executable u in imgs.
	total := sc.groups.size()
	uses := make([]int32, total)
	inScope := make([]bool, total)
	for _, im := range imgs {
		for _, oc := range im.occs {
			uses[oc.Exe]++
			inScope[oc.Exe] = true
		}
	}
	s := opt.search()
	s.Span = parent
	// plans[qx] lists the executables query qx is played against — all of
	// scope when exhaustive, else its candidates in scope with their
	// scanned vectors, which a pooled Scans of the query's own holds until
	// the games are over. An exhaustive pass, which scans nothing, draws
	// them too, so its registry lists the prefilter's metrics either way.
	scans := make([]*corpusindex.Scans, len(cqs))
	for qx := range scans {
		scans[qx] = scansPool.Get().(*corpusindex.Scans)
		scans[qx].Reset(parent)
		defer scansPool.Put(scans[qx])
	}
	plans := make([]core.Plan, len(cqs))
	if opt == nil || !opt.Exhaustive {
		x, err := sc.ensureIndex(inScope)
		if err != nil {
			return nil, err
		}
		minScore, minRatio := s.Floors()
		// The scans share nothing but the index, so a batch's run on the
		// workers the corpus lends.
		sc.spare.fan(len(cqs), opt.workers(), func(qx int) {
			q, out := cqs[qx], scans[qx]
			x.Scan(q.Q.Procs[q.QI].Set, minScore, minRatio, inScope, out)
			plans[qx] = core.Plan{Targets: out.Exes, Off: out.Off, Vec: out.Vecs}
		})
	} else {
		var scope []int
		for u, ok := range inScope {
			if ok {
				scope = append(scope, u)
			}
		}
		for qx := range plans {
			plans[qx].Targets = scope
		}
	}
	// played[qx] marks the executables query qx is played against: the
	// ones that count toward an occurrence's Examined.
	played := make([][]bool, len(cqs))
	games, occurrences := 0, 0
	for qx, p := range plans {
		played[qx] = make([]bool, total)
		for _, u := range p.Targets {
			played[qx][u] = true
			occurrences += int(uses[u])
		}
		games += len(p.Targets)
	}
	targets, err := sc.groups.targets(played, parent)
	if err != nil {
		return nil, err
	}
	lent := sc.spare.lend(min(opt.workers(), games) - 1)
	defer sc.spare.release(lent)
	s.Workers = 1 + lent
	found := core.PlayBatch(cqs, targets, plans, s)
	parent.SetAttr("unique_candidates", int64(games))
	parent.SetAttr("occurrences", int64(occurrences))

	res = make([][]*SearchResult, len(imgs))
	for ii, im := range imgs {
		res[ii] = make([]*SearchResult, len(cqs))
		for qx := range cqs {
			r := &SearchResult{Findings: []Finding{}}
			for _, oc := range im.occs {
				if !played[qx][oc.Exe] {
					continue
				}
				r.Examined++
				if f := found[qx][oc.Exe]; f != nil {
					r.Findings = append(r.Findings, Finding{
						ExePath:    oc.Path,
						ProcName:   f.ProcName,
						ProcAddr:   f.ProcAddr,
						Score:      f.Score,
						Confidence: f.Ratio,
						GameSteps:  f.Steps,
					})
				}
			}
			slices.SortFunc(r.Findings, func(a, b Finding) int { return strings.Compare(a.ExePath, b.ExePath) })
			res[ii][qx] = r
		}
	}
	return res, nil
}

// SearchImageDetailed looks for the query executable's procedure in
// every executable of one sealed image, with the search accounting
// exposed: one pass over the image's executables.
func (sc *SealedCorpus) SearchImageDetailed(query *Executable, procedure string, img *SealedImage, opt *Options) (*SearchResult, error) {
	cqs, err := sc.coreBatch([]BatchQuery{{Query: query, Procedure: procedure}})
	if err != nil {
		return nil, err
	}
	if img.store[0] != sc.groups[0] {
		return nil, fmt.Errorf("firmup: image %s %s %s is not sealed in this corpus", img.Vendor, img.Device, img.Version)
	}
	res, err := sc.search(cqs, []*SealedImage{img}, opt, opt.span().Or(sc.root))
	if err != nil {
		return nil, err
	}
	return res[0][0], nil
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
// order: SearchAllBatch with a batch of one.
func (sc *SealedCorpus) SearchAll(query *Executable, procedure string, opt *Options) ([]ImageFindings, error) {
	res, err := sc.SearchAllBatch([]BatchQuery{{Query: query, Procedure: procedure}}, opt)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// SearchAllBatch runs every batch query against every image of the
// corpus in one search pass, each distinct executable scanned and played
// once however many images ship it. The outer result dimension aligns
// with queries, the inner with Images(); each entry is byte-identical to
// the corresponding per-image search.
func (sc *SealedCorpus) SearchAllBatch(queries []BatchQuery, opt *Options) ([][]ImageFindings, error) {
	cqs, err := sc.coreBatch(queries)
	if err != nil {
		return nil, err
	}
	res, err := sc.search(cqs, sc.images, opt, opt.span().Or(sc.root))
	if err != nil {
		return nil, err
	}
	out := make([][]ImageFindings, len(queries))
	for qx := range queries {
		out[qx] = make([]ImageFindings, len(sc.images))
		for ii, im := range sc.images {
			r := res[ii][qx]
			out[qx][ii] = ImageFindings{
				Vendor:   im.Vendor,
				Device:   im.Device,
				Version:  im.Version,
				Findings: r.Findings,
				Examined: r.Examined,
			}
		}
	}
	return out, nil
}

// MatchProcedure runs the back-and-forth game for one query procedure
// against a single sealed executable, returning the finding (nil when
// the target does not appear to contain the procedure) and the number of
// game steps played.
func (sc *SealedCorpus) MatchProcedure(query *Executable, procedure string, target *Executable, opt *Options) (*Finding, int, error) {
	f, r, err := sc.matchTraced(query, procedure, target, opt, false)
	if err != nil {
		return nil, 0, err
	}
	return f, r.Steps, nil
}

// TraceStep is one player/rival exchange of a recorded game course
// (Table 1 of the paper).
type TraceStep struct {
	Actor   string `json:"actor"` // "player" or "rival"
	Text    string `json:"text"`
	Matches string `json:"matches"`
}

// GameTrace is the full course of one back-and-forth game in a
// JSON-encodable form: the outcome plus every recorded exchange.
type GameTrace struct {
	// Target is the matched procedure's index in the target executable,
	// or -1 when the game produced no match.
	Target int `json:"target"`
	// Score is Sim(query, Target); 0 without a match.
	Score int `json:"score"`
	// Steps counts game iterations (1 = the first pick already agreed).
	Steps int `json:"steps"`
	// MatchedPairs is the partial matching built along the way as
	// (query procedure index, target procedure index) pairs.
	MatchedPairs [][2]int `json:"matched_pairs,omitempty"`
	// Reason is the game's end reason: "matched", "no-candidate",
	// "stuck", "step-limit" or "match-limit".
	Reason string `json:"reason"`
	// Trace is the recorded game course.
	Trace []TraceStep `json:"trace,omitempty"`
}

// MatchProcedureTraced is MatchProcedure with the full game course
// recorded and returned as a JSON-encodable trace.
func (sc *SealedCorpus) MatchProcedureTraced(query *Executable, procedure string, target *Executable, opt *Options) (*Finding, *GameTrace, error) {
	f, r, err := sc.matchTraced(query, procedure, target, opt, true)
	if err != nil {
		return nil, nil, err
	}
	return f, traceFromResult(r), nil
}

// traceFromResult converts a game result into its JSON-encodable trace.
func traceFromResult(r core.Result) *GameTrace {
	gt := &GameTrace{
		Target:       r.Target,
		Score:        r.Score,
		Steps:        r.Steps,
		MatchedPairs: r.MatchedPairs,
		Reason:       r.Reason.String(),
	}
	for _, ts := range r.Trace {
		gt.Trace = append(gt.Trace, TraceStep{Actor: ts.Actor, Text: ts.Text, Matches: ts.Matches})
	}
	return gt
}

// checkQuery refuses a query the corpus did not analyse. Similarity is
// counted over dense strand IDs, which mean the same strand only under
// the corpus's frozen vocabulary: a query passes when it was analysed
// under an overlay of that vocabulary (AnalyzeQuery) or is one of the
// corpus's own sealed executables.
func (sc *SealedCorpus) checkQuery(x *Executable) error {
	switch it := x.exe.Session().(type) {
	case *corpusindex.Frozen:
		if it == sc.frozen {
			return nil
		}
	case *corpusindex.QueryInterner:
		if it.BaseInterner() == sc.frozen {
			return nil
		}
	}
	return fmt.Errorf("firmup: query executable %s was not analysed by this corpus: analyse it with the corpus's AnalyzeQuery", x.Path)
}

// matchTraced is the MatchProcedure body; recordTrace selects whether
// the game course is captured. The target must be one of the corpus's
// sealed executables.
func (sc *SealedCorpus) matchTraced(query *Executable, procedure string, target *Executable, opt *Options, recordTrace bool) (*Finding, core.Result, error) {
	if err := sc.checkQuery(query); err != nil {
		return nil, core.Result{}, err
	}
	if target.exe.Session() != strand.Interner(sc.frozen) {
		return nil, core.Result{}, fmt.Errorf("firmup: target executable %s is not sealed in this corpus", target.Path)
	}
	qi := query.exe.ProcByName(procedure)
	if qi < 0 {
		return nil, core.Result{}, fmt.Errorf("firmup: query executable has no procedure %q", procedure)
	}
	s := opt.search()
	s.Game.RecordTrace = recordTrace
	f, r := core.MatchOne(query.exe, qi, target.exe, s)
	if f == nil {
		return nil, r, nil
	}
	// A sealed target's path belongs to the occurrence, not the shared
	// executable under it.
	return &Finding{
		ExePath:    target.Path,
		ProcName:   f.ProcName,
		ProcAddr:   f.ProcAddr,
		Score:      f.Score,
		Confidence: f.Ratio,
		GameSteps:  f.Steps,
	}, r, nil
}

// exeToModel serializes one analysed executable into the snapshot model,
// each of its session's strand IDs renumbered as rank gives it and each
// set sorted again.
func exeToModel(e *sim.Exe, rank []uint32) snapshot.Exe {
	se := snapshot.Exe{Arch: uint8(e.Arch), Stripped: e.Stripped, Procs: make([]snapshot.Proc, len(e.Procs))}
	n := 0
	for _, p := range e.Procs {
		n += len(p.Set.IDs)
	}
	slab := make([]uint32, 0, n)
	for i, p := range e.Procs {
		start := len(slab)
		for _, id := range p.Set.IDs {
			slab = append(slab, rank[id])
		}
		ids := slab[start:len(slab):len(slab)]
		slices.Sort(ids)
		se.Procs[i] = snapshot.Proc{
			Name:       p.Name,
			Addr:       p.Addr,
			Exported:   p.Exported,
			IDs:        ids,
			Markers:    p.Markers,
			BlockCount: p.BlockCount,
			EdgeCount:  p.EdgeCount,
			InstCount:  p.InstCount,
		}
		for _, c := range p.Calls {
			se.Procs[i].Calls = append(se.Procs[i].Calls, uint32(c))
		}
	}
	return se
}

// skipsToModel records skip diagnostics as the shard stores them: each
// error as its text.
func skipsToModel(skips []SkipReason) []snapshot.Skip {
	var out []snapshot.Skip
	for _, s := range skips {
		out = append(out, snapshot.Skip{Path: s.Path, Err: s.Err.Error()})
	}
	return out
}
