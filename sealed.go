package firmup

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"

	"firmup/internal/core"
	"firmup/internal/corpusindex"
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
// image a list of occurrences (path, executable ID). The executables are
// split into groups, contiguous ID ranges each with one inverted index.
// A search passes over the groups that hold an executable in scope,
// scanning, materializing and playing each (query, distinct candidate)
// once, and fans the outcome out to every occurrence. Sealed in RAM or
// opened from any number of shards, a corpus answers every search with
// the same findings, examined counts and step histograms.
type SealedCorpus struct {
	frozen *corpusindex.Frozen
	images []*SealedImage
	// groups hold the distinct executables: one per shard file for a
	// corpus opened from disk, one holding every executable for a corpus
	// sealed in RAM.
	groups exeStore
	// front is the front end query analysis runs through, with what it
	// records into (see SetTelemetry).
	front frontEnd
}

// sealedGroup is the unit a search pass runs over: a range of the
// corpus's distinct executables and the one index over them.
type sealedGroup struct {
	base, n int // the group holds executables [base, base+n) of its store
	// frozen is the corpus vocabulary the executables are bound to.
	frozen *corpusindex.Frozen
	// index covers the group's executables, numbered from 0. In RAM or
	// store-backed, it is built on first search (ensureIndex), guarded by
	// idxOnce.
	index *corpusindex.FrozenIndex
	tel   *corpusindex.Telemetry
	// game is what the group's search passes record into (see
	// SealedCorpus.SetTelemetry).
	game *core.Telemetry
	// exes are the executables of an in-RAM group. Sealed ones carry no
	// path: findings take theirs from the occurrence.
	exes []*sim.Exe

	// Store-backed state (nil/zero for an in-RAM group): the shard, and
	// one materialize-once slot per executable.
	shard   *snapshot.CorpusShard
	path    string
	lazy    []lazyExe
	idxOnce sync.Once
	idxErr  error
}

// SealedImage is one firmware image of a sealed corpus: its identity
// and its executables, each an occurrence of one of the corpus's distinct
// executables under the image's own path.
type SealedImage struct {
	Vendor  string
	Device  string
	Version string
	// Skipped carries the analysis-time skip diagnostics verbatim.
	Skipped []SkipReason

	store exeStore // the corpus's, which holds what occs name
	occs  []snapshot.Occurrence
}

// Executable returns the sealed executable with the given in-image
// path, or nil. On a store-backed image this materializes it; nil is
// also returned if the shard fails to decode.
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
	// MaxGameSteps caps back-and-forth iterations (default 64).
	MaxGameSteps int
	// Workers bounds search parallelism (default GOMAXPROCS).
	Workers int
	// Exhaustive disables the corpus-index prefilter for this search:
	// every executable in scope is examined. Findings are identical; only
	// the work done differs.
	Exhaustive bool
	// Span, when set, is the span the search runs under: the search
	// layers open theirs (shard fan-out, store materialization, core
	// search) as its children, each feeding the stage of its name in the
	// span's registry and, under a sampled request, the request's tree.
	// Purely observational — findings are byte-identical with and without
	// it. The zero Span records nothing at zero cost.
	Span telemetry.Span
}

func (o *Options) span() telemetry.Span {
	if o == nil {
		return telemetry.Span{}
	}
	return o.Span
}

func (o *Options) search() *core.SearchOptions {
	s := &core.SearchOptions{MinScore: 8, MinRatio: 0.42}
	if o != nil {
		if o.MinScore > 0 {
			s.MinScore = o.MinScore
		}
		if o.MinRatio > 0 {
			s.MinRatio = o.MinRatio
		}
		if o.MaxGameSteps > 0 {
			s.Game.MaxSteps = o.MaxGameSteps
		}
		if o.Workers > 0 {
			s.Workers = o.Workers
		}
	}
	return s
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
	// StepsHistogram counts accepted findings by game steps needed.
	StepsHistogram map[int]int
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
// into groups: contiguous ID ranges in ID order.
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

// exe returns executable u, materialized by the group holding it when
// store-backed.
func (st exeStore) exe(u int) (*sim.Exe, error) {
	g := st.group(u)
	return g.exe(u - g.base)
}

// appendExeContent appends everything a sealed executable is except its
// path — arch, stripped flag, and every procedure's name, address,
// flags, shape counts, strand IDs, markers and calls — so two
// executables with equal content are stored once and one game stands
// for both. Strand IDs are session-dense, which is enough: only
// executables under one vocabulary are ever compared.
func appendExeContent(b []byte, e *sim.Exe) []byte {
	le := binary.LittleEndian
	stripped := byte(0)
	if e.Stripped {
		stripped = 1
	}
	b = append(b, byte(e.Arch), stripped)
	b = le.AppendUint32(b, uint32(len(e.Procs)))
	for _, p := range e.Procs {
		flags := uint32(0)
		if p.Exported {
			flags = 1
		}
		for _, n := range []uint32{
			uint32(len(p.Name)), p.Addr, flags,
			uint32(p.BlockCount), uint32(p.EdgeCount), uint32(p.InstCount),
			uint32(len(p.Set.IDs)), uint32(len(p.Markers)), uint32(len(p.Calls)),
		} {
			b = le.AppendUint32(b, n)
		}
		b = append(b, p.Name...)
		for _, id := range p.Set.IDs {
			b = le.AppendUint32(b, id)
		}
		for _, m := range p.Markers {
			b = le.AppendUint32(b, m)
		}
		for _, c := range p.Calls {
			b = le.AppendUint32(b, uint32(c))
		}
	}
	return b
}

// exeDedup numbers distinct executables in first-sight order, keyed by
// the SHA-256 of their content.
type exeDedup struct {
	byKey map[[sha256.Size]byte]int
	// byPtr answers a repeated *sim.Exe without hashing it again.
	byPtr map[*sim.Exe]int
	buf   []byte
}

func newExeDedup() *exeDedup {
	return &exeDedup{byKey: map[[sha256.Size]byte]int{}, byPtr: map[*sim.Exe]int{}}
}

// add returns e's number and whether e is the first executable with its
// content.
func (d *exeDedup) add(e *sim.Exe) (ref int, fresh bool) {
	if ref, ok := d.byPtr[e]; ok {
		return ref, false
	}
	d.buf = appendExeContent(d.buf[:0], e)
	key := sha256.Sum256(d.buf)
	ref, ok := d.byKey[key]
	if !ok {
		ref = len(d.byKey)
		d.byKey[key] = ref
	}
	d.byPtr[e] = ref
	return ref, !ok
}

// Seal freezes the session's current state into an immutable corpus
// over the given images: the corpus that searches them. The Analyzer and
// its images stay fully usable afterwards — Seal copies what it must
// (procedure headers) and shares what is already final (hash and ID
// slices, CSR rows) — so sealing is cheap while the sealed corpus aliases
// no mutable session state. The corpus is indexed on its first search, not here.
//
// Every image must have been analyzed (or loaded) under this session;
// an executable from another session has incomparable dense IDs and is
// rejected.
func (a *Analyzer) Seal(images ...*Image) (*SealedCorpus, error) {
	frozen := a.interner.Freeze()
	g := &sealedGroup{frozen: frozen}
	sc := &SealedCorpus{frozen: frozen, groups: exeStore{g}}
	dedup := newExeDedup()
	for ii, img := range images {
		si := &SealedImage{
			Vendor:  img.Vendor,
			Device:  img.Device,
			Version: img.Version,
			Skipped: append([]SkipReason(nil), img.Skipped...),
			store:   sc.groups,
		}
		for _, e := range img.Exes {
			if e.exe.Session() != strand.Interner(a.interner) {
				return nil, fmt.Errorf("firmup: Seal: image %d executable %s was not analyzed under this session", ii, e.Path)
			}
			ref, fresh := dedup.add(e.exe)
			if fresh {
				u := e.exe.Rebound(frozen)
				u.Path = ""
				g.exes = append(g.exes, u)
			}
			si.occs = append(si.occs, snapshot.Occurrence{Path: e.Path, Exe: ref})
		}
		sc.images = append(sc.images, si)
	}
	g.n = len(g.exes)
	return sc, nil
}

// Images returns the sealed images in seal order. The slice is shared;
// treat it as read-only.
func (sc *SealedCorpus) Images() []*SealedImage { return sc.images }

// UniqueStrands reports the frozen vocabulary size.
func (sc *SealedCorpus) UniqueStrands() int { return sc.frozen.Size() }

// SetTelemetry attaches the corpus to a registry under the session's
// names. Every group index records the prefilter:
// index.queries / index.fanout for every candidate
// query — one per (query, group), counting distinct candidate
// executables — and every search pass the game engine's game.*,
// search.* and batch.* metrics, among them game.unplayed and game.cut
// for the planned games that were never started or stopped early.
// Query analysis (AnalyzeQueryUnder) records the front-end layer by
// layer: obj.parse, cfg.recover / cfg.sweep and the cfg counters,
// sim.build (which lifts each procedure as it extracts it) / sim.index /
// sim.procs, and strand.blocks / strand.strands. Call before serving: a group applies the index
// handles when its index first builds. A nil registry detaches.
func (sc *SealedCorpus) SetTelemetry(r *telemetry.Registry) {
	tel := newIndexTelemetry(r)
	game := newCoreTelemetry(r)
	sc.front = newFrontEnd(r)
	for _, g := range sc.groups {
		g.tel = tel
		g.game = game
	}
}

// newIndexTelemetry is the prefilter handle set: index.* for every
// candidate query. nil on a nil registry.
func newIndexTelemetry(r *telemetry.Registry) *corpusindex.Telemetry {
	if r == nil {
		return nil
	}
	return &corpusindex.Telemetry{
		Queries: r.Counter("index.queries"),
		Fanout:  r.Histogram("index.fanout"),
	}
}

// newCoreTelemetry is the game engine's handle set a sealed corpus's
// search passes record into. nil on a nil registry.
func newCoreTelemetry(r *telemetry.Registry) *core.Telemetry {
	if r == nil {
		return nil
	}
	return &core.Telemetry{
		Games:                 r.Counter("game.played"),
		Unplayed:              r.Counter("game.unplayed"),
		Cut:                   r.Counter("game.cut"),
		Steps:                 r.Histogram("game.steps"),
		AcceptedSteps:         r.Histogram("game.steps.accepted"),
		MatcherHits:           r.Counter("game.matcher_hits"),
		MatcherMisses:         r.Counter("game.matcher_misses"),
		Searches:              r.Counter("search.runs"),
		PrefilterKept:         r.Counter("search.targets_kept"),
		PrefilterSkipped:      r.Counter("search.targets_skipped"),
		BatchSearches:         r.Counter("batch.searches"),
		BatchSharedGames:      r.Counter("batch.shared_games"),
		BatchQueriesPerTarget: r.Histogram("batch.queries_per_target"),
	}
}

// Executables reports the total executable count across all images,
// every occurrence counted. Cheap even when store-backed: counts come
// from shard metadata, not materialization.
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

// AnalyzeQuery analyzes a query binary against the sealed corpus under
// a fresh per-request overlay interner (see AnalyzeQueryUnder).
func (sc *SealedCorpus) AnalyzeQuery(data []byte) (*Executable, error) {
	return sc.AnalyzeQueryUnder("query", data, 0, telemetry.Span{})
}

// AnalyzeQueryWith is AnalyzeQueryUnder with no span.
func (sc *SealedCorpus) AnalyzeQueryWith(path string, data []byte, workers int) (*Executable, error) {
	return sc.AnalyzeQueryUnder(path, data, workers, telemetry.Span{})
}

// AnalyzeQueryUnder analyzes one FWELF binary for querying this sealed
// corpus, with a bounded procedure-level worker budget (≤ 0 selects
// GOMAXPROCS). The analysis runs under a request-private overlay of the
// frozen vocabulary: strands the corpus knows resolve to their frozen
// IDs, novel strands get private IDs above the vocabulary, and nothing
// in the corpus is written. The returned executable queries this corpus
// only: its private IDs mean nothing to another, which refuses it.
//
// The front-end layers are timed as children of parent (obj.parse,
// cfg.recover, sim.build), so a traced request sees where its analysis
// went; the zero Span times them under the corpus's own registry (see
// SetTelemetry). This is a method of its own, not a fourth parameter of
// AnalyzeQueryWith, only because the benchmark harness under bench/
// compiles against that three-argument signature.
func (sc *SealedCorpus) AnalyzeQueryUnder(path string, data []byte, workers int, parent telemetry.Span) (*Executable, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	f, err := sc.front.read(data, parent)
	if err != nil {
		return nil, err
	}
	return sc.front.analyze(path, f, corpusindex.NewQueryInterner(sc.frozen), workers, nil, parent)
}

// scansPool recycles the per-pass scan results (candidate lists and
// similarity vectors) across search passes.
var scansPool = sync.Pool{New: func() any { return new(corpusindex.Scans) }}

// passStats is the game accounting of one group's pass: the (query,
// distinct executable) pairs it planned, and of those the ones not
// played and the games cut short because no acceptable procedure was
// (any longer) available (see core.PlayBatch).
type passStats struct{ games, unplayed, cut int }

// search is the one search pass there is: every query against the
// distinct executables that occur in imgs — all of the corpus's for a
// corpus-wide search, one image's for a per-image search — each (query,
// executable) materialized and played once, by the group that holds it,
// and the outcome fanned out to the occurrences of imgs, timed under
// parent. Only the groups holding an
// executable in scope take part; a store of several runs them in
// parallel, each under its own "corpus.shard" span — shard index,
// executable count, the (query, executable) games it planned, the
// occurrences they stood for — so a slow request attributes its latency
// to the shard that caused it. They share no mutable state, so fan-out
// order cannot influence findings, examined counts or step histograms;
// the first error in group order wins. The result is indexed
// [image][query].
//
// Since candidacy is a property of the executable alone, an image gets
// exactly the findings, examined count and step histogram a search of it
// on its own would produce.
func (st exeStore) search(cqs []core.BatchQuery, imgs []*SealedImage, opt *Options, parent telemetry.Span) ([][]*SearchResult, error) {
	// uses[u] counts the occurrences of executable u in imgs; found and
	// played are the passes' outcomes by query and executable.
	total := st.size()
	uses := make([]int32, total)
	inScope := make([]bool, total)
	for _, im := range imgs {
		for _, oc := range im.occs {
			uses[oc.Exe]++
			inScope[oc.Exe] = true
		}
	}
	found := make([][]*core.Finding, len(cqs))
	played := make([][]bool, len(cqs))
	for qx := range cqs {
		found[qx] = make([]*core.Finding, total)
		played[qx] = make([]bool, total)
	}
	var run []int
	for gi, g := range st {
		if slices.Contains(inScope[g.base:g.base+g.n], true) {
			run = append(run, gi)
		}
	}
	pass := func(gi int) error {
		g := st[gi]
		parent := parent
		var sp telemetry.Span
		if len(st) > 1 {
			sp = parent.Start("corpus.shard")
			defer sp.End()
			parent = sp
		}
		f, p, stats, err := g.search(cqs, inScope[g.base:g.base+g.n], opt, parent)
		if err != nil {
			return err
		}
		occurrences := 0
		for qx := range cqs {
			copy(found[qx][g.base:], f[qx])
			copy(played[qx][g.base:], p[qx])
			for u, ok := range p[qx] {
				if ok {
					occurrences += int(uses[g.base+u])
				}
			}
		}
		sp.SetAttr("shard", int64(gi))
		sp.SetAttr("executables", int64(g.n))
		sp.SetAttr("unique_candidates", int64(stats.games))
		sp.SetAttr("games_unplayed", int64(stats.unplayed))
		sp.SetAttr("games_cut", int64(stats.cut))
		sp.SetAttr("occurrences", int64(occurrences))
		return nil
	}
	errs := make([]error, len(run))
	if len(run) == 1 {
		errs[0] = pass(run[0])
	} else {
		sem := make(chan struct{}, min(len(run), runtime.GOMAXPROCS(0)))
		var wg sync.WaitGroup
		for k, gi := range run {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				errs[k] = pass(gi)
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	res := make([][]*SearchResult, len(imgs))
	for ii, im := range imgs {
		res[ii] = make([]*SearchResult, len(cqs))
		for qx := range cqs {
			r := &SearchResult{Findings: []Finding{}, StepsHistogram: map[int]int{}}
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
					r.StepsHistogram[f.Steps]++
				}
			}
			slices.SortFunc(r.Findings, func(a, b Finding) int { return strings.Compare(a.ExePath, b.ExePath) })
			res[ii][qx] = r
		}
	}
	return res, nil
}

// search is one group's part of a pass: every query against the group's
// executables that inScope admits (indexed from the group's first), each
// (query, candidate) materialized and played once. It returns, by query
// and executable, the accepted findings and which executables were
// played — the ones that count toward an occurrence's Examined.
//
// Each query's candidates are resolved exactly once, by one posting scan
// of the group index, and everything the scan computed is used: the
// candidate list selects what a store-backed group materializes (so peak
// RSS tracks the working set) and is the list the games run on, and the
// per-procedure counts behind it are each game's first similarity
// vector, from which the game engine also reads off whether a candidate
// can be accepted at all. An exhaustive search examines every executable
// in scope, the game engine accumulating its own vectors. The acceptance
// floors are baked into the lists, so the narrowing stays sound (see
// FrozenIndex.Scan).
//
// A panic in the pass — on a fan-out goroutine it would end the process —
// becomes the pass's error, naming the shard.
func (g *sealedGroup) search(cqs []core.BatchQuery, inScope []bool, opt *Options, parent telemetry.Span) (found [][]*core.Finding, played [][]bool, st passStats, err error) {
	defer func() {
		if r := recover(); r != nil {
			found, played, err = nil, nil, fmt.Errorf("firmup: search of group %q panicked: %v", g.path, r)
		}
	}()
	s := opt.search()
	s.Span = parent
	s.Game.Tel = g.game
	// plans[qx] lists the executables query qx is played against — all of
	// scope when exhaustive, else its candidates in scope with their
	// scanned vectors — and played[qx] marks them. One pooled Scans holds
	// every query's scan until the games are over; query qx appended
	// scans.Exes[at[qx]:at[qx+1]].
	plans := make([]core.Plan, len(cqs))
	if opt == nil || !opt.Exhaustive {
		if err := g.ensureIndex(); err != nil {
			return nil, nil, st, err
		}
		scans := scansPool.Get().(*corpusindex.Scans)
		scans.Reset()
		defer scansPool.Put(scans)
		at := make([]int, len(cqs)+1)
		for qx, cq := range cqs {
			g.index.Scan(cq.Q.Procs[cq.QI].Set, s.MinScore, s.MinRatio, inScope, scans)
			at[qx+1] = len(scans.Exes)
		}
		for qx := range plans {
			lo, hi := at[qx], at[qx+1]
			plans[qx] = core.Plan{Targets: scans.Exes[lo:hi], Off: scans.Off[lo : hi+1], Vec: scans.Vecs}
		}
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
	played = make([][]bool, len(cqs))
	for qx := range plans {
		played[qx] = make([]bool, g.n)
		for _, u := range plans[qx].Targets {
			played[qx][u] = true
		}
		st.games += len(plans[qx].Targets)
	}
	targets, err := g.targets(plans, s)
	if err != nil {
		return nil, nil, st, err
	}
	pass := core.PlayBatch(cqs, targets, plans, s)
	st.unplayed, st.cut = pass.Unplayed, pass.Cut
	return pass.Findings, played, st, nil
}

// SearchImageDetailed looks for the query executable's procedure in
// every executable of one sealed image, with the search accounting
// exposed: one pass over the groups that hold the image's executables.
func (sc *SealedCorpus) SearchImageDetailed(query *Executable, procedure string, img *SealedImage, opt *Options) (*SearchResult, error) {
	cqs, err := sc.coreBatch([]BatchQuery{{Query: query, Procedure: procedure}})
	if err != nil {
		return nil, err
	}
	res, err := img.store.search(cqs, []*SealedImage{img}, opt, opt.span())
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
	res, err := sc.groups.search(cqs, sc.images, opt, opt.span())
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
