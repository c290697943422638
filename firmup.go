// Package firmup is a reproduction of "FirmUp: Precise Static Detection
// of Common Vulnerabilities in Firmware" (David, Partush, Yahav —
// ASPLOS 2018): a static, precise and scalable engine for locating known
// vulnerable procedures inside stripped firmware images.
//
// The package is a facade over the full pipeline:
//
//	firmware image → unpack → recover procedures & blocks → lift to IR →
//	decompose into canonical strands → back-and-forth game matching
//
// Analysis runs under an Analyzer session: every executable analyzed by
// one session shares a strand-hash interner (canonical strand hashes
// deduplicated to dense IDs) and every opened image carries a
// corpus-level inverted index that lets SearchImage rank candidate
// executables by shared-strand count and skip targets that provably
// cannot clear the acceptance threshold.
//
// Quick start:
//
//	a := firmup.NewAnalyzer(nil)
//	img, _ := a.OpenImage(imageBytes)
//	query, _ := a.LoadQueryExecutable(queryBytes)
//	findings, _ := a.SearchImage(query, "ftp_retrieve_glob", img, nil)
//
// A corpus that is searched many times is analyzed once, sealed
// (Analyzer.Seal, SealedCorpus.WriteShards) and served from the shard
// directory (OpenSealedCorpus, SealedCorpus.AnalyzeQuery, SearchAll).
//
// Everything underneath — the firmlang compiler and its four ISA
// backends, the FWELF container, the lifters, the canonicalizer, the
// game engine, the baselines and the evaluation corpus — lives in the
// internal packages and is exercised by the cmd/ tools, the examples/
// programs and the benchmark harness.
package firmup

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"sync"

	"firmup/internal/cfg"
	"firmup/internal/core"
	"firmup/internal/corpusindex"
	"firmup/internal/image"
	_ "firmup/internal/isa/arm"  // register the ARM32 backend
	_ "firmup/internal/isa/mips" // register the MIPS32 backend
	_ "firmup/internal/isa/ppc"  // register the PPC32 backend
	_ "firmup/internal/isa/x86"  // register the x86 backend
	"firmup/internal/obj"
	"firmup/internal/sim"
	"firmup/internal/snapshot"
	"firmup/internal/strand"
	"firmup/internal/telemetry"
)

// AnalyzerOptions tune an analyzer session. The zero value selects the
// defaults.
type AnalyzerOptions struct {
	// Workers is the session's total analysis worker budget (default
	// GOMAXPROCS). It is shared — not multiplied — across the two nested
	// pools: OpenImage runs min(Workers, #executables) executables
	// concurrently, and each in-flight executable build gets the
	// remaining budget as procedure-level workers, so at most ~Workers
	// goroutines analyze at any moment.
	Workers int
	// Telemetry, when non-nil, is the registry the session records its
	// pipeline metrics into. The default (nil) disables telemetry
	// entirely: instrumented code paths hold nil handles and every
	// recording call is a no-op. Analysis and search output are
	// identical either way.
	Telemetry *telemetry.Registry
}

func (o *AnalyzerOptions) workers() int {
	if o == nil || o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// splitWorkers divides the session's worker budget between the two
// nested pools for n pending executables: the image-level pool takes
// min(budget, n) slots and each in-flight build gets budget/exeWorkers
// procedure-level workers, so the product stays ≈ budget instead of
// budget².
func splitWorkers(budget, n int) (exeWorkers, procWorkers int) {
	exeWorkers = budget
	if exeWorkers > n {
		exeWorkers = n
	}
	if exeWorkers < 1 {
		exeWorkers = 1
	}
	procWorkers = budget / exeWorkers
	if procWorkers < 1 {
		procWorkers = 1
	}
	return exeWorkers, procWorkers
}

// Analyzer is one analysis session. All executables analyzed under it —
// queries and image contents alike — share its strand-hash interner, so
// their strand sets carry comparable dense IDs and searches between
// them take the interned fast paths. Each distinct in-image executable is
// analysed once, from scratch; nothing else is shared between analyses.
// An Analyzer is safe for concurrent use.
type Analyzer struct {
	opt      AnalyzerOptions
	interner *corpusindex.Interner
	// What the session records into, all of it nil/zero — recording
	// nothing — when telemetry is disabled. Stage and metric names are
	// part of the report schema (see telemetry.SchemaVersion); renaming
	// any of them is a breaking change.
	front        frontEnd
	game         *core.Telemetry
	idx          *corpusindex.Telemetry
	exesAnalyzed *telemetry.Counter
	exesSkipped  *telemetry.Counter
	// analysed maps the SHA-256 of an in-image file to its analysed
	// *sim.Exe: the same executable ships in image after image, and
	// OpenImage analyses each distinct byte string once per session.
	analysed sync.Map
}

// frontEnd is the analysis front end — parse, CFG recovery and lifting,
// strand extraction, indexing — spelled once for the live session and a
// sealed corpus's query analysis, with the registry it records into: the
// layers' counters, and root, which its spans default to. Names are
// shared too, so obj.parse or strand.strands on a dashboard means the
// same layer whichever side recorded it. The zero value records nothing.
type frontEnd struct {
	root telemetry.Span
	obj  *obj.Telemetry
	cfg  *cfg.Telemetry
	sim  *sim.Telemetry
}

func newFrontEnd(r *telemetry.Registry) frontEnd {
	if r == nil {
		return frontEnd{}
	}
	return frontEnd{
		root: telemetry.Root(r, nil),
		obj: &obj.Telemetry{
			Bytes:    r.Counter("obj.bytes"),
			BadClass: r.Counter("obj.bad_class"),
		},
		cfg: &cfg.Telemetry{
			Decoded:        r.Counter("cfg.insts_decoded"),
			Procs:          r.Counter("cfg.procs"),
			Blocks:         r.Counter("cfg.blocks"),
			Insts:          r.Counter("cfg.insts"),
			CoverageRounds: r.Counter("cfg.coverage_rounds"),
		},
		sim: &sim.Telemetry{
			Procs: r.Counter("sim.procs"),
			Extract: &strand.Telemetry{
				Blocks:  r.Counter("strand.blocks"),
				Strands: r.Counter("strand.strands"),
			},
		},
	}
}

// read parses one FWELF file ("obj.parse") under parent, or under the
// front end's own registry when the caller passes no span.
func (fe *frontEnd) read(data []byte, parent telemetry.Span) (*obj.File, error) {
	return obj.ReadWith(data, fe.obj, parent.Or(fe.root))
}

// analyze is the pass order after the parse — recover and lift
// ("cfg.recover"), then extract, intern and index ("sim.build") — timed
// under parent like read.
func (fe *frontEnd) analyze(path string, f *obj.File, it strand.Interner, workers int, parent telemetry.Span) (*Executable, error) {
	parent = parent.Or(fe.root)
	rec, err := cfg.RecoverWith(f, fe.cfg, parent)
	if err != nil {
		return nil, fmt.Errorf("firmup: %s: %w", path, err)
	}
	bc := &sim.BuildConfig{Workers: workers, Tel: fe.sim, Span: parent}
	return &Executable{Path: path, exe: sim.BuildWith(path, rec, it, bc)}, nil
}

// newIndexTelemetry is the prefilter handle set: index.* for every
// candidate query. nil on a nil registry.
func newIndexTelemetry(r *telemetry.Registry) *corpusindex.Telemetry {
	if r == nil {
		return nil
	}
	return &corpusindex.Telemetry{
		Queries:   r.Counter("index.queries"),
		Fallbacks: r.Counter("index.fallbacks"),
		Fanout:    r.Histogram("index.fanout"),
	}
}

// newCoreTelemetry is the game engine's handle set, shared by the live
// session's searches and a sealed corpus's search passes. nil on a nil
// registry.
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

// NewAnalyzer creates a session. NewAnalyzer(nil) selects the defaults.
func NewAnalyzer(opt *AnalyzerOptions) *Analyzer {
	a := &Analyzer{interner: corpusindex.NewInterner()}
	if opt != nil {
		a.opt = *opt
	}
	if r := a.opt.Telemetry; r != nil {
		a.front = newFrontEnd(r)
		a.game = newCoreTelemetry(r)
		a.idx = newIndexTelemetry(r)
		a.exesAnalyzed = r.Counter("exe.analyzed")
		a.exesSkipped = r.Counter("exe.skipped")
		// Gauge mirrors of state the session already tracks: evaluated at
		// snapshot time, costing the hot paths nothing.
		interner := a.interner
		r.GaugeFunc("corpus.unique_strands", func() int64 { return int64(interner.Size()) })
	}
	return a
}

// Metrics snapshots the session's telemetry registry. On a
// telemetry-disabled session it returns an empty snapshot carrying only
// the schema version.
func (a *Analyzer) Metrics() telemetry.Snapshot {
	return a.opt.Telemetry.Snapshot()
}

// UniqueStrands reports the session's strand vocabulary: the number of
// distinct canonical strand hashes interned across every executable
// analyzed so far.
func (a *Analyzer) UniqueStrands() int { return a.interner.Size() }

// Executable is an analyzed binary: its procedures recovered, lifted and
// indexed as sets of canonical strands.
type Executable struct {
	// Path is the binary's path inside its image (or a caller-chosen
	// label for standalone executables).
	Path string
	exe  *sim.Exe
}

// Sim returns the executable as the engine holds it. The type is
// module-internal: this is for internal/eval, whose figures compare
// matchers (the game, the BinDiff- and GitZ-style baselines) on a fixed
// pair of executables of one session rather than run a search.
func (e *Executable) Sim() *sim.Exe { return e.exe }

// Procedures lists the recovered procedures.
func (e *Executable) Procedures() []ProcedureInfo {
	out := make([]ProcedureInfo, len(e.exe.Procs))
	for i, p := range e.exe.Procs {
		out[i] = procedureInfo(p)
	}
	return out
}

// Procedure returns the summary of the first procedure with the given
// name — the one a search for that name plays — or false when the
// executable has none.
func (e *Executable) Procedure(name string) (ProcedureInfo, bool) {
	i := e.exe.ProcByName(name)
	if i < 0 {
		return ProcedureInfo{}, false
	}
	return procedureInfo(e.exe.Procs[i]), true
}

func procedureInfo(p *sim.Proc) ProcedureInfo {
	return ProcedureInfo{
		Name:     p.Name,
		Addr:     p.Addr,
		Exported: p.Exported,
		Strands:  p.Set.Size(),
		Blocks:   p.BlockCount,
	}
}

// ProcedureInfo summarizes one recovered procedure.
type ProcedureInfo struct {
	Name     string
	Addr     uint32
	Exported bool
	Strands  int
	Blocks   int
}

// ProcedureStrands returns procedure i's sorted canonical strand
// hashes (a copy). Hashes — unlike session-local dense IDs — are
// stable across sessions and worker counts, which
// makes them the right handle for equivalence checks.
func (e *Executable) ProcedureStrands(i int) []uint64 {
	return append([]uint64(nil), e.exe.Hashes(i)...)
}

// ProcedureMarkers returns procedure i's sorted distinctive constants
// (a copy; see strand.MarkerOverlap).
func (e *Executable) ProcedureMarkers(i int) []uint32 {
	return append([]uint32(nil), e.exe.Procs[i].Markers...)
}

// SkipReason records one in-image executable that parsed as an FWELF but
// failed analysis and was left out of Image.Exes.
type SkipReason struct {
	// Path locates the file within the image (carved_<n> for carved
	// executables).
	Path string
	Err  error
}

// Image is an unpacked firmware image with its analyzable executables.
type Image struct {
	Vendor  string
	Device  string
	Version string
	Exes    []*Executable
	// Skipped lists the executables that failed analysis; they are not
	// searchable but no longer silently dropped.
	Skipped []SkipReason

	// own is the image as the one member of its private search group —
	// occurrence i is Exes[i] — built when the image is opened (see index).
	own *SealedImage
}

// Executable returns the image executable with the given in-image
// path, or nil.
func (im *Image) Executable(path string) *Executable {
	for _, e := range im.Exes {
		if e.Path == path {
			return e
		}
	}
	return nil
}

// IndexedStrands reports the number of (strand, executable, procedure)
// postings in the image's search index.
func (im *Image) IndexedStrands() int { return im.own.group.index.Postings() }

// AnalyzeExecutable parses and analyzes one FWELF binary under the
// session.
func (a *Analyzer) AnalyzeExecutable(path string, data []byte) (*Executable, error) {
	f, err := a.front.read(data, telemetry.Span{})
	if err != nil {
		return nil, err
	}
	// A standalone analysis is the only build in flight: give it the
	// whole worker budget at the procedure level.
	return a.front.analyze(path, f, a.interner, a.opt.workers(), telemetry.Span{})
}

// LoadQueryExecutable analyzes the analyst's query binary (typically
// compiled from the latest vulnerable package version, symbols intact)
// under the session.
func (a *Analyzer) LoadQueryExecutable(data []byte) (*Executable, error) {
	return a.AnalyzeExecutable("query", data)
}

// OpenImage unpacks a firmware image and analyzes every executable in
// it, in parallel under the session's worker pool. Images that fail
// structural unpacking are carved binwalk-style for embedded
// executables. Executables that fail analysis are reported in
// Image.Skipped rather than silently dropped.
func (a *Analyzer) OpenImage(data []byte) (*Image, error) {
	sp := a.front.root.Start("image.open")
	defer sp.End()
	out, pending, err := a.unpack(data, sp)
	if err != nil {
		return nil, err
	}
	a.analyzeAll(pending, out, sp)
	if len(out.Exes) == 0 {
		return nil, fmt.Errorf("firmup: image contains no analyzable executables")
	}
	a.index(out)
	a.exesAnalyzed.Add(int64(len(out.Exes)))
	a.exesSkipped.Add(int64(len(out.Skipped)))
	return out, nil
}

// unpack is OpenImage's "image.unpack" stage: the image's identity and
// every file of it that parses as an executable, carved out of the bytes
// when the container does not unpack.
func (a *Analyzer) unpack(data []byte, parent telemetry.Span) (*Image, []pendingExe, error) {
	sp := parent.Start("image.unpack")
	defer sp.End()
	var pending []pendingExe
	im, err := image.Unpack(data)
	if err != nil {
		// Carving fallback: damaged or unknown container.
		files := image.CarveWith(data, a.front.obj, sp)
		if len(files) == 0 {
			return nil, nil, fmt.Errorf("firmup: cannot unpack image and carving found no executables: %w", err)
		}
		for i, f := range files {
			pending = append(pending, pendingExe{path: fmt.Sprintf("carved_%d", i), file: f})
		}
		return &Image{}, pending, nil
	}
	// Non-executable content (configs etc.) is skipped, as are entries
	// that fail to parse.
	for _, fe := range im.Files {
		if f, err := a.front.read(fe.Data, sp); err == nil {
			pending = append(pending, pendingExe{path: fe.Path, file: f, data: fe.Data})
		}
	}
	return &Image{Vendor: im.Vendor, Device: im.Device, Version: im.Version}, pending, nil
}

// index makes img searchable: it builds the private one-image group a
// live image is searched through, by the pass a sealed corpus runs per
// group (sealedGroup.search) — the image's own executables as they are,
// neither rebound nor deduplicated, behind one index keyed by the session
// interner as it stands now. Strands the session interns later, analysing
// queries, have no row in it and need none: no executable of this image
// contains them.
func (a *Analyzer) index(img *Image) {
	g := &sealedGroup{n: 1, nExes: len(img.Exes), game: a.game, exes: make([]*sim.Exe, len(img.Exes))}
	img.own = &SealedImage{group: g, occs: make([]snapshot.Occurrence, len(img.Exes))}
	for i, e := range img.Exes {
		g.exes[i] = e.exe
		img.own.occs[i] = snapshot.Occurrence{Path: e.Path, Exe: i}
	}
	g.index = corpusindex.NewFrozenIndex(a.interner, a.interner.Size(), g.exes)
	g.index.SetTelemetry(a.idx)
}

type pendingExe struct {
	path string
	file *obj.File
	// data is the file's bytes, the key the session's analysis is shared
	// under; nil for a carved executable, whose extent is not known.
	data []byte
}

// analyzePending analyses one in-image executable, or answers it from an
// earlier image that carried the same bytes: a shallow copy under this
// image's path. Concurrent first sights of one byte string may both
// analyse it; the results are equal and the last one stored is kept.
func (a *Analyzer) analyzePending(pe pendingExe, procWorkers int, parent telemetry.Span) (*Executable, error) {
	if pe.data == nil {
		return a.front.analyze(pe.path, pe.file, a.interner, procWorkers, parent)
	}
	key := sha256.Sum256(pe.data)
	if e, ok := a.analysed.Load(key); ok {
		return &Executable{Path: pe.path, exe: e.(*sim.Exe).WithPath(pe.path)}, nil
	}
	exe, err := a.front.analyze(pe.path, pe.file, a.interner, procWorkers, parent)
	if err == nil {
		a.analysed.Store(key, exe.exe)
	}
	return exe, err
}

// analyzeAll runs the session's bounded worker pool over the pending
// executables, preserving input order in both Exes and Skipped. The
// worker budget is split between this pool and the per-executable
// procedure pools (see splitWorkers).
func (a *Analyzer) analyzeAll(pending []pendingExe, out *Image, parent telemetry.Span) {
	exes := make([]*Executable, len(pending))
	errs := make([]error, len(pending))
	workers, procWorkers := splitWorkers(a.opt.workers(), len(pending))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				exes[i], errs[i] = a.analyzePending(pending[i], procWorkers, parent)
			}
		}()
	}
	for i := range pending {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for i := range pending {
		if errs[i] != nil {
			out.Skipped = append(out.Skipped, SkipReason{Path: pending[i].path, Err: errs[i]})
			continue
		}
		out.Exes = append(out.Exes, exes[i])
	}
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
	// Exhaustive disables the image's corpus-index prefilter for this
	// search: every executable is examined. Findings are identical; only
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
	// executable the corpus-index prefilter kept, usually well below
	// len(img.Exes); a game is played against those of them that hold a
	// procedure the search could accept.
	Examined int
	// StepsHistogram counts accepted findings by game steps needed.
	StepsHistogram map[int]int
}

// SearchImage looks for the query executable's procedure in every
// executable of the image. Executables the image's index proves cannot
// clear the acceptance floors are skipped without playing the game — when
// the query shares the image's session; a query from another session is
// played against every executable — and the findings are identical either
// way.
func (a *Analyzer) SearchImage(query *Executable, procedure string, img *Image, opt *Options) ([]Finding, error) {
	res, err := a.SearchImageDetailed(query, procedure, img, opt)
	if err != nil {
		return nil, err
	}
	return res.Findings, nil
}

// SearchImageDetailed is SearchImage with the search accounting
// (examined-target count, steps histogram) exposed: SearchBatch with a
// batch of one.
func (a *Analyzer) SearchImageDetailed(query *Executable, procedure string, img *Image, opt *Options) (*SearchResult, error) {
	res, err := a.SearchBatch([]BatchQuery{{Query: query, Procedure: procedure}}, img, opt)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// BatchQuery names one query procedure for a batched image search.
type BatchQuery struct {
	// Query is the analyzed query executable.
	Query *Executable
	// Procedure is the query procedure's name within it.
	Procedure string
}

// coreBatch resolves the facade batch queries to core form, rejecting
// unknown procedure names with the same error the sequential path
// reports.
func coreBatch(queries []BatchQuery) ([]core.BatchQuery, error) {
	out := make([]core.BatchQuery, len(queries))
	for i, bq := range queries {
		qi := bq.Query.exe.ProcByName(bq.Procedure)
		if qi < 0 {
			return nil, fmt.Errorf("firmup: query executable has no procedure %q", bq.Procedure)
		}
		out[i] = core.BatchQuery{Q: bq.Query.exe, QI: qi}
	}
	return out, nil
}

// SearchBatch looks for every batch query in the image in one search pass
// (sealedGroup.search) over the image's private group: one posting scan
// per query, then each image executable is visited once for the whole
// batch, and queries from the same query executable share matcher caches
// and similarity vectors. The returned results are positionally aligned
// with queries and byte-identical to calling SearchImageDetailed once per
// query. The pass is timed as a "search.image" span under opt.Span, or
// under this session's registry when the options carry none; the index
// and game metrics go to the session that opened the image.
func (a *Analyzer) SearchBatch(queries []BatchQuery, img *Image, opt *Options) ([]*SearchResult, error) {
	sp := opt.span().Or(a.front.root).Start("search.image")
	defer sp.End()
	cqs, err := coreBatch(queries)
	if err != nil {
		return nil, err
	}
	res, _, err := img.own.group.search(cqs, []*SealedImage{img.own}, opt, sp)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// MatchProcedure runs the back-and-forth game for one query procedure
// against a single target executable, returning the finding (nil when
// the target does not appear to contain the procedure) and the number of
// game steps played. Game metrics are recorded into the session's
// registry, if any.
func (a *Analyzer) MatchProcedure(query *Executable, procedure string, target *Executable, opt *Options) (*Finding, int, error) {
	f, r, err := a.matchTraced(query, procedure, target, opt, false)
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
func (a *Analyzer) MatchProcedureTraced(query *Executable, procedure string, target *Executable, opt *Options) (*Finding, *GameTrace, error) {
	f, r, err := a.matchTraced(query, procedure, target, opt, true)
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

// matchTraced is the shared MatchProcedure body; recordTrace selects
// whether the game course is captured.
func (a *Analyzer) matchTraced(query *Executable, procedure string, target *Executable, opt *Options, recordTrace bool) (*Finding, core.Result, error) {
	return matchTracedCore(a.game, query, procedure, target, opt, recordTrace)
}

// matchTracedCore is the session-independent MatchProcedure body shared
// by the live Analyzer and SealedCorpus paths; tel may be nil.
func matchTracedCore(tel *core.Telemetry, query *Executable, procedure string, target *Executable, opt *Options, recordTrace bool) (*Finding, core.Result, error) {
	qi := query.exe.ProcByName(procedure)
	if qi < 0 {
		return nil, core.Result{}, fmt.Errorf("firmup: query executable has no procedure %q", procedure)
	}
	s := opt.search()
	s.Game.Tel = tel
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
