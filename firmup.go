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
	"errors"
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
	// Workers is the session's analysis budget (default GOMAXPROCS).
	// OpenImage hands each file, as it is unpacked, to a pool of Workers
	// goroutines. Every analysis holds one of Workers tokens shared by
	// the session, and its build borrows the free ones as procedure
	// workers, so at most Workers goroutines analyse at any moment.
	// Output never depends on it.
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
	spare        chan struct{} // the analysis budget's tokens (see analyzePooled)
	// analysed maps the SHA-256 of an in-image file to its *analysis: the
	// same executable ships in image after image, and OpenImage analyses
	// each distinct byte string once per session.
	analysed sync.Map
}

// analysis is one distinct byte string's analysis: run by the first
// sighting to claim it, awaited by every other, even one in flight.
type analysis struct {
	once sync.Once
	exe  *Executable
	err  error
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
// under parent like read. With a non-nil spare, one of whose tokens the
// caller holds, the build adds a procedure worker for every further
// token free at that moment, up to workers in all.
func (fe *frontEnd) analyze(path string, f *obj.File, it strand.Interner, workers int, spare chan struct{}, parent telemetry.Span) (*Executable, error) {
	parent = parent.Or(fe.root)
	rec, err := cfg.RecoverWith(f, fe.cfg, parent)
	if err != nil {
		return nil, fmt.Errorf("firmup: %s: %w", path, err)
	}
	if spare != nil {
		n := 1
	borrow:
		for ; n < min(workers, len(rec.Procs)); n++ {
			select {
			case spare <- struct{}{}:
				defer func() { <-spare }()
			default:
				break borrow
			}
		}
		workers = n
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
	a.spare = make(chan struct{}, a.opt.workers())
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

	// own is the image as the one image of a private store of one group —
	// occurrence i is Exes[i] — indexed on first search (Analyzer.group).
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
// postings in the image's search index, building the index if no search
// has yet.
func (im *Image) IndexedStrands() int {
	g := im.own.store[0]
	g.ensureIndex() // an in-RAM group's build cannot fail
	return g.index.Postings()
}

// AnalyzeExecutable parses and analyzes one FWELF binary under the
// session.
func (a *Analyzer) AnalyzeExecutable(path string, data []byte) (*Executable, error) {
	f, err := a.front.read(data, telemetry.Span{})
	if err != nil {
		return nil, err
	}
	return a.analyzePooled(path, f, telemetry.Span{})
}

// analyzePooled analyses f under the session's budget: it waits for a
// token of its own, and its build borrows what is free on top.
func (a *Analyzer) analyzePooled(path string, f *obj.File, parent telemetry.Span) (*Executable, error) {
	a.spare <- struct{}{}
	defer func() { <-a.spare }()
	return a.front.analyze(path, f, a.interner, a.opt.workers(), a.spare, parent)
}

// LoadQueryExecutable analyzes the analyst's query binary (typically
// compiled from the latest vulnerable package version, symbols intact)
// under the session.
func (a *Analyzer) LoadQueryExecutable(data []byte) (*Executable, error) {
	return a.AnalyzeExecutable("query", data)
}

// OpenImage unpacks a firmware image and analyzes every executable in
// it in one streamed pass, each file going to the session's pool as soon
// as it is unpacked (see AnalyzerOptions.Workers). Images that fail
// structural unpacking are carved binwalk-style for embedded
// executables. Executables that fail analysis are reported in
// Image.Skipped rather than silently dropped.
func (a *Analyzer) OpenImage(data []byte) (*Image, error) {
	sp := a.front.root.Start("image.open")
	defer sp.End()
	jobs := make(chan *fileJob)
	var wg sync.WaitGroup
	workers := a.opt.workers()
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for j := range jobs {
				a.analyzeFile(j, sp)
			}
		}()
	}
	var all []*fileJob // what the image reports, in arrival order
	add := func(j *fileJob) {
		all = append(all, j)
		jobs <- j // waits for a free worker
	}
	usp := sp.Start("image.unpack")
	im, err := image.Stream(data, func(fe image.FileEntry) { add(&fileJob{path: fe.Path, data: fe.Data}) })
	if err != nil {
		// Carving fallback: damaged or unknown container. The files
		// dispatched before the failure are analysed, then discarded.
		all, im = nil, &image.Image{}
		for i, f := range image.CarveWith(data, a.front.obj, usp) {
			add(&fileJob{path: fmt.Sprintf("carved_%d", i), file: f})
		}
		if len(all) > 0 {
			err = nil
		}
	}
	usp.End()
	close(jobs)
	wg.Wait()
	if err != nil {
		return nil, fmt.Errorf("firmup: cannot unpack image and carving found no executables: %w", err)
	}
	out := &Image{Vendor: im.Vendor, Device: im.Device, Version: im.Version}
	for _, j := range all {
		if j.err != nil {
			out.Skipped = append(out.Skipped, SkipReason{Path: j.path, Err: j.err})
		} else if j.exe != nil {
			out.Exes = append(out.Exes, j.exe)
		}
	}
	if len(out.Exes) == 0 {
		return nil, fmt.Errorf("firmup: image contains no analyzable executables")
	}
	a.group(out)
	a.exesAnalyzed.Add(int64(len(out.Exes)))
	a.exesSkipped.Add(int64(len(out.Skipped)))
	return out, nil
}

// group makes img searchable: it sets up the private store of one group
// a live image is searched through, by the pass a sealed corpus runs
// (exeStore.search) — the image's own executables as they are, neither
// rebound nor deduplicated, under the session interner as it stands now,
// indexed on first search (sealedGroup.ensureIndex).
func (a *Analyzer) group(img *Image) {
	g := &sealedGroup{n: len(img.Exes), it: a.interner, bound: a.interner.Size(), tel: a.idx, game: a.game, exes: make([]*sim.Exe, len(img.Exes))}
	img.own = &SealedImage{store: exeStore{g}, occs: make([]snapshot.Occurrence, len(img.Exes))}
	for i, e := range img.Exes {
		g.exes[i] = e.exe
		img.own.occs[i] = snapshot.Occurrence{Path: e.Path, Exe: i}
	}
}

// fileJob is one file of an image on its way through OpenImage's pool,
// and what became of it: an executable, a failure, or neither (configs
// and the like, left out silently).
type fileJob struct {
	path string
	// data is the file's bytes and the key its analysis is shared under;
	// nil for a carved executable, which arrives parsed (file).
	data []byte
	file *obj.File
	exe  *Executable
	err  error
}

// analyzeFile parses one file and analyses it under the session's
// budget (analyzePooled), or answers it from the analysis of the same
// bytes — earlier in this image, in an earlier image, or still running
// on another worker — as a shallow copy under this file's path.
func (a *Analyzer) analyzeFile(j *fileJob, parent telemetry.Span) {
	if j.data == nil {
		j.exe, j.err = a.analyzePooled(j.path, j.file, parent)
		return
	}
	f, err := a.front.read(j.data, parent)
	if err != nil {
		return // not an executable
	}
	key := sha256.Sum256(j.data)
	c, _ := a.analysed.LoadOrStore(key, new(analysis))
	an := c.(*analysis)
	an.once.Do(func() { an.exe, an.err = a.analyzePooled(j.path, f, parent) })
	switch {
	case an.err != nil: // it names the path it was first seen under
		j.err = fmt.Errorf("firmup: %s: %w", j.path, errors.Unwrap(an.err))
	case an.exe.Path == j.path:
		j.exe = an.exe
	default:
		j.exe = &Executable{Path: j.path, exe: an.exe.exe.WithPath(j.path)}
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
// (exeStore.search) over the image's private group: one posting scan
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
	res, err := img.own.store.search(cqs, []*SealedImage{img.own}, opt, sp)
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
