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
// An Analyzer builds: every executable it analyzes shares one strand-hash
// interner (canonical strand hashes deduplicated to dense IDs), and Seal
// freezes the session's images into a SealedCorpus. Only a SealedCorpus
// searches — one pass per group of distinct executables, narrowed by an
// inverted index that ranks candidates by shared-strand count and skips
// targets that provably cannot clear the acceptance threshold.
//
// Quick start:
//
//	a := firmup.NewAnalyzer(nil)
//	img, _ := a.OpenImage(imageBytes)
//	sc, _ := a.Seal(img)
//	query, _ := sc.AnalyzeQuery(queryBytes)
//	results, _ := sc.SearchAll(query, "ftp_retrieve_glob", nil)
//
// A corpus that is searched many times is sealed once, written as shards
// (SealedCorpus.WriteShards) and served from the shard directory
// (OpenSealedCorpus).
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
	"firmup/internal/corpusindex"
	"firmup/internal/image"
	_ "firmup/internal/isa/arm"  // register the ARM32 backend
	_ "firmup/internal/isa/mips" // register the MIPS32 backend
	_ "firmup/internal/isa/ppc"  // register the PPC32 backend
	_ "firmup/internal/isa/x86"  // register the x86 backend
	"firmup/internal/obj"
	"firmup/internal/sim"
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

// Analyzer is one analysis session, the write side: it analyzes images
// and seals them into a SealedCorpus, which is what searches. All
// executables analyzed under it share its strand-hash interner, so their
// strand sets carry comparable dense IDs. Each
// distinct in-image executable is analysed once, from scratch; nothing
// else is shared between analyses. An Analyzer is safe for concurrent use.
type Analyzer struct {
	opt      AnalyzerOptions
	interner *corpusindex.Interner
	// What the session records into, all of it nil/zero — recording
	// nothing — when telemetry is disabled. Stage and metric names are
	// part of the report schema (see telemetry.SchemaVersion); renaming
	// any of them is a breaking change.
	front        frontEnd
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
// strand extraction, indexing — spelled once for the session and a sealed
// corpus's query analysis, with the registry it records into: the
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

// analyze is the pass order after the parse — sweep, claim gaps and plan
// the procedures ("cfg.recover"), then lift each procedure and extract,
// intern and index it ("sim.build"), one procedure per build worker at a
// time, so the executable's UIR is never held whole — timed under parent
// like read. With a non-nil spare, one of whose tokens the
// caller holds, the build adds a procedure worker for every further
// token free at that moment, up to workers in all.
func (fe *frontEnd) analyze(path string, f *obj.File, it strand.Interner, workers int, spare chan struct{}, parent telemetry.Span) (*Executable, error) {
	parent = parent.Or(fe.root)
	rec, err := cfg.Plan(f, fe.cfg, parent)
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

// NewAnalyzer creates a session. NewAnalyzer(nil) selects the defaults.
func NewAnalyzer(opt *AnalyzerOptions) *Analyzer {
	a := &Analyzer{interner: corpusindex.NewInterner()}
	if opt != nil {
		a.opt = *opt
	}
	a.spare = make(chan struct{}, a.opt.workers())
	if r := a.opt.Telemetry; r != nil {
		a.front = newFrontEnd(r)
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
	return e.exe.Procs[i].Set.AppendHashes(nil)
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

// analyzePooled analyses f under the session's budget: it waits for a
// token of its own, and its build borrows what is free on top.
func (a *Analyzer) analyzePooled(path string, f *obj.File, parent telemetry.Span) (*Executable, error) {
	a.spare <- struct{}{}
	defer func() { <-a.spare }()
	return a.front.analyze(path, f, a.interner, a.opt.workers(), a.spare, parent)
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
	a.exesAnalyzed.Add(int64(len(out.Exes)))
	a.exesSkipped.Add(int64(len(out.Skipped)))
	return out, nil
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
