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
// searches — one pass over its distinct executables, narrowed by an
// inverted index that ranks candidates by shared-strand count and skips
// targets that provably cannot clear the acceptance threshold.
//
// Quick start:
//
//	a := firmup.NewAnalyzer(nil)
//	img, _ := a.OpenImage(imageBytes)
//	sc, _ := a.Seal(img)
//	query, _ := sc.AnalyzeQuery(queryBytes, nil)
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
	"sync/atomic"

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
	// workers, so at most Workers goroutines analyse at any moment; a
	// corpus it seals lends the same tokens. Output never depends on it.
	Workers int
	// Telemetry, when non-nil, is the registry the session records its
	// pipeline metrics into: the root of the span every layer of its
	// analyses records through. The default (nil) disables telemetry
	// entirely: the spans are inert and every recording call is a no-op.
	// Analysis and search output are identical either way.
	Telemetry *telemetry.Registry
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
	// root is the span the session's work records under: a root of
	// opt.Telemetry, the zero Span — recording nothing — without one.
	// Stage and metric names are part of the report schema (see
	// telemetry.SchemaVersion); renaming any of them is a breaking change.
	root  telemetry.Span
	spare budget // the session's worker tokens (see analyzePooled)
	// analysed maps the SHA-256 of an executable's bytes, streamed or
	// carved, to its *analysis: the same executable ships in image after
	// image, and OpenImage analyses each distinct byte string once per
	// session. That byte string is the executable's identity: every
	// sighting of it holds the one *sim.Exe, which Seal stores once.
	analysed sync.Map
}

// analysis is one distinct byte string's analysis, which every sighting
// of it shares: run by the first sighting to claim it, awaited by every
// other, even one in flight.
type analysis struct {
	once sync.Once
	exe  *Executable
	err  error
}

// analyze is the analysis front end after the parse (obj.ReadWith),
// spelled once for the session and a sealed corpus's query analysis:
// sweep, claim gaps and plan the procedures ("cfg.recover"), then lift
// each procedure and extract, intern and index it ("sim.build"), one
// procedure per build worker at a time, so the executable's UIR is never
// held whole — every layer timed and counted under parent — on the
// caller's goroutine plus a procedure worker per token b lends, up to
// workers in all.
func analyze(path string, f *obj.File, it strand.Interner, workers int, b budget, parent telemetry.Span) (*Executable, error) {
	rec, err := cfg.Plan(f, parent)
	if err != nil {
		return nil, fmt.Errorf("firmup: %s: %w", path, err)
	}
	lent := b.lend(min(workers, len(rec.Procs)) - 1)
	defer b.release(lent)
	bc := &sim.BuildConfig{Workers: 1 + lent, Span: parent}
	return &Executable{Path: path, exe: sim.BuildWith(path, rec, it, bc)}, nil
}

// budget is a session's worker tokens: every goroutine an analysis or a
// search adds to its caller's holds one (see Options.Workers).
type budget chan struct{}

// lend takes up to n tokens, as many as are free now, without waiting,
// and returns how many it took; release gives them back.
func (b budget) lend(n int) (k int) {
	for ; k < n; k++ {
		select {
		case b <- struct{}{}:
		default:
			return k
		}
	}
	return k
}

func (b budget) release(n int) {
	for range n {
		<-b
	}
}

// fan runs job(0) … job(n−1) on the caller's goroutine plus one per
// token b lends, at most workers−1, each claiming the next index.
func (b budget) fan(n, workers int, job func(int)) {
	lent := b.lend(min(n, workers) - 1)
	defer b.release(lent)
	var next atomic.Int64
	run := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			job(i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(lent)
	for range lent {
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run()
	wg.Wait()
}

// NewAnalyzer creates a session. NewAnalyzer(nil) selects the defaults.
func NewAnalyzer(opt *AnalyzerOptions) *Analyzer {
	a := &Analyzer{interner: corpusindex.NewInterner()}
	if opt != nil {
		a.opt = *opt
	}
	a.spare = make(budget, runtime.GOMAXPROCS(0))
	if a.opt.Workers > 0 {
		a.spare = make(budget, a.opt.Workers)
	}
	if r := a.opt.Telemetry; r != nil {
		a.root = telemetry.Root(r, nil)
		// A gauge mirror of state the session already tracks: evaluated at
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
// indexed as sets of canonical strands. Every sighting of one byte string
// in a session is an Executable of its own path over the same analysis.
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
	return analyze(path, f, a.interner, cap(a.spare), a.spare, parent)
}

// OpenImage unpacks a firmware image and analyzes every executable in
// it in one streamed pass, each file going to the session's pool as soon
// as it is unpacked (see AnalyzerOptions.Workers). Images that fail
// structural unpacking are carved binwalk-style for embedded
// executables. Executables that fail analysis are reported in
// Image.Skipped rather than silently dropped. The image's executables
// count into exe.analyzed and exe.skipped.
func (a *Analyzer) OpenImage(data []byte) (*Image, error) {
	sp := a.root.Start("image.open")
	defer sp.End()
	jobs := make(chan *fileJob)
	var wg sync.WaitGroup
	workers := cap(a.spare)
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
	add := func(fe image.FileEntry) {
		j := &fileJob{path: fe.Path, data: fe.Data}
		all = append(all, j)
		jobs <- j // waits for a free worker
	}
	usp := sp.Start("image.unpack")
	im, err := image.Stream(data, add)
	if err != nil {
		// Carving fallback: damaged or unknown container. The files
		// dispatched before the failure are analysed and left out; a
		// carved copy of one shares its analysis.
		all, im = nil, &image.Image{}
		for _, fe := range image.Carve(data) {
			add(fe)
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
	sp.Counter("exe.analyzed").Add(int64(len(out.Exes)))
	sp.Counter("exe.skipped").Add(int64(len(out.Skipped)))
	return out, nil
}

// fileJob is one file of an image on its way through OpenImage's pool,
// and what became of it: an executable, a failure, or neither (configs
// and the like, left out silently).
type fileJob struct {
	path string
	data []byte // the file's bytes, the key its analysis is shared under
	exe  *Executable
	err  error
}

// analyzeFile parses one file and answers it from the analysis of its
// bytes under this file's path: analysed here under the session's budget
// (analyzePooled) by the first sighting, or awaited from it — earlier in
// this image, in an earlier image, or still running on another worker.
func (a *Analyzer) analyzeFile(j *fileJob, parent telemetry.Span) {
	f, err := obj.ReadWith(j.data, parent)
	if err != nil {
		return // not an executable
	}
	key := sha256.Sum256(j.data)
	c, _ := a.analysed.LoadOrStore(key, new(analysis))
	an := c.(*analysis)
	an.once.Do(func() { an.exe, an.err = a.analyzePooled(j.path, f, parent) })
	if an.err != nil { // it names the path it was first seen under
		j.err = fmt.Errorf("firmup: %s: %w", j.path, errors.Unwrap(an.err))
		return
	}
	j.exe = &Executable{Path: j.path, exe: an.exe.exe}
}
