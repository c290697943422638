// Command firmup searches firmware images for a known vulnerable
// procedure, given a query executable that contains it — the tool the
// paper's motivating scenario describes.
//
// Usage:
//
//	firmup -query wget.felf -proc ftp_retrieve_glob image1.fwim [image2.fwim ...]
//	firmup -query wget.felf -proc ftp_retrieve_glob -corpus corpus.fwcorp.d
//	firmup ... -report run.json          # structured per-stage run report
//	firmup ... -trace-json traces.json   # per-finding game courses as JSON
//	firmup ... -debug-addr localhost:0   # expvar + pprof while running
//
// Image arguments are analyzed from scratch on every run. A corpus that
// is searched more than once is analyzed once — fwcrawl -sealed, or
// Analyzer.Seal and SealedCorpus.WriteShards — and searched with -corpus.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"firmup"
	"firmup/internal/buildinfo"
	"firmup/internal/telemetry"
)

// tracedFinding pairs one finding with the recorded course of the game
// that produced it — the -trace-json output schema.
type tracedFinding struct {
	Image string            `json:"image"`
	Exe   string            `json:"exe"`
	Proc  string            `json:"proc"`
	Game  *firmup.GameTrace `json:"game"`
}

// search is one run's settings, shared by the two corpus forms.
type search struct {
	proc      string
	opt       *firmup.Options
	workers   int
	verbose   bool
	traceJSON bool
	reg       *telemetry.Registry

	total  int
	traces []tracedFinding
}

// report prints one image's findings under its label. When -trace-json
// asked for the courses, exe resolves a finding's executable in the image
// and replay plays its game again with tracing.
func (s *search) report(label string, findings []firmup.Finding, exe func(path string) *firmup.Executable, replay func(target *firmup.Executable) (*firmup.GameTrace, error)) {
	for _, f := range findings {
		s.total++
		fmt.Printf("%s: %s at %#x in %s (Sim=%d, confidence=%.0f%%, %d game steps)\n",
			label, f.ProcName, f.ProcAddr, f.ExePath, f.Score, 100*f.Confidence, f.GameSteps)
		if !s.traceJSON {
			continue
		}
		target := exe(f.ExePath)
		if target == nil {
			continue
		}
		gt, err := replay(target)
		if err != nil {
			fatal(err)
		}
		s.traces = append(s.traces, tracedFinding{Image: label, Exe: f.ExePath, Proc: s.proc, Game: gt})
	}
}

// skips reports an image's executables that failed analysis.
func (s *search) skips(label string, skipped []firmup.SkipReason) int {
	if len(skipped) > 0 {
		fmt.Fprintf(os.Stderr, "firmup: %s: %d executable(s) skipped during analysis\n", label, len(skipped))
		if s.verbose {
			for _, sk := range skipped {
				fmt.Fprintf(os.Stderr, "firmup: %s: skipped %s: %v\n", label, sk.Path, sk.Err)
			}
		}
	}
	return len(skipped)
}

// images analyzes the query and every image file under one session — all
// strand sets share its interner, so every search narrows through the
// image's index — and searches the images one by one.
func (s *search) images(qdata []byte, paths []string) {
	analyzer := firmup.NewAnalyzer(&firmup.AnalyzerOptions{Workers: s.workers, Telemetry: s.reg})
	query, err := analyzer.LoadQueryExecutable(qdata)
	if err != nil {
		fatal(err)
	}
	replay := func(target *firmup.Executable) (*firmup.GameTrace, error) {
		_, gt, err := analyzer.MatchProcedureTraced(query, s.proc, target, s.opt)
		return gt, err
	}
	skipped, examined, searchable := 0, 0, 0
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			fatal(err)
		}
		start := time.Now()
		img, err := analyzer.OpenImage(data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "firmup: %s: %v\n", path, err)
			continue
		}
		if s.verbose {
			fmt.Fprintf(os.Stderr, "firmup: %s: analyzed in %v\n", path, time.Since(start).Round(time.Microsecond))
		}
		skipped += s.skips(path, img.Skipped)
		res, err := analyzer.SearchImageDetailed(query, s.proc, img, s.opt)
		if err != nil {
			fatal(err)
		}
		examined += res.Examined
		searchable += len(img.Exes)
		s.report(path, res.Findings, img.Executable, replay)
	}
	if s.verbose {
		fmt.Fprintf(os.Stderr, "firmup: session: %d unique strands interned, %d/%d executables examined, %d skipped\n",
			analyzer.UniqueStrands(), examined, searchable, skipped)
	}
}

// corpus opens a sealed corpus — a shard directory or a one-shard file —
// analyzes the query against its frozen vocabulary and searches every
// image in one pass per shard. An image is named vendor_device_version,
// as fwcrawl names its file.
func (s *search) corpus(qdata []byte, path string) {
	sc, err := firmup.OpenSealedCorpus(path)
	if err != nil {
		fatal(err)
	}
	defer sc.Close()
	sc.SetTelemetry(s.reg)
	start := time.Now()
	query, err := sc.AnalyzeQueryWith("query", qdata, s.workers)
	if err != nil {
		fatal(err)
	}
	all, err := sc.SearchAll(query, s.proc, s.opt)
	if err != nil {
		fatal(err)
	}
	if s.verbose {
		fmt.Fprintf(os.Stderr, "firmup: %s: %d images searched in %v\n", path, len(all), time.Since(start).Round(time.Microsecond))
	}
	replay := func(target *firmup.Executable) (*firmup.GameTrace, error) {
		_, gt, err := sc.MatchProcedureTraced(query, s.proc, target, s.opt)
		return gt, err
	}
	skipped, examined := 0, 0
	for i, img := range sc.Images() {
		label := strings.ReplaceAll(img.Vendor+"_"+img.Device+"_"+img.Version, "/", "-")
		skipped += s.skips(label, img.Skipped)
		examined += all[i].Examined
		s.report(label, all[i].Findings, img.Executable, replay)
	}
	if s.verbose {
		fmt.Fprintf(os.Stderr, "firmup: corpus: %d unique strands, %d/%d executables examined, %d skipped\n",
			sc.UniqueStrands(), examined, sc.Executables(), skipped)
	}
}

func main() {
	queryPath := flag.String("query", "", "query executable (FWELF) containing the vulnerable procedure")
	proc := flag.String("proc", "", "name of the vulnerable procedure in the query")
	corpusPath := flag.String("corpus", "", "search a sealed corpus (fwcrawl -sealed: a shard directory or a one-shard file) instead of image files")
	minScore := flag.Int("min-score", 0, "override minimum shared-strand count")
	minRatio := flag.Float64("min-ratio", 0, "override minimum shared-strand ratio")
	workers := flag.Int("workers", 0, "bound parallel analysis (default GOMAXPROCS)")
	exhaustive := flag.Bool("exhaustive", false, "disable the corpus-index prefilter (examine every executable)")
	verbose := flag.Bool("v", false, "report per-file skip reasons, timings and session statistics")
	reportPath := flag.String("report", "", "write a structured JSON run report (stage timings, counters, histograms) to this file")
	traceJSON := flag.String("trace-json", "", "re-play each finding's game with tracing and write the courses as JSON to this file")
	debugAddr := flag.String("debug-addr", "", "serve expvar and pprof debug endpoints on this address (e.g. localhost:6060)")
	version := flag.Bool("version", false, "print build version and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String())
		return
	}

	if *queryPath == "" || *proc == "" || (*corpusPath == "") == (flag.NArg() == 0) {
		fmt.Fprintln(os.Stderr, "usage: firmup -query <exe> -proc <name> <image>... | -corpus <shard dir or file>")
		os.Exit(2)
	}
	qdata, err := os.ReadFile(*queryPath)
	if err != nil {
		fatal(err)
	}
	// Telemetry is enabled only when a surface asks for it; otherwise the
	// session runs with nil handles and zero recording overhead.
	var reg *telemetry.Registry
	if *reportPath != "" || *debugAddr != "" {
		reg = telemetry.New()
	}
	if *debugAddr != "" {
		addr, err := telemetry.ServeDebug(*debugAddr, reg)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "firmup: debug endpoints at http://%s/debug/\n", addr)
	}
	rep := telemetry.NewReport("firmup", telemetry.ReportConfig{
		Workers: *workers, Index: !*exhaustive,
	})
	s := &search{
		proc:      *proc,
		opt:       &firmup.Options{MinScore: *minScore, MinRatio: *minRatio, Exhaustive: *exhaustive},
		workers:   *workers,
		verbose:   *verbose,
		traceJSON: *traceJSON != "",
		reg:       reg,
	}
	if *corpusPath != "" {
		s.corpus(qdata, *corpusPath)
	} else {
		s.images(qdata, flag.Args())
	}
	if *traceJSON != "" {
		blob, err := json.MarshalIndent(s.traces, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*traceJSON, append(blob, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "firmup: wrote %d game trace(s) to %s\n", len(s.traces), *traceJSON)
	}
	if *reportPath != "" {
		rep.Finish(reg)
		if err := rep.WriteFile(*reportPath); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "firmup: wrote run report to %s\n", *reportPath)
	}
	if s.total == 0 {
		fmt.Println("no occurrences of", *proc, "found")
		os.Exit(1)
	}
	fmt.Printf("%d occurrence(s) of %s found\n", s.total, *proc)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "firmup:", strings.TrimPrefix(err.Error(), "firmup: "))
	os.Exit(1)
}
