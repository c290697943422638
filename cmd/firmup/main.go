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
// Image arguments are analyzed from scratch on every run and sealed into
// a corpus of their own, each image named by its path. A corpus that is
// searched more than once is analyzed once — fwcrawl -sealed, or
// Analyzer.Seal and SealedCorpus.WriteShards — and searched with -corpus,
// each image named vendor_device_version. Both forms run the same search.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
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

// search is one run's settings and what it found.
type search struct {
	proc      string
	opt       *firmup.Options
	workers   int
	verbose   bool
	traceJSON bool
	reg       *telemetry.Registry
	stdout    io.Writer
	stderr    io.Writer

	total  int
	traces []tracedFinding
}

// images analyzes every image file under one session and seals the ones
// that opened into a corpus of their own, labelling each by its path.
func (s *search) images(paths []string) (*firmup.SealedCorpus, []string, error) {
	analyzer := firmup.NewAnalyzer(&firmup.AnalyzerOptions{Workers: s.workers, Telemetry: s.reg})
	var imgs []*firmup.Image
	var labels []string
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, err
		}
		start := time.Now()
		img, err := analyzer.OpenImage(data)
		if err != nil {
			fmt.Fprintf(s.stderr, "firmup: %s: %v\n", path, err)
			continue
		}
		if s.verbose {
			fmt.Fprintf(s.stderr, "firmup: %s: analyzed in %v\n", path, time.Since(start).Round(time.Microsecond))
		}
		imgs = append(imgs, img)
		labels = append(labels, path)
	}
	sc, err := analyzer.Seal(imgs...)
	return sc, labels, err
}

// corpusLabels names each image of an opened sealed corpus
// vendor_device_version, as fwcrawl names its file.
func corpusLabels(sc *firmup.SealedCorpus) []string {
	labels := make([]string, len(sc.Images()))
	for i, img := range sc.Images() {
		labels[i] = strings.ReplaceAll(img.Vendor+"_"+img.Device+"_"+img.Version, "/", "-")
	}
	return labels
}

// search analyzes the query against the corpus's frozen vocabulary,
// searches every image in one pass over the corpus's distinct executables and
// reports image i's findings under labels[i]. With -trace-json, each
// finding's game is played again with tracing.
func (s *search) search(sc *firmup.SealedCorpus, labels []string, qdata []byte) error {
	// Query analysis and the search record under the registry's root, so
	// a report splits the search into store.materialize and core.search.
	sc.SetTelemetry(s.reg)
	start := time.Now()
	query, err := sc.AnalyzeQuery(qdata, &firmup.Options{Workers: s.workers})
	if err != nil {
		return err
	}
	all, err := sc.SearchAll(query, s.proc, s.opt)
	if err != nil {
		return err
	}
	if s.verbose {
		fmt.Fprintf(s.stderr, "firmup: %d images searched in %v\n", len(all), time.Since(start).Round(time.Microsecond))
	}
	skipped, examined := 0, 0
	for i, img := range sc.Images() {
		label := labels[i]
		if n := len(img.Skipped); n > 0 {
			skipped += n
			fmt.Fprintf(s.stderr, "firmup: %s: %d executable(s) skipped during analysis\n", label, n)
			if s.verbose {
				for _, sk := range img.Skipped {
					fmt.Fprintf(s.stderr, "firmup: %s: skipped %s: %v\n", label, sk.Path, sk.Err)
				}
			}
		}
		examined += all[i].Examined
		for _, f := range all[i].Findings {
			s.total++
			fmt.Fprintf(s.stdout, "%s: %s at %#x in %s (Sim=%d, confidence=%.0f%%, %d game steps)\n",
				label, f.ProcName, f.ProcAddr, f.ExePath, f.Score, 100*f.Confidence, f.GameSteps)
			if !s.traceJSON {
				continue
			}
			target := img.Executable(f.ExePath)
			if target == nil {
				continue
			}
			_, gt, err := sc.MatchProcedureTraced(query, s.proc, target, s.opt)
			if err != nil {
				return err
			}
			s.traces = append(s.traces, tracedFinding{Image: label, Exe: f.ExePath, Proc: s.proc, Game: gt})
		}
	}
	if s.verbose {
		fmt.Fprintf(s.stderr, "firmup: corpus: %d unique strands, %d/%d executables examined, %d skipped\n",
			sc.UniqueStrands(), examined, sc.Executables(), skipped)
	}
	return nil
}

// errUsage is a command line that names no query, no procedure, or not
// exactly one of image arguments and -corpus.
var errUsage = errors.New("usage: firmup -query <exe> -proc <name> <image>... | -corpus <shard dir or file>")

// run is the command: it searches as args ask, writes findings to stdout
// and diagnostics to stderr, and returns the exit status — 0 when
// something was found (or -h, -version asked), 1 when nothing was or on
// an error, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	found, err := runSearch(args, stdout, stderr)
	switch {
	case errors.Is(err, flag.ErrHelp): // -h printed the usage it asked for
		return 0
	case errors.Is(err, errUsage):
		return 2
	case err != nil:
		fmt.Fprintln(stderr, "firmup:", strings.TrimPrefix(err.Error(), "firmup: "))
		return 1
	case !found:
		return 1
	}
	return 0
}

// runSearch is run's body: whether the search found anything, or why it
// could not run.
func runSearch(args []string, stdout, stderr io.Writer) (bool, error) {
	fs := flag.NewFlagSet("firmup", flag.ContinueOnError)
	fs.SetOutput(stderr)
	queryPath := fs.String("query", "", "query executable (FWELF) containing the vulnerable procedure")
	proc := fs.String("proc", "", "name of the vulnerable procedure in the query")
	corpusPath := fs.String("corpus", "", "search a sealed corpus (fwcrawl -sealed: a shard directory or a one-shard file) instead of image files")
	minScore := fs.Int("min-score", 0, "override minimum shared-strand count")
	minRatio := fs.Float64("min-ratio", 0, "override minimum shared-strand ratio")
	workers := fs.Int("workers", 0, "bound parallel analysis (default GOMAXPROCS)")
	exhaustive := fs.Bool("exhaustive", false, "disable the corpus-index prefilter (examine every executable)")
	verbose := fs.Bool("v", false, "report per-file skip reasons, timings and session statistics")
	reportPath := fs.String("report", "", "write a structured JSON run report (stage timings, counters, histograms) to this file")
	traceJSON := fs.String("trace-json", "", "re-play each finding's game with tracing and write the courses as JSON to this file")
	debugAddr := fs.String("debug-addr", "", "serve expvar and pprof debug endpoints on this address (e.g. localhost:6060)")
	version := fs.Bool("version", false, "print build version and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return false, err
		}
		return false, errUsage
	}
	if *version {
		fmt.Fprintln(stdout, buildinfo.String())
		return true, nil
	}
	if *queryPath == "" || *proc == "" || (*corpusPath == "") == (fs.NArg() == 0) {
		fmt.Fprintln(stderr, errUsage)
		return false, errUsage
	}
	qdata, err := os.ReadFile(*queryPath)
	if err != nil {
		return false, err
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
			return false, err
		}
		fmt.Fprintf(stderr, "firmup: debug endpoints at http://%s/debug/\n", addr)
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
		stdout:    stdout,
		stderr:    stderr,
	}
	var sc *firmup.SealedCorpus
	var labels []string
	if *corpusPath != "" {
		if sc, err = firmup.OpenSealedCorpus(*corpusPath); err != nil {
			return false, err
		}
		defer sc.Close()
		labels = corpusLabels(sc)
	} else if sc, labels, err = s.images(fs.Args()); err != nil {
		return false, err
	}
	if err := s.search(sc, labels, qdata); err != nil {
		return false, err
	}
	if *traceJSON != "" {
		blob, err := json.MarshalIndent(s.traces, "", "  ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(*traceJSON, append(blob, '\n'), 0o644); err != nil {
			return false, err
		}
		fmt.Fprintf(stderr, "firmup: wrote %d game trace(s) to %s\n", len(s.traces), *traceJSON)
	}
	if *reportPath != "" {
		rep.Finish(reg)
		if err := rep.WriteFile(*reportPath); err != nil {
			return false, err
		}
		fmt.Fprintf(stderr, "firmup: wrote run report to %s\n", *reportPath)
	}
	if s.total == 0 {
		fmt.Fprintln(stdout, "no occurrences of", *proc, "found")
		return false, nil
	}
	fmt.Fprintf(stdout, "%d occurrence(s) of %s found\n", s.total, *proc)
	return true, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
