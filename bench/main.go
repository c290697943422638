// Command bench is the FirmUp benchmark: one program that measures the
// query, sweep, ingest and cold-start paths end to end — through the
// shipped firmupd binary and the public facade, driven from outside —
// and, in a separate traced run, attributes the same requests to the
// layers underneath. See README.md for every metric and workload.
//
//	cd bench && go run . -seed 1                  # every workload, untraced then traced
//	cd bench && go run . -workload serve-upload   # one workload
//	cd bench && go run . -aa                      # A/A check: the full set twice
//	bash bench/run.sh --workload ingest --seed 3 --seconds 12 --trace 0   # what the driver runs
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
)

func main() {
	if len(os.Args) > 2 && os.Args[1] == "-child" {
		if err := childMain(os.Args[2], os.Args[3:]); err != nil {
			fmt.Fprintln(os.Stderr, "bench child:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(realMain())
}

func realMain() int {
	var (
		workload = flag.String("workload", "all", "workload to run: all, or one of "+strings.Join(workloadNames, ", "))
		seed     = flag.Int64("seed", 1, "seed for the request order and the upload executables; the corpus is the same for every seed")
		seconds  = flag.Int("seconds", 12, "length of each workload's timed ops at the parent commit; op counts are fixed functions of it")
		trace    = flag.Int("trace", -1, "0: untraced run, print the end-to-end metrics as one JSON line; 1: traced run, print the per-layer metrics; -1: both, as a table")
		images   = flag.Int("images", 128, "firmware images in the corpus")
		aa       = flag.Bool("aa", false, "A/A check: run the full set twice and compare the two within the bounds")
		firmupd  = flag.String("firmupd", "", "firmupd binary to drive (built from ../cmd/firmupd when empty)")
		outDir   = flag.String("out", "", "directory for result.json and the trace files; history.jsonl is appended beside it (default: bench/out)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		return 2
	}
	if *seconds < 1 || *images < 4 || *trace < -1 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds >= 1, -images >= 4 and -trace in {-1,0,1} are required")
		return 2
	}
	names := workloadNames
	if *workload != "all" {
		if !slices.Contains(workloadNames, *workload) {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", *workload, strings.Join(workloadNames, ", "))
			return 2
		}
		names = []string{*workload}
	}
	if *trace >= 0 && len(names) != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace 0|1 prints one workload's metrics; name it with -workload")
		return 2
	}

	// An interrupt kills the children and stops new ones; the main
	// goroutine then finds its current step failing, reaps, removes the
	// work directory and exits, exactly as it does on success and failure.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		interrupt()
	}()

	c := &config{Seed: *seed, Seconds: *seconds, Images: *images, Firmupd: *firmupd, OutDir: *outDir}
	cleanup, err := c.prepare()
	if err == nil {
		err = c.dispatch(names, *trace, *aa)
	}
	killChildren()
	cleanup()
	switch {
	case stopping():
		fmt.Fprintln(os.Stderr, "bench: interrupted")
		return 130
	case err != nil:
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// prepare resolves the directories and binaries one invocation uses and
// returns the function that removes its scratch directory, which is
// safe to call whether or not prepare succeeded.
func (c *config) prepare() (cleanup func(), err error) {
	cleanup = func() {
		if c.Work != "" {
			os.RemoveAll(c.Work)
		}
	}
	if c.Self, err = os.Executable(); err != nil {
		return cleanup, err
	}
	if c.BenchDir, err = findBenchDir(); err != nil {
		return cleanup, err
	}
	if c.OutDir == "" {
		c.OutDir = filepath.Join(c.BenchDir, "out")
	}
	if c.OutDir, err = filepath.Abs(c.OutDir); err != nil {
		return cleanup, err
	}
	// Scratch lives inside the checkout, beside the build outputs.
	scratch := filepath.Join(filepath.Dir(c.BenchDir), ".bench_build")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return cleanup, err
	}
	if c.Work, err = os.MkdirTemp(scratch, "work-"); err != nil {
		return cleanup, err
	}
	if c.Firmupd == "" {
		c.Firmupd = filepath.Join(c.Work, "firmupd")
		cmd := exec.Command("go", "build", "-o", c.Firmupd, "firmup/cmd/firmupd")
		cmd.Dir = c.BenchDir
		if _, err := runTracked(cmd); err != nil {
			return cleanup, fmt.Errorf("building firmupd: %w", err)
		}
	}
	c.Firmupd, err = filepath.Abs(c.Firmupd)
	return cleanup, err
}

// findBenchDir locates bench/ from the working directory: the directory
// itself when run as `go run .` inside it, or ./bench from the root.
func findBenchDir() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Join(wd, "bench")} {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.Contains(string(b), "module firmup/bench") {
			return dir, nil
		}
	}
	return "", fmt.Errorf("run from the repository root or from bench/ (no bench go.mod under %s)", wd)
}

// forRun gives each workload run its own scratch directory.
func (c *config) forRun(tag string) (*config, error) {
	cc := *c
	cc.Work = filepath.Join(c.Work, tag)
	return &cc, os.MkdirAll(cc.Work, 0o755)
}

func (c *config) dispatch(names []string, trace int, aa bool) error {
	if trace >= 0 {
		return c.driverRun(names[0], trace == 1)
	}
	res, err := c.fullRun(names, "a")
	if err != nil {
		return err
	}
	if aa {
		res2, err := c.fullRun(names, "b")
		if err != nil {
			return err
		}
		if bad := compareAA(os.Stdout, res, res2); bad > 0 {
			return fmt.Errorf("A/A check: %d comparisons outside their bound", bad)
		}
		fmt.Println("A/A check: every comparison within its bound")
	}
	for _, wl := range res.Workloads {
		if wl.Failed > 0 {
			return fmt.Errorf("%s: %d of %d ops failed: %s", wl.Workload, wl.Failed, wl.Attempted, wl.FirstFail)
		}
		// The cross-check is enforced where the front-end is nearly the
		// whole request; on the sweep the search, identical on both sides,
		// hides any gap.
		if err := layerSumOff(wl.LayerRatio); err != nil && wl.Workload == wlServeUpload {
			return fmt.Errorf("%s: %w", wl.Workload, err)
		}
	}
	return nil
}

// driverRun is the contract mode: one workload, traced or not, with the
// result as the last line of standard output.
func (c *config) driverRun(name string, traced bool) error {
	fx, err := generate(c.Work, c.Images)
	if err != nil {
		return err
	}
	var t tally
	var metrics map[string]metric
	if traced {
		tr, err := c.traced(name, fx)
		if err != nil {
			return err
		}
		t, metrics = tr.tally, tr.metrics()
		if err := layerSumOff(tr.LayerRatio); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
		}
	} else {
		r, err := c.run(name, fx)
		if err != nil {
			return err
		}
		var extras map[string]metric
		metrics, extras = r.endToEnd()
		t = r.tally
		for _, k := range sortedKeys(extras) {
			fmt.Fprintf(os.Stderr, "bench: %s %s = %.4f %s\n", name, k, extras[k].Value, extras[k].Unit)
		}
	}
	if t.FirstFail != "" {
		fmt.Fprintln(os.Stderr, "bench: first failure:", t.FirstFail)
	}
	b, err := json.Marshal(&driverLine{Correct: t.Failed == 0, Attempted: t.Attempted, Failed: t.Failed, Metrics: metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// fullRun runs each named workload untraced and then traced, prints
// every metric, writes out/result.json and — when the set is complete —
// appends the trajectory line.
func (c *config) fullRun(names []string, tag string) (*result, error) {
	base, err := c.forRun(tag)
	if err != nil {
		return nil, err
	}
	fx, err := generate(base.Work, c.Images)
	if err != nil {
		return nil, err
	}
	res := newResult(c)
	for _, name := range names {
		rc, err := base.forRun(name)
		if err != nil {
			return nil, err
		}
		r, err := rc.run(name, fx)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		wl := res.workload(name)
		wl.setRun(r)
		if err := os.RemoveAll(rc.Work); err != nil {
			return nil, err
		}

		tc, err := base.forRun(name + "-traced")
		if err != nil {
			return nil, err
		}
		tr, err := tc.traced(name, fx)
		if err != nil {
			return nil, fmt.Errorf("%s (traced): %w", name, err)
		}
		wl.PerLayer, wl.Absent = tr.metrics(), tr.Absent
		wl.LayerSumUs, wl.FacadeUs, wl.LayerRatio = tr.LayerSumUs, tr.FacadeUs, tr.LayerRatio
		if tr.Failed > 0 {
			wl.Failed += tr.Failed
			if wl.FirstFail == "" {
				wl.FirstFail = "traced run: " + tr.FirstFail
			}
		}
		if err := tr.tracer.write(filepath.Join(c.OutDir, "trace-"+name+".jsonl")); err != nil {
			return nil, err
		}
		if err := os.RemoveAll(tc.Work); err != nil {
			return nil, err
		}
	}
	res.print(os.Stdout)
	if err := writeJSONFile(filepath.Join(c.OutDir, "result.json"), res); err != nil {
		return nil, err
	}
	if len(names) == len(workloadNames) {
		if err := res.appendHistory(filepath.Join(filepath.Dir(c.OutDir), "history.jsonl")); err != nil {
			return nil, err
		}
	}
	return res, nil
}
