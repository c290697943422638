package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"
)

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) *benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return &bj
}

func better(higher bool) string {
	if higher {
		return "higher"
	}
	return "lower"
}

// BENCHMARK.json and the metric lists in the code are one declaration
// written twice; this holds them together.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	bj := readBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(bj.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(bj.Workloads), len(workloadNames))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloadNames[i] || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %d is %q, the code says %q", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(bj.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the code %d", len(bj.EndToEnd), len(endToEndDefs))
	}
	hasSetup := false
	for i, m := range bj.EndToEnd {
		d := endToEndDefs[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != better(d.HigherBetter) || m.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, code %+v", i, m, d)
		}
		if !nameRE.MatchString(m.Name) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bad name or bound %v", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(bj.PerLayer) != len(perLayerDefs) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the code %d", len(bj.PerLayer), len(perLayerDefs))
	}
	for i, m := range bj.PerLayer {
		d := perLayerDefs[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != better(d.HigherBetter) || !nameRE.MatchString(m.Name) {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, code %+v", i, m, d)
		}
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds %d", bj.RunSeconds)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", bj.Paths)
	}
}

// built holds the two binaries the smoke tests drive.
type built struct{ bench, firmupd string }

func buildBinaries(t *testing.T) built {
	t.Helper()
	dir := t.TempDir()
	b := built{bench: filepath.Join(dir, "firmup-bench"), firmupd: filepath.Join(dir, "firmupd")}
	for _, c := range [][]string{
		{"go", "build", "-o", b.bench, "."},
		{"go", "build", "-o", b.firmupd, "firmup/cmd/firmupd"},
	} {
		if out, err := exec.Command(c[0], c[1:]...).CombinedOutput(); err != nil {
			t.Fatalf("%v: %v\n%s", c, err, out)
		}
	}
	return b
}

// workDirs lists the benchmark's scratch directories that exist now.
func workDirs(t *testing.T) map[string]bool {
	t.Helper()
	m, err := filepath.Glob(filepath.Join("..", ".bench_build", "work-*"))
	if err != nil {
		t.Fatal(err)
	}
	set := map[string]bool{}
	for _, p := range m {
		set[p] = true
	}
	return set
}

// running lists the PIDs whose executable is the given file.
func running(exe string) []string {
	var pids []string
	entries, _ := filepath.Glob("/proc/[0-9]*/exe")
	for _, e := range entries {
		if target, err := os.Readlink(e); err == nil && target == exe {
			pids = append(pids, filepath.Base(filepath.Dir(e)))
		}
	}
	return pids
}

// assertClean checks that a finished run left neither a daemon nor a
// scratch directory behind.
func assertClean(t *testing.T, b built, before map[string]bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(running(b.firmupd)) > 0 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if pids := running(b.firmupd); len(pids) > 0 {
		t.Errorf("firmupd still running after the benchmark exited: pids %v", pids)
	}
	for p := range workDirs(t) {
		if !before[p] {
			t.Errorf("work directory %s left behind", p)
		}
	}
}

func smokeArgs(b built, out string, extra ...string) []string {
	return append([]string{"-firmupd", b.firmupd, "-out", out, "-images", "8", "-seconds", "1"}, extra...)
}

// The full set on an 8-image corpus: every workload runs untraced and
// traced, result.json has the schema, every declared metric is there,
// and one history line is appended.
func TestSmokeFullRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := buildBinaries(t)
	bj := readBenchmarkJSON(t)
	before := workDirs(t)
	outRoot := t.TempDir()
	out := filepath.Join(outRoot, "out")
	cmd := exec.Command(b.bench, smokeArgs(b, out)...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("full run: %v\nstderr: %s\nstdout tail: %s", err, stderr.String(), tail(stdout.String(), 2000))
	}
	assertClean(t, b, before)

	data, err := os.ReadFile(filepath.Join(out, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	var res result
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("result.json: %v", err)
	}
	if res.Schema != 1 || res.NProc < 1 || res.GoVersion == "" || res.Revision == "" || res.Images != 8 || res.Clients != clients {
		t.Errorf("result.json header: %+v", res)
	}
	if len(res.Workloads) != len(bj.Workloads) {
		t.Fatalf("result.json has %d workloads, want %d", len(res.Workloads), len(bj.Workloads))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for i, wl := range res.Workloads {
		if wl.Workload != bj.Workloads[i].Name {
			t.Errorf("workload %d is %q, want %q", i, wl.Workload, bj.Workloads[i].Name)
		}
		if wl.Attempted < 1 || wl.Failed != 0 {
			t.Errorf("%s: %d attempted, %d failed (%s)", wl.Workload, wl.Attempted, wl.Failed, wl.FirstFail)
		}
		for _, m := range bj.EndToEnd {
			got, ok := wl.EndToEnd[m.Name]
			if !ok || got.Unit != m.Unit || got.Value <= 0 {
				t.Errorf("%s: end-to-end %s = %+v (present %v), want a positive value in %s", wl.Workload, m.Name, got, ok, m.Unit)
			}
			if !strings.Contains(stdout.String(), m.Name) {
				t.Errorf("the table does not print %s", m.Name)
			}
		}
		for _, m := range bj.PerLayer {
			if got, ok := wl.PerLayer[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s: per-layer %s = %+v (present %v), want unit %s", wl.Workload, m.Name, got, ok, m.Unit)
			}
		}
		for name := range wl.EndToEnd {
			if !nameRE.MatchString(name) {
				t.Errorf("%s: metric name %q", wl.Workload, name)
			}
		}
		for name := range wl.PerLayer {
			if !nameRE.MatchString(name) {
				t.Errorf("%s: metric name %q", wl.Workload, name)
			}
		}
		if _, err := os.Stat(filepath.Join(out, "trace-"+wl.Workload+".jsonl")); err != nil {
			t.Errorf("%s: %v", wl.Workload, err)
		}
	}
	sweep := res.Workloads[0]
	// Four query ISAs against each image ISA present: 4x4 on the full
	// corpus, 4x2 on these eight images.
	if n := len(sweep.ISAPairs); n < 4 || n%4 != 0 {
		t.Errorf("serve-sweep reports %d ISA pairs, want four per image ISA", n)
	}
	// Layers that must have been seen on the workloads that exercise them.
	for _, c := range []struct{ wl, metric string }{
		{wlServeUpload, "firmup.analyze_us"}, {wlServeUpload, "cfg.insts"}, {wlServeUpload, "strand.strands"},
		{wlServeUpload, "serve.server_us"}, {wlServeSweep, "core.examined"}, {wlBatchSweep, "core.batch_ratio"},
		{wlIngest, "image.exes"}, {wlIngest, "firmup.write_shards_us"}, {wlColdStart, "firmup.ready_ms"},
		{wlColdStart, "firmup.open_us"}, {wlServeSweep, "bench.trace_overhead_ratio"},
	} {
		if v := res.workload(c.wl).PerLayer[c.metric].Value; v <= 0 {
			t.Errorf("%s: %s = %v, want > 0", c.wl, c.metric, v)
		}
	}
	// The run itself fails when the layers' self times sum more than 10%
	// away from the facade's time; here, that the check had its inputs.
	if up := res.workload(wlServeUpload); up.LayerRatio <= 0 || layerSumOff(up.LayerRatio) != nil {
		t.Errorf("serve-upload: layer self times sum to %.0f us, the facade took %.0f us, ratio %.3f", up.LayerSumUs, up.FacadeUs, up.LayerRatio)
	}

	hist, err := os.ReadFile(filepath.Join(outRoot, "history.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(hist)), "\n")
	var h historyLine
	if len(lines) != 1 || json.Unmarshal([]byte(lines[0]), &h) != nil || len(h.EndToEnd) != len(workloadNames) || h.NProc < 1 {
		t.Errorf("history.jsonl: %d lines, first %+v", len(lines), h)
	}
}

func tail(s string, n int) string {
	if len(s) > n {
		return s[len(s)-n:]
	}
	return s
}

// The contract mode: the last line of standard output is one JSON object
// with exactly the declared metrics.
func TestSmokeDriverLine(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	b := buildBinaries(t)
	bj := readBenchmarkJSON(t)
	before := workDirs(t)
	for _, tc := range []struct {
		trace string
		want  int
	}{{"0", len(bj.EndToEnd)}, {"1", len(bj.PerLayer)}} {
		out, err := exec.Command(b.bench, smokeArgs(b, t.TempDir(), "--workload", "batch-sweep", "--seed", "7", "--trace", tc.trace)...).Output()
		if err != nil {
			t.Fatalf("--trace %s: %v", tc.trace, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var raw map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil || len(raw) != 4 {
			t.Fatalf("--trace %s: last line %q: %v", tc.trace, lines[len(lines)-1], err)
		}
		var line driverLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatal(err)
		}
		if !line.Correct || line.Attempted < 1 || line.Failed != 0 || len(line.Metrics) != tc.want {
			t.Errorf("--trace %s: %+v, want %d metrics", tc.trace, line, tc.want)
		}
	}
	assertClean(t, b, before)
}

// A run that cannot start the daemon fails, and still cleans up.
func TestSmokeFailureCleansUp(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	b := buildBinaries(t)
	before := workDirs(t)
	bad := b
	bad.firmupd = filepath.Join(t.TempDir(), "no-such-firmupd")
	out, err := exec.Command(b.bench, smokeArgs(bad, t.TempDir(), "--workload", "cold-start", "--trace", "0")...).Output()
	if err == nil {
		t.Fatalf("run without a daemon binary succeeded: %s", out)
	}
	if strings.Contains(string(out), `"metrics"`) {
		t.Errorf("failed run printed a result: %s", out)
	}
	assertClean(t, b, before)
}

// An interrupt reaps every child and removes the work dir, whether it
// arrives while the generator is still writing images — no child exists
// yet, and the main goroutine is the one writing — or while a daemon is
// up and serving.
func TestSmokeInterruptCleansUp(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	b := buildBinaries(t)
	for _, tc := range []struct {
		name  string
		args  []string
		ready func(work string) bool
	}{
		{"generating", []string{"-images", "64"}, func(work string) bool {
			_, err := os.Stat(filepath.Join(work, "images", "0001.fwim"))
			return err == nil && len(running(b.firmupd)) == 0
		}},
		{"serving", []string{"-seconds", "30"}, func(string) bool { return len(running(b.firmupd)) > 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := workDirs(t)
			args := append(smokeArgs(b, t.TempDir(), "--workload", "serve-sweep", "--trace", "0"), tc.args...)
			cmd := exec.Command(b.bench, args...)
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(60 * time.Second)
			for work := ""; work == "" || !tc.ready(work); time.Sleep(5 * time.Millisecond) {
				if time.Now().After(deadline) {
					cmd.Process.Kill()
					cmd.Wait()
					t.Fatal("the run never reached the phase to interrupt")
				}
				for p := range workDirs(t) {
					if !before[p] {
						work = p
					}
				}
			}
			if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
				t.Fatal(err)
			}
			err := cmd.Wait()
			if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 130 {
				t.Errorf("interrupted run exited with %v, want status 130", err)
			}
			assertClean(t, b, before)
		})
	}
}
