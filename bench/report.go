package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"firmup/internal/buildinfo"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef declares a metric: name, unit and which way is better. The
// end-to-end list and the per-layer list below are the same lists
// BENCHMARK.json declares; a test holds the two files together.
type metricDef struct {
	Name         string
	Unit         string
	HigherBetter bool
	// Bound is how far an end-to-end metric may worsen, as a share of
	// the earlier median, before it counts as a regression.
	Bound float64
	// Exact marks values that must repeat exactly between two runs of
	// the same build on the same seed.
	Exact bool
}

// The time-based bounds are the widest the benchmark contract allows
// because the sandbox's speed wanders: README.md, "Bounds", has the
// measurements. The accuracy bounds are "any decrease": the scores are
// exact counts over a fixed corpus and fixed queries, and the smallest
// possible loss, one finding of the sweep's 1379, is 0.07%.
var endToEndDefs = []metricDef{
	{Name: "setup_s", Unit: "s", Bound: 0.25},
	{Name: "p50_ms", Unit: "ms", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", HigherBetter: true, Bound: 0.25},
	{Name: "cpu_ms_per_op", Unit: "ms", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Bound: 0.10},
	{Name: "recall", Unit: "ratio", HigherBetter: true, Bound: 0.0005, Exact: true},
	{Name: "precision", Unit: "ratio", HigherBetter: true, Bound: 0.0005, Exact: true},
	{Name: "bytes_per_exe", Unit: "B", Bound: 0.02, Exact: true},
}

// endToEnd reduces a run to the end-to-end metrics every workload
// reports. extras holds what only some workloads support (p90_ms) and
// what is reported beside the contract (fail_ratio, sample count).
func (r *runResult) endToEnd() (core, extras map[string]metric) {
	ops := float64(len(r.LatMs))
	core = map[string]metric{
		"setup_s":       {r.SetupS, "s"},
		"p50_ms":        {median(r.LatMs), "ms"},
		"ops_per_s":     {median(r.OpsPerS), "1/s"},
		"cpu_ms_per_op": {median(r.CPUMsPerOp), "ms"},
		"peak_rss_mb":   {r.PeakRSSMB, "MB"},
		"recall":        {r.Score.recall(), "ratio"},
		"precision":     {r.Score.precision(), "ratio"},
		"bytes_per_exe": {float64(r.ShardBytes) / float64(r.Exes), "B"},
	}
	extras = map[string]metric{
		"fail_ratio": {float64(r.Failed) / float64(r.Attempted), "ratio"},
		"samples":    {ops, "count"},
	}
	// The highest percentile with at least ten samples beyond it: p90
	// needs a hundred samples, which cold-start does not have.
	if supported(len(r.LatMs), 90) {
		extras["p90_ms"] = metric{percentile(r.LatMs, 90), "ms"}
	}
	if r.Uploads != nil {
		extras["upload_recall"] = metric{r.Uploads.recall(), "ratio"}
		extras["upload_precision"] = metric{r.Uploads.precision(), "ratio"}
	}
	return core, extras
}

// driverLine is the one JSON object the benchmark contract wants as the
// last line of standard output.
type driverLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloadReport is one workload's entry in result.json.
type workloadReport struct {
	Workload  string             `json:"workload"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	FirstFail string             `json:"first_failure,omitempty"`
	EndToEnd  map[string]metric  `json:"end_to_end,omitempty"`
	Extras    map[string]metric  `json:"extras,omitempty"`
	Windows   *windowRates       `json:"windows,omitempty"`
	Score     *score             `json:"score,omitempty"`
	ISAPairs  map[string]pairRow `json:"isa_pairs,omitempty"`
	PerLayer  map[string]metric  `json:"per_layer,omitempty"`
	// Absent lists daemon counters the traced run asked for by name and
	// the daemon did not export.
	Absent     []string `json:"absent,omitempty"`
	LayerSumUs float64  `json:"layer_self_sum_us,omitempty"`
	FacadeUs   float64  `json:"facade_analyze_plus_search_us,omitempty"`
	LayerRatio float64  `json:"layer_sum_over_facade,omitempty"`
}

// pairRow is one cell of the 4x4 query-ISA x image-ISA matrix.
type pairRow struct {
	score
	Recall    float64 `json:"recall"`
	Precision float64 `json:"precision"`
}

// result is bench/out/result.json.
type result struct {
	Schema    int               `json:"schema"`
	Generated string            `json:"generated"`
	Revision  string            `json:"revision"`
	GoVersion string            `json:"go_version"`
	NProc     int               `json:"nproc"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Images    int               `json:"images"`
	Shards    int               `json:"shards"`
	Clients   int               `json:"clients"`
	Workloads []*workloadReport `json:"workloads"`
}

// revision is the git revision the trajectory is keyed by: the one
// stamped into the binary when there is one, else — `go run` and
// -buildvcs=false stamp nothing — what git says about the checkout the
// benchmark directory is in, else "unknown".
func revision(benchDir string) string {
	if r := buildinfo.Revision(); r != "unknown" {
		return r
	}
	out, err := exec.Command("git", "-C", benchDir, "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	rev := strings.TrimSpace(string(out))
	st, err := exec.Command("git", "-C", benchDir, "status", "--porcelain").Output()
	if err == nil && len(bytes.TrimSpace(st)) > 0 {
		rev += "-dirty"
	}
	return rev
}

func newResult(c *config) *result {
	return &result{
		Schema:    1,
		Generated: time.Now().UTC().Format(time.RFC3339),
		Revision:  revision(c.BenchDir),
		GoVersion: buildinfo.GoVersion(),
		NProc:     runtime.NumCPU(),
		Seed:      c.Seed, Seconds: c.Seconds, Images: c.Images, Shards: shardsFor(c.Images), Clients: clients,
	}
}

func (res *result) workload(name string) *workloadReport {
	for _, w := range res.Workloads {
		if w.Workload == name {
			return w
		}
	}
	w := &workloadReport{Workload: name}
	res.Workloads = append(res.Workloads, w)
	return w
}

func (w *workloadReport) setRun(r *runResult) {
	w.Attempted, w.Failed, w.FirstFail = r.Attempted, r.Failed, r.FirstFail
	w.EndToEnd, w.Extras = r.endToEnd()
	w.Windows = &r.windowRates
	s := r.Score
	w.Score = &s
	if len(r.Pairs) > 0 {
		w.ISAPairs = map[string]pairRow{}
		for k, p := range r.Pairs {
			w.ISAPairs[k] = pairRow{score: *p, Recall: p.recall(), Precision: p.precision()}
		}
	}
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func sortedKeys(m map[string]metric) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// print writes every metric by name with its unit.
func (res *result) print(w io.Writer) {
	fmt.Fprintf(w, "firmup bench: rev %s, %s, nproc %d, seed %d, %d images / %d shards, %d closed-loop clients\n",
		res.Revision, res.GoVersion, res.NProc, res.Seed, res.Images, res.Shards, res.Clients)
	for _, wl := range res.Workloads {
		fmt.Fprintf(w, "\n== %s: %d attempted, %d failed\n", wl.Workload, wl.Attempted, wl.Failed)
		if wl.FirstFail != "" {
			fmt.Fprintf(w, "   first failure: %s\n", wl.FirstFail)
		}
		for _, d := range endToEndDefs {
			if m, ok := wl.EndToEnd[d.Name]; ok {
				fmt.Fprintf(w, "   %-30s %14.4f %s\n", d.Name, m.Value, m.Unit)
			}
		}
		for _, k := range sortedKeys(wl.Extras) {
			fmt.Fprintf(w, "   %-30s %14.4f %s\n", k, wl.Extras[k].Value, wl.Extras[k].Unit)
		}
		if len(wl.ISAPairs) > 0 {
			var ks []string
			for k := range wl.ISAPairs {
				ks = append(ks, k)
			}
			sort.Strings(ks)
			fmt.Fprintf(w, "   recall/precision per query ISA > image ISA:\n")
			for _, k := range ks {
				p := wl.ISAPairs[k]
				fmt.Fprintf(w, "     %-18s recall %.4f  precision %.4f  (%d relevant, %d reported)\n", k, p.Recall, p.Precision, p.Relevant, p.Reported)
			}
		}
		for _, d := range perLayerDefs {
			if m, ok := wl.PerLayer[d.Name]; ok {
				fmt.Fprintf(w, "   %-30s %14.4f %s\n", d.Name, m.Value, m.Unit)
			}
		}
		if wl.LayerRatio > 0 {
			fmt.Fprintf(w, "   layer self times sum to %.1f us per request; AnalyzeQueryWith + search took %.1f us; per request the one is %.3f of the other\n",
				wl.LayerSumUs, wl.FacadeUs, wl.LayerRatio)
		}
		if len(wl.Absent) > 0 {
			fmt.Fprintf(w, "   daemon counters absent: %s\n", strings.Join(wl.Absent, ", "))
		}
	}
}

// historyLine is one entry of bench/history.jsonl, the kept trajectory.
type historyLine struct {
	Generated string                        `json:"generated"`
	Revision  string                        `json:"revision"`
	GoVersion string                        `json:"go_version"`
	NProc     int                           `json:"nproc"`
	Seed      int64                         `json:"seed"`
	Seconds   int                           `json:"seconds"`
	Images    int                           `json:"images"`
	EndToEnd  map[string]map[string]float64 `json:"end_to_end"` // workload -> metric -> value
}

// appendHistory adds one line for a full run; the file is only ever
// appended to.
func (res *result) appendHistory(path string) error {
	h := historyLine{
		Generated: res.Generated, Revision: res.Revision, GoVersion: res.GoVersion,
		NProc: res.NProc, Seed: res.Seed, Seconds: res.Seconds, Images: res.Images,
		EndToEnd: map[string]map[string]float64{},
	}
	for _, wl := range res.Workloads {
		row := map[string]float64{}
		for k, m := range wl.EndToEnd {
			row[k] = m.Value
		}
		for _, k := range []string{"p90_ms", "fail_ratio"} {
			if m, ok := wl.Extras[k]; ok {
				row[k] = m.Value
			}
		}
		h.EndToEnd[wl.Workload] = row
	}
	b, err := json.Marshal(&h)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// compareAA prints, per workload and end-to-end metric, how far the
// second of two full runs of one build is worse than the first, beside
// the bound, and returns how many comparisons failed: a bounded metric
// past its bound, or a count that did not repeat exactly.
func compareAA(w io.Writer, a, b *result) int {
	bad := 0
	fmt.Fprintf(w, "\nA/A check: second run against the first, same build, same seed\n")
	fmt.Fprintf(w, "%-14s %-28s %14s %14s %9s %7s\n", "workload", "metric", "run A", "run B", "worse by", "bound")
	for _, wa := range a.Workloads {
		wb := b.workload(wa.Workload)
		row := func(name string, va, vb float64, d *metricDef) {
			verdict := ""
			wors := worsening(va, vb, d.HigherBetter)
			switch {
			case d.Exact && va != vb:
				verdict, bad = "  NOT EXACT", bad+1
			case d.Bound > 0 && wors > d.Bound:
				verdict, bad = "  OVER BOUND", bad+1
			}
			bound := "exact"
			if !d.Exact {
				bound = fmt.Sprintf("%.0f%%", 100*d.Bound)
			}
			fmt.Fprintf(w, "%-14s %-28s %14.4f %14.4f %8.2f%% %7s%s\n", wa.Workload, name, va, vb, 100*wors, bound, verdict)
		}
		for i := range endToEndDefs {
			d := &endToEndDefs[i]
			row(d.Name, wa.EndToEnd[d.Name].Value, wb.EndToEnd[d.Name].Value, d)
		}
		if wa.Failed > 0 || wb.Failed > 0 {
			fmt.Fprintf(w, "%-14s failed ops: %d and %d  FAILED OPS\n", wa.Workload, wa.Failed, wb.Failed)
			bad++
		}
		for i := range perLayerDefs {
			d := &perLayerDefs[i]
			if !d.Exact {
				continue
			}
			// A count of 0 on both sides is a layer this workload never
			// calls, not a comparison.
			ma, mb := wa.PerLayer[d.Name], wb.PerLayer[d.Name]
			if ma.Value != 0 || mb.Value != 0 {
				row(d.Name, ma.Value, mb.Value, d)
			}
		}
	}
	return bad
}
