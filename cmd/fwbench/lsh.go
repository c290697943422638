package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"firmup"
	"firmup/internal/corpus"
	"firmup/internal/eval"
	"firmup/internal/uir"
)

// lshQueryReport is one CVE query's exact-vs-approx accounting.
type lshQueryReport struct {
	CVE       string `json:"cve"`
	Procedure string `json:"procedure"`
	// Examined counts are summed over every per-image search result:
	// the candidates the game engine actually played against.
	ExactExamined  int     `json:"exact_examined"`
	ApproxExamined int     `json:"approx_examined"`
	ExactFindings  int     `json:"exact_findings"`
	ApproxFindings int     `json:"approx_findings"`
	ExactNs        int64   `json:"exact_ns"`
	ApproxNs       int64   `json:"approx_ns"`
	Recall         float64 `json:"recall"`
}

// lshBenchReport is the "lsh" section merged into BENCH_scale.json.
type lshBenchReport struct {
	Generated      string           `json:"generated"`
	Images         int              `json:"images"`
	Shards         int              `json:"shards"`
	Queries        []lshQueryReport `json:"queries"`
	ExactExamined  int              `json:"exact_examined"`
	ApproxExamined int              `json:"approx_examined"`
	// ExaminedRatio is approx/exact total candidates examined: the
	// fraction of exact-prefilter candidates the LSH band gate leaves
	// standing.
	ExaminedRatio float64 `json:"examined_ratio"`
	SpeedupSearch float64 `json:"speedup_search"`
	// Recall is pooled over all queries; the CI floor is 0.95.
	Recall float64 `json:"recall"`
}

// lshQueries are the CVE probes the experiment replays in both modes.
var lshQueries = []struct {
	cve, pkg, version, proc string
	arch                    uir.Arch
}{
	{"CVE-2014-4877", "wget", "1.15", "ftp_retrieve_glob", uir.ArchMIPS32},
	{"CVE-2013-1944", "libcurl", "7.29.0", "tailmatch", uir.ArchARM32},
}

// lshBench measures the MinHash/LSH candidate tier at corpus scale:
// the streamed corpus is sealed, written as v3 shards (signature slab
// included), reopened mmap-backed, and probed with the CVE queries in
// exact mode (the plain prefilter; the signature tier stays untouched)
// and in approximate mode (band collisions gate the candidate set, the
// first query building the tier). Reported:
// candidates examined, wall clock, and approximate recall against the
// exact findings. Exits non-zero if pooled recall drops below 0.95.
func lshBench(nImages, nShards int, jsonOut bool) {
	if nImages < 1 {
		nImages = 1
	}
	if nShards < 1 {
		nShards = 1
	}
	fmt.Printf("=== lsh: MinHash candidate tier, %d images x %d shards ===\n", nImages, nShards)

	a := firmup.NewAnalyzer(nil)
	var imgs []*firmup.Image
	err := corpus.Stream(corpus.ScaleForImages(nImages), func(bi *corpus.BuiltImage) error {
		if len(imgs) >= nImages {
			return corpus.ErrStop
		}
		img, err := a.OpenImage(bi.Image.Pack(true))
		if err != nil {
			return err
		}
		imgs = append(imgs, img)
		return nil
	})
	if err != nil {
		fatal(err)
	}
	sealed, err := a.Seal(imgs...)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("  sealed %d images: %d executables, %d unique strands\n",
		len(imgs), sealed.Executables(), sealed.UniqueStrands())

	dir, err := os.MkdirTemp("", "fwbench-lsh-*")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)
	shardDir := filepath.Join(dir, "shards")
	if _, err := sealed.WriteShards(shardDir, nShards); err != nil {
		fatal(err)
	}
	a, imgs, sealed = nil, nil, nil

	sc, err := firmup.OpenSealedCorpus(shardDir)
	if err != nil {
		fatal(err)
	}
	defer sc.Close()

	rep := lshBenchReport{
		Generated: time.Now().UTC().Format(time.RFC3339),
		Images:    nImages,
		Shards:    nShards,
	}
	var pooled eval.RecallStats
	for _, q := range lshQueries {
		_, qf, err := corpus.QueryExe(q.pkg, q.version, q.arch)
		if err != nil {
			fatal(err)
		}
		qe, err := sc.AnalyzeQuery(qf.Bytes())
		if err != nil {
			fatal(err)
		}
		run := func(approx bool) ([]firmup.ImageFindings, int64) {
			t0 := time.Now()
			res, err := sc.SearchAll(qe, q.proc, &firmup.Options{Approx: approx})
			if err != nil {
				fatal(err)
			}
			return res, time.Since(t0).Nanoseconds()
		}
		// Untimed warm-up: materialize every executable the timed passes
		// will touch, so the exact pass (first) doesn't pay the cold
		// mmap/materialization cost that the approximate pass (a subset
		// of the same candidates, run second) would then skip for free —
		// and build the signature tier, which the first approximate
		// query pays for and the timed one should not.
		run(false)
		run(true)
		exactRes, exactNs := run(false)
		approxRes, approxNs := run(true)

		row := lshQueryReport{CVE: q.cve, Procedure: q.proc, ExactNs: exactNs, ApproxNs: approxNs}
		exactKeys := findingKeys(exactRes)
		approxKeys := findingKeys(approxRes)
		row.ExactFindings = len(exactKeys)
		row.ApproxFindings = len(approxKeys)
		for _, img := range exactRes {
			row.ExactExamined += img.Examined
		}
		for _, img := range approxRes {
			row.ApproxExamined += img.Examined
		}
		var rs eval.RecallStats
		rs.Observe(exactKeys, approxKeys)
		pooled.Observe(exactKeys, approxKeys)
		row.Recall = rs.Recall()
		rep.Queries = append(rep.Queries, row)
		rep.ExactExamined += row.ExactExamined
		rep.ApproxExamined += row.ApproxExamined
		fmt.Printf("  %s %s: examined %d -> %d, findings %d -> %d, recall %.3f, %.2f ms -> %.2f ms\n",
			q.cve, q.proc, row.ExactExamined, row.ApproxExamined,
			row.ExactFindings, row.ApproxFindings, row.Recall,
			float64(exactNs)/1e6, float64(approxNs)/1e6)
	}
	rep.Recall = pooled.Recall()
	if rep.ExactExamined > 0 {
		rep.ExaminedRatio = float64(rep.ApproxExamined) / float64(rep.ExactExamined)
	}
	var exactNs, approxNs int64
	for _, row := range rep.Queries {
		exactNs += row.ExactNs
		approxNs += row.ApproxNs
	}
	if approxNs > 0 {
		rep.SpeedupSearch = float64(exactNs) / float64(approxNs)
	}
	fmt.Printf("  total: examined %d -> %d (ratio %.3f), recall %.3f, speedup %.2fx\n\n",
		rep.ExactExamined, rep.ApproxExamined, rep.ExaminedRatio, rep.Recall, rep.SpeedupSearch)

	if jsonOut {
		if err := updateBenchScale(func(doc map[string]json.RawMessage) error {
			blob, err := json.Marshal(rep)
			if err != nil {
				return err
			}
			doc["lsh"] = blob
			return nil
		}); err != nil {
			fatal(err)
		}
		fmt.Println("merged lsh section into BENCH_scale.json")
	}
	if rep.Recall < 0.95 {
		fmt.Fprintf(os.Stderr, "fwbench: lsh: approximate recall %.3f below 0.95 floor\n", rep.Recall)
		os.Exit(1)
	}
}

// findingKeys flattens per-image search results into recall keys.
func findingKeys(res []firmup.ImageFindings) map[eval.FindingKey]bool {
	keys := make(map[eval.FindingKey]bool)
	for i, img := range res {
		for _, f := range img.Findings {
			keys[eval.FindingKey{Image: i, ExePath: f.ExePath, ProcAddr: f.ProcAddr}] = true
		}
	}
	return keys
}

// updateBenchScale rewrites BENCH_scale.json in place, applying mutate
// to whatever JSON object the file already holds. The scale and lsh
// experiments share the file — each owns its keys and preserves the
// other's, so either can run (and re-run) independently.
func updateBenchScale(mutate func(doc map[string]json.RawMessage) error) error {
	doc := map[string]json.RawMessage{}
	if blob, err := os.ReadFile("BENCH_scale.json"); err == nil {
		// A malformed file is rebuilt from scratch rather than erroring.
		_ = json.Unmarshal(blob, &doc)
	}
	if err := mutate(doc); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile("BENCH_scale.json", append(blob, '\n'), 0o644)
}
