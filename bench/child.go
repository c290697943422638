package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"time"

	"firmup"
)

// The in-process workloads run in a child of the benchmark binary, so
// the CPU and resident set reported for them belong to the facade under
// test and never to the corpus generator in the parent.

// ingestReport is what the ingest child prints.
type ingestReport struct {
	childReport
	OpMs        []float64 `json:"op_ms"` // one OpenImage each; the pass's one window runs to the last shard written
	Images      int       `json:"images"`
	Executables int       `json:"executables"`
	ShardBytes  int64     `json:"shard_bytes"`
}

// batchQueryFile names one query of the batch child's request set.
type batchQueryFile struct {
	Proc string `json:"proc"`
	File string `json:"file"`
}

// batchReport is what the batch child prints.
type batchReport struct {
	childReport
	OpMs       []float64   `json:"op_ms"`      // one SearchAllBatch each
	Mismatched int         `json:"mismatched"` // timed ops whose findings' digest differed from the first warm-up op's
	Findings   [][]located `json:"findings"`   // per query, from the first warm-up op
}

func childMain(mode string, args []string) error {
	switch mode {
	case "ingest":
		return ingestChild(args)
	case "batch":
		return batchChild(args)
	}
	return fmt.Errorf("unknown child mode %q", mode)
}

func imageFilesIn(dir string) ([]string, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.fwim"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no packed images under %s", dir)
	}
	sort.Strings(files)
	return files, nil
}

// dirBytes sums the sizes of the given files.
func dirBytes(paths []string) (int64, error) {
	var n int64
	for _, p := range paths {
		st, err := os.Stat(p)
		if err != nil {
			return 0, err
		}
		n += st.Size()
	}
	return n, nil
}

// ingestWarmImages is how many images the ingest child's warm-up opens.
const ingestWarmImages = 16

// ingestChild is the write side: one Analyzer, one OpenImage per packed
// image, then Seal and WriteShards.
func ingestChild(args []string) error {
	fs := flag.NewFlagSet("ingest", flag.ContinueOnError)
	imgDir := fs.String("images", "", "directory of packed images")
	out := fs.String("out", "", "shard directory to write")
	if err := fs.Parse(args); err != nil {
		return err
	}
	files, err := imageFilesIn(*imgDir)
	if err != nil {
		return err
	}
	packed := make([][]byte, len(files))
	for i, f := range files {
		if packed[i], err = os.ReadFile(f); err != nil {
			return err
		}
	}
	// Warm-up, inside set-up: a throwaway session over the first few
	// images grows the heap and faults the code in, so the timed ops
	// start from a warm process and an empty session.
	warm := firmup.NewAnalyzer(nil)
	for _, data := range packed[:min(ingestWarmImages, len(packed))] {
		if _, err := warm.OpenImage(data); err != nil {
			return err
		}
	}
	a := firmup.NewAnalyzer(nil)
	rep := ingestReport{Images: len(files), OpMs: make([]float64, 0, len(files))}
	imgs := make([]*firmup.Image, 0, len(files))

	rep.ReadyUnixNano = time.Now().UnixNano()
	c0, t0 := selfCPUMs(), time.Now()
	for i, data := range packed {
		t := time.Now()
		img, err := a.OpenImage(data)
		if err != nil {
			return fmt.Errorf("%s: %w", files[i], err)
		}
		rep.OpMs = append(rep.OpMs, ms(time.Since(t)))
		imgs = append(imgs, img)
	}
	sealed, err := a.Seal(imgs...)
	if err != nil {
		return err
	}
	paths, err := sealed.WriteShards(*out, shardsFor(len(files)))
	if err != nil {
		return err
	}
	rep.add(len(packed), time.Since(t0), selfCPUMs()-c0)

	rep.Executables = sealed.Executables()
	if rep.ShardBytes, err = dirBytes(paths); err != nil {
		return err
	}
	return rep.emit(&rep)
}

// loadBatch reads the batch request set and analyses each query against
// the open corpus.
func loadBatch(sc *firmup.SealedCorpus, listPath string) ([]firmup.BatchQuery, error) {
	b, err := os.ReadFile(listPath)
	if err != nil {
		return nil, err
	}
	var list []batchQueryFile
	if err := json.Unmarshal(b, &list); err != nil {
		return nil, err
	}
	var qs []firmup.BatchQuery
	for _, e := range list {
		data, err := os.ReadFile(e.File)
		if err != nil {
			return nil, err
		}
		q, err := sc.AnalyzeQueryWith(filepath.Base(e.File), data, 0)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.File, err)
		}
		qs = append(qs, firmup.BatchQuery{Query: q, Procedure: e.Proc})
	}
	return qs, nil
}

// locateAll reduces corpus-wide facade results to scored locations.
func locateAll(res []firmup.ImageFindings) []located {
	out := []located{}
	for i := range res {
		for _, f := range res[i].Findings {
			out = append(out, located{Image: i, Path: f.ExePath, Addr: f.ProcAddr})
		}
	}
	sortLocated(out)
	return out
}

// digest reduces a batched sweep's findings to one number that does not
// depend on their order: the sum of a hash per (query, image, executable,
// address).
func digest(res [][]firmup.ImageFindings) uint64 {
	var sum uint64
	for qi := range res {
		for ii := range res[qi] {
			for _, f := range res[qi][ii].Findings {
				h := fnv.New64a()
				fmt.Fprintf(h, "%d/%d/%s/%d", qi, ii, f.ExePath, f.ProcAddr)
				sum += h.Sum64()
			}
		}
	}
	return sum
}

// batchWarmOps is how many untimed ops the batch child runs first; the
// first of them pays first-touch materialisation.
const batchWarmOps = 5

// batchChild is the search-only workload: the request set is analysed
// once, then every op is one SealedCorpus.SearchAllBatch over all of it.
func batchChild(args []string) error {
	fs := flag.NewFlagSet("batch", flag.ContinueOnError)
	corpusDir := fs.String("corpus", "", "shard directory")
	list := fs.String("queries", "", "JSON list of {proc,file}")
	per := fs.Int("per", 1, "timed ops per window")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sc, err := firmup.OpenSealedCorpus(*corpusDir)
	if err != nil {
		return err
	}
	defer sc.Close()
	qs, err := loadBatch(sc, *list)
	if err != nil {
		return err
	}
	ops := windows * *per
	rep := batchReport{OpMs: make([]float64, 0, ops)}
	var want uint64
	for i := 0; i < batchWarmOps; i++ {
		res, err := sc.SearchAllBatch(qs, nil)
		if err != nil {
			return err
		}
		if i == 0 {
			want = digest(res)
			for _, r := range res {
				rep.Findings = append(rep.Findings, locateAll(r))
			}
		}
	}

	rep.ReadyUnixNano = time.Now().UnixNano()
	m := newMeter(ops, *per, selfCPUMs)
	for i := 0; i < ops; i++ {
		t := time.Now()
		res, err := sc.SearchAllBatch(qs, nil)
		if err != nil {
			return err
		}
		rep.OpMs = append(rep.OpMs, ms(time.Since(t)))
		// Checked here and dropped: kept results would be the benchmark's
		// memory in the resident set of the process under test, and the
		// digest costs microseconds against an op's tens of milliseconds.
		if digest(res) != want {
			rep.Mismatched++
		}
		m.opDone()
	}
	rep.windowRates = m.rates()
	return rep.emit(&rep)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
