package firmup_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"firmup"
	"firmup/internal/corpus"
	"firmup/internal/telemetry"
	"firmup/internal/uir"
)

// sealedTestQueries are the CVE probes the sealed-corpus suites replay.
var sealedTestQueries = []struct {
	cveID string
	arch  uir.Arch
}{
	{"CVE-2014-4877", uir.ArchMIPS32},
	{"CVE-2013-1944", uir.ArchARM32},
}

// sealedScenario analyzes every image of a generated corpus under one
// live session and seals it, returning both forms plus the raw query
// bytes for the given CVE so the two paths can be compared.
type sealedScenario struct {
	analyzer *firmup.Analyzer
	live     []*firmup.Image
	sealed   *firmup.SealedCorpus
}

func buildSealedScenario(t *testing.T, sc corpus.Scale) *sealedScenario {
	t.Helper()
	c, err := corpus.Build(sc)
	if err != nil {
		t.Fatal(err)
	}
	a := firmup.NewAnalyzer(nil)
	s := &sealedScenario{analyzer: a}
	for _, bi := range c.Images {
		img, err := a.OpenImage(bi.Image.Pack(true))
		if err != nil {
			t.Fatal(err)
		}
		s.live = append(s.live, img)
	}
	s.sealed, err = a.Seal(s.live...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// queryBytesFor compiles the analyst-side query executable for one CVE.
func queryBytesFor(t *testing.T, cve *corpus.CVE, arch uir.Arch) []byte {
	t.Helper()
	qf, err := corpus.QueryExe(cve.Package, cve.QueryVersion, arch)
	if err != nil {
		t.Fatal(err)
	}
	return qf.Bytes()
}

// TestSealedEquivalence is the tentpole soundness test: over randomized
// corpora, a sealed corpus must answer every search identically to the
// live session it was sealed from — findings, examined counts and step
// histograms deep-equal, across option variants including the
// exhaustive (prefilter-off) path.
func TestSealedEquivalence(t *testing.T) {
	queries := []struct {
		cveID string
		arch  uir.Arch
	}{
		{"CVE-2014-4877", uir.ArchMIPS32},
		{"CVE-2013-1944", uir.ArchARM32},
	}
	for _, seed := range []uint64{1, 9} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			s := buildSealedScenario(t, corpus.Scale{DevicesPerVendor: 2, MaxReleases: 2, Seed: seed})
			for _, q := range queries {
				cve := corpus.CVEByID(q.cveID)
				if cve == nil {
					t.Fatalf("unknown CVE %s", q.cveID)
				}
				qb := queryBytesFor(t, cve, q.arch)
				// The live query interns novel strands into the (still
				// mutable) session after sealing; the sealed query runs
				// under a request-private overlay. Results must agree.
				liveQ, err := s.analyzer.LoadQueryExecutable(qb)
				if err != nil {
					t.Fatal(err)
				}
				sealedQ, err := s.sealed.AnalyzeQuery(qb)
				if err != nil {
					t.Fatal(err)
				}
				opts := []*firmup.Options{
					nil,
					{MinScore: 3, MinRatio: 0.2},
					{Exhaustive: true},
				}
				total := 0
				for oi, opt := range opts {
					for i, img := range s.live {
						liveRes, err := s.analyzer.SearchImageDetailed(liveQ, cve.Procedure, img, opt)
						if err != nil {
							t.Fatal(err)
						}
						sealedRes, err := s.sealed.SearchImageDetailed(sealedQ, cve.Procedure, s.sealed.Images()[i], opt)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(liveRes, sealedRes) {
							t.Errorf("%s opt[%d] image %d: sealed result diverges:\nlive:   %+v\nsealed: %+v",
								cve.ID, oi, i, liveRes, sealedRes)
						}
						total += len(liveRes.Findings)
					}
				}
				if total == 0 {
					t.Errorf("%s: no findings in any image under any options; equivalence vacuous", cve.ID)
				}
			}
		})
	}
}

// TestSealedTracedEquivalence pins the strongest form of equivalence:
// the full game course against a single target is step-for-step
// identical between the live and sealed paths.
func TestSealedTracedEquivalence(t *testing.T) {
	s := buildSealedScenario(t, corpus.DefaultScale())
	cve := corpus.CVEByID("CVE-2014-4877")
	qb := queryBytesFor(t, cve, uir.ArchMIPS32)
	liveQ, err := s.analyzer.LoadQueryExecutable(qb)
	if err != nil {
		t.Fatal(err)
	}
	sealedQ, err := s.sealed.AnalyzeQuery(qb)
	if err != nil {
		t.Fatal(err)
	}
	compared := 0
	for i, img := range s.live {
		findings, err := s.analyzer.SearchImage(liveQ, cve.Procedure, img, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range findings {
			var liveT *firmup.Executable
			for _, e := range img.Exes {
				if e.Path == f.ExePath {
					liveT = e
				}
			}
			sealedT := s.sealed.Images()[i].Executable(f.ExePath)
			if liveT == nil || sealedT == nil {
				t.Fatalf("finding in %s but executable missing from an image form", f.ExePath)
			}
			lf, lt, err := s.analyzer.MatchProcedureTraced(liveQ, cve.Procedure, liveT, nil)
			if err != nil {
				t.Fatal(err)
			}
			sf, st, err := s.sealed.MatchProcedureTraced(sealedQ, cve.Procedure, sealedT, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(lf, sf) {
				t.Errorf("image %d %s: finding diverges:\nlive:   %+v\nsealed: %+v", i, f.ExePath, lf, sf)
			}
			if !reflect.DeepEqual(lt, st) {
				t.Errorf("image %d %s: game trace diverges:\nlive:   %+v\nsealed: %+v", i, f.ExePath, lt, st)
			}
			compared++
		}
	}
	if compared == 0 {
		t.Fatal("no findings to trace; equivalence vacuous")
	}
}

// TestSealedConcurrentReaders hammers one sealed corpus from many
// goroutines, each running its own query analysis and corpus-wide
// search; every result must equal the serial baseline. Run under -race
// this doubles as the proof that the query path performs no writes to
// shared corpus state.
func TestSealedConcurrentReaders(t *testing.T) {
	s := buildSealedScenario(t, corpus.DefaultScale())
	cve := corpus.CVEByID("CVE-2014-4877")
	qb := queryBytesFor(t, cve, uir.ArchMIPS32)

	baseQ, err := s.sealed.AnalyzeQuery(qb)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := s.sealed.SearchAll(baseQ, cve.Procedure, nil)
	if err != nil {
		t.Fatal(err)
	}

	const readers = 8
	const iters = 3
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				q, err := s.sealed.AnalyzeQuery(qb)
				if err != nil {
					errs <- err
					return
				}
				got, err := s.sealed.SearchAll(q, cve.Procedure, nil)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(got, baseline) {
					errs <- fmt.Errorf("concurrent reader diverged from baseline")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSealedCorpusSaveLoadRoundTrip writes a sealed corpus as a
// one-shard directory and reopens it with no live session; the opened
// corpus must carry identical metadata and answer searches identically.
func TestSealedCorpusSaveLoadRoundTrip(t *testing.T) {
	s := buildSealedScenario(t, corpus.DefaultScale())
	dir := t.TempDir()
	if _, err := s.sealed.WriteShards(dir, 1); err != nil {
		t.Fatal(err)
	}
	loaded, err := firmup.OpenSealedCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if got, want := loaded.UniqueStrands(), s.sealed.UniqueStrands(); got != want {
		t.Errorf("unique strands: loaded %d, sealed %d", got, want)
	}
	if got, want := loaded.Executables(), s.sealed.Executables(); got != want {
		t.Errorf("executables: loaded %d, sealed %d", got, want)
	}
	// One shard spans every image, so it stores exactly the corpus-wide
	// distinct executables.
	if got, want := loaded.UniqueExecutables(), s.sealed.UniqueExecutables(); got != want {
		t.Errorf("unique executables: loaded %d, sealed %d", got, want)
	}
	if got, want := len(loaded.Images()), len(s.sealed.Images()); got != want {
		t.Fatalf("images: loaded %d, sealed %d", got, want)
	}
	for i, im := range s.sealed.Images() {
		lm := loaded.Images()[i]
		if lm.Vendor != im.Vendor || lm.Device != im.Device || lm.Version != im.Version {
			t.Errorf("image %d identity: loaded %s/%s/%s, sealed %s/%s/%s",
				i, lm.Vendor, lm.Device, lm.Version, im.Vendor, im.Device, im.Version)
		}
		if got, want := len(lm.Skipped), len(im.Skipped); got != want {
			t.Errorf("image %d skipped: loaded %d, sealed %d", i, got, want)
		}
	}

	cve := corpus.CVEByID("CVE-2014-4877")
	qb := queryBytesFor(t, cve, uir.ArchMIPS32)
	sq, err := s.sealed.AnalyzeQuery(qb)
	if err != nil {
		t.Fatal(err)
	}
	lq, err := loaded.AnalyzeQuery(qb)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.sealed.SearchAll(sq, cve.Procedure, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.SearchAll(lq, cve.Procedure, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("loaded corpus search diverges:\nsealed: %+v\nloaded: %+v", want, got)
	}
}

// TestSealedCorpusCorruption flips bits across a one-shard corpus file;
// every damaged form must fail — at open, or at the first search that
// touches the damage, since sections are verified on first touch — with
// an error wrapping ErrCorpusCorrupt, never a panic or a silently
// wrong corpus. Only the zero padding between sections is uncovered.
func TestSealedCorpusCorruption(t *testing.T) {
	s := buildSealedScenario(t, corpus.DefaultScale())
	paths, err := s.sealed.WriteShards(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	cve := corpus.CVEByID("CVE-2014-4877")
	qb := queryBytesFor(t, cve, uir.ArchMIPS32)
	// load opens the bytes as a corpus and touches every section: the
	// vocabulary at open, the index by a default search, every executable
	// by an exhaustive one.
	load := func(data []byte) error {
		path := filepath.Join(t.TempDir(), "shard-0000.fwcorp")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		sc, err := firmup.OpenSealedCorpus(path)
		if err != nil {
			return err
		}
		defer sc.Close()
		q, err := sc.AnalyzeQuery(qb)
		if err != nil {
			return err
		}
		if _, err := sc.SearchAll(q, cve.Procedure, nil); err != nil {
			return err
		}
		_, err = sc.SearchAll(q, cve.Procedure, &firmup.Options{Exhaustive: true})
		return err
	}
	if err := load(blob); err != nil {
		t.Fatalf("undamaged shard: %v", err)
	}
	// The container: 16-byte header, then per section tag u32, offset
	// u64, length u64, CRC u32.
	nsec := int(binary.LittleEndian.Uint32(blob[12:]))
	covered := func(off int) bool {
		if off < 16+24*nsec {
			return true
		}
		for i := 0; i < nsec; i++ {
			row := blob[16+24*i:]
			lo, n := binary.LittleEndian.Uint64(row[4:]), binary.LittleEndian.Uint64(row[12:])
			if uint64(off) >= lo && uint64(off) < lo+n {
				return true
			}
		}
		return false
	}
	for off := 0; off < len(blob); off += len(blob)/97 + 1 {
		if !covered(off) {
			continue
		}
		bad := append([]byte(nil), blob...)
		bad[off] ^= 0x40
		if err := load(bad); err == nil {
			t.Errorf("bit flip at offset %d loaded and searched successfully", off)
		} else if !errors.Is(err, firmup.ErrCorpusCorrupt) {
			t.Errorf("bit flip at offset %d: error does not wrap ErrCorpusCorrupt: %v", off, err)
		}
	}
	for _, n := range []int{0, 4, len(blob) / 2, len(blob) - 1} {
		if err := load(blob[:n]); err == nil {
			t.Errorf("truncation to %d bytes loaded successfully", n)
		} else if !errors.Is(err, firmup.ErrCorpusCorrupt) {
			t.Errorf("truncation to %d bytes: error does not wrap ErrCorpusCorrupt: %v", n, err)
		}
	}
}

// TestSealForeignSessionRejected pins the Seal precondition: an image
// analyzed under a different session has incomparable dense IDs and
// must be rejected, not silently sealed.
func TestSealForeignSessionRejected(t *testing.T) {
	imgBytes, _, _ := buildScenario(t)
	a := firmup.NewAnalyzer(nil)
	b := firmup.NewAnalyzer(nil)
	foreign, err := b.OpenImage(imgBytes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Seal(foreign); err == nil {
		t.Fatal("sealing a foreign-session image must fail")
	}
}

// TestSealedUnknownProcedure mirrors the live error contract.
func TestSealedUnknownProcedure(t *testing.T) {
	imgBytes, queryBytes, _ := buildScenario(t)
	a := firmup.NewAnalyzer(nil)
	img, err := a.OpenImage(imgBytes)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := a.Seal(img)
	if err != nil {
		t.Fatal(err)
	}
	q, err := sc.AnalyzeQuery(queryBytes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.SearchAll(q, "no_such_procedure", nil); err == nil {
		t.Error("unknown procedure must fail")
	}
	if _, err := sc.AnalyzeQuery([]byte("garbage")); err == nil {
		t.Error("garbage query must fail")
	}
}

// heapInUse returns the bytes of live heap objects after a full
// collection.
func heapInUse() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestAnalyzedQueryFootprint bounds what an analysed query executable
// keeps alive: the 36 registry queries (9 CVEs x 4 ISAs), analysed
// against the default-scale sealed corpus and searched once each (so
// the lazily built lookup tables are counted), may retain at most 6x
// their upload bytes (measured 2.0x). firmupd's query cache weighs an
// entry by its upload's length, which is an honest weight only while
// this ratio holds — an Executable that pinned its recovered CFG
// retained 50x.
func TestAnalyzedQueryFootprint(t *testing.T) {
	s := buildSealedScenario(t, corpus.DefaultScale())
	var bodies [][]byte
	total := 0
	for ci := range corpus.CVEs {
		for _, arch := range []uir.Arch{uir.ArchMIPS32, uir.ArchARM32, uir.ArchPPC32, uir.ArchX86} {
			b := queryBytesFor(t, &corpus.CVEs[ci], arch)
			bodies = append(bodies, b)
			total += len(b)
		}
	}
	exes := make([]*firmup.Executable, len(bodies))
	before := heapInUse()
	for i, b := range bodies {
		var err error
		if exes[i], err = s.sealed.AnalyzeQueryWith("query", b, 1); err != nil {
			t.Fatal(err)
		}
	}
	for i, e := range exes {
		if _, err := s.sealed.SearchAll(e, corpus.CVEs[i/4].Procedure, nil); err != nil {
			t.Fatal(err)
		}
	}
	after := heapInUse()
	runtime.KeepAlive(exes)
	runtime.KeepAlive(s)
	retained := int64(after) - int64(before)
	t.Logf("%d queries, %d upload bytes, %d bytes retained (%.1fx)", len(exes), total, retained, float64(retained)/float64(total))
	if retained > 6*int64(total) {
		t.Errorf("analysed queries retain %d bytes for %d upload bytes (%.1fx), want at most 6x",
			retained, total, float64(retained)/float64(total))
	}
}

// TestSinglePrefilterEvaluation pins that a sealed search asks a
// group's index for each query procedure's candidates exactly once: the
// list that selects what a store-backed group materializes is the list
// the games run on, not a second evaluation, and one scan serves every
// image of the group. After one SearchAll and one SearchAllBatch,
// index.queries is queries × groups — one group in RAM, one per shard
// store-backed.
func TestSinglePrefilterEvaluation(t *testing.T) {
	s := buildSealedScenario(t, corpus.Scale{DevicesPerVendor: 2, MaxReleases: 2, Seed: 3})
	shardDir := t.TempDir()
	const nShards = 3
	if _, err := s.sealed.WriteShards(shardDir, nShards); err != nil {
		t.Fatal(err)
	}
	store, err := firmup.OpenSealedCorpusDir(shardDir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	for _, form := range []struct {
		name string
		sc   *firmup.SealedCorpus
		n    int64
	}{{"sealed", s.sealed, 1}, {"store", store, nShards}} {
		reg := telemetry.New()
		form.sc.SetTelemetry(reg)
		var batch []firmup.BatchQuery
		for _, q := range sealedTestQueries {
			cve := corpus.CVEByID(q.cveID)
			qe, err := form.sc.AnalyzeQuery(queryBytesFor(t, cve, q.arch))
			if err != nil {
				t.Fatal(err)
			}
			batch = append(batch, firmup.BatchQuery{Query: qe, Procedure: cve.Procedure})
		}
		if _, err := form.sc.SearchAll(batch[0].Query, batch[0].Procedure, nil); err != nil {
			t.Fatal(err)
		}
		if got := reg.Counter("index.queries").Value(); got != form.n {
			t.Errorf("%s: SearchAll over %d groups ran %d candidate queries, want one per group", form.name, form.n, got)
		}
		if _, err := form.sc.SearchAllBatch(batch, nil); err != nil {
			t.Fatal(err)
		}
		if got, want := reg.Counter("index.queries").Value(), form.n*int64(1+len(batch)); got != want {
			t.Errorf("%s: after a %d-query SearchAllBatch index.queries = %d, want %d (one per query per group)",
				form.name, len(batch), got, want)
		}
		form.sc.SetTelemetry(nil)
	}
}
