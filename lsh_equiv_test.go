package firmup_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"firmup"
	"firmup/internal/corpus"
	"firmup/internal/eval"
	"firmup/internal/snapshot"
	"firmup/internal/telemetry"
	"firmup/internal/uir"
)

// lshTestQueries are the CVE probes every LSH suite replays.
var lshTestQueries = []struct {
	cveID string
	arch  uir.Arch
}{
	{"CVE-2014-4877", uir.ArchMIPS32},
	{"CVE-2013-1944", uir.ArchARM32},
}

// TestLSHExactEquivalence pins that the signature section is inert for
// exact searches: a sealed in-RAM corpus, v3 shards (corpus-sigs
// present) and v2 shards written without signatures all answer through
// the same exact prefilter, so each must be byte-identical to the live
// session baseline — findings, examined counts and step histograms
// deep-equal. Randomized over corpus seeds; CI runs it under -race.
func TestLSHExactEquivalence(t *testing.T) {
	opts := []*firmup.Options{nil, {MinScore: 3, MinRatio: 0.2}, {Exhaustive: true}}
	for _, seed := range []uint64{3, 11} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			s := buildSealedScenario(t, corpus.Scale{DevicesPerVendor: 2, MaxReleases: 2, Seed: seed})

			dir := t.TempDir()
			type form struct {
				name string
				sc   *firmup.SealedCorpus
			}
			forms := []form{{"sealed", s.sealed}}
			v3Dir := filepath.Join(dir, "v3")
			if _, err := s.sealed.WriteShards(v3Dir, 2); err != nil {
				t.Fatal(err)
			}
			v3, err := firmup.OpenSealedCorpusDir(v3Dir)
			if err != nil {
				t.Fatal(err)
			}
			defer v3.Close()
			forms = append(forms, form{"store-v3", v3})
			noSigsDir := filepath.Join(dir, "v2-nosigs")
			if _, err := s.sealed.WriteShardsNoSigs(noSigsDir, 2); err != nil {
				t.Fatal(err)
			}
			noSigs, err := firmup.OpenSealedCorpusDir(noSigsDir)
			if err != nil {
				t.Fatal(err)
			}
			defer noSigs.Close()
			forms = append(forms, form{"store-v2-nosigs", noSigs})

			total := 0
			for _, q := range lshTestQueries {
				cve := corpus.CVEByID(q.cveID)
				if cve == nil {
					t.Fatalf("unknown CVE %s", q.cveID)
				}
				qb := queryBytesFor(t, cve, q.arch)
				// Live session baseline.
				liveQ, err := s.analyzer.LoadQueryExecutable(qb)
				if err != nil {
					t.Fatal(err)
				}
				for oi, opt := range opts {
					var want []*firmup.SearchResult
					for _, img := range s.live {
						res, err := s.analyzer.SearchImageDetailed(liveQ, cve.Procedure, img, opt)
						if err != nil {
							t.Fatal(err)
						}
						want = append(want, res)
						total += len(res.Findings)
					}
					for _, f := range forms {
						fq, err := f.sc.AnalyzeQuery(qb)
						if err != nil {
							t.Fatal(err)
						}
						for i, img := range f.sc.Images() {
							got, err := f.sc.SearchImageDetailed(fq, cve.Procedure, img, opt)
							if err != nil {
								t.Fatal(err)
							}
							if !reflect.DeepEqual(got, want[i]) {
								t.Errorf("%s %s opt[%d] image %d: diverges from live baseline:\nlive: %+v\ngot:  %+v",
									f.name, cve.ID, oi, i, want[i], got)
							}
						}
					}
				}
			}
			if total == 0 {
				t.Error("no findings under any options; equivalence vacuous")
			}
		})
	}
}

// TestLSHApproxSubset pins the approximate tier's one-sided error:
// with Approx on, band collisions gate the exact candidate set, so the
// examined count per image can never exceed exact mode's and every
// approximate finding must also be an exact finding, value for value.
// Exhaustive mode must ignore Approx entirely.
func TestLSHApproxSubset(t *testing.T) {
	s := buildSealedScenario(t, corpus.DefaultScale())
	shardDir := t.TempDir()
	if _, err := s.sealed.WriteShards(shardDir, 3); err != nil {
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
	}{{"sealed", s.sealed}, {"store", store}} {
		for _, q := range lshTestQueries {
			cve := corpus.CVEByID(q.cveID)
			qb := queryBytesFor(t, cve, q.arch)
			qe, err := form.sc.AnalyzeQuery(qb)
			if err != nil {
				t.Fatal(err)
			}
			exact, err := form.sc.SearchAll(qe, cve.Procedure, nil)
			if err != nil {
				t.Fatal(err)
			}
			approx, err := form.sc.SearchAll(qe, cve.Procedure, &firmup.Options{Approx: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(exact) != len(approx) {
				t.Fatalf("%s %s: image count diverges: %d vs %d", form.name, cve.ID, len(exact), len(approx))
			}
			for i := range exact {
				if approx[i].Examined > exact[i].Examined {
					t.Errorf("%s %s image %d: approx examined %d > exact %d — the band gate admitted a non-candidate",
						form.name, cve.ID, i, approx[i].Examined, exact[i].Examined)
				}
				set := make(map[firmup.Finding]bool, len(exact[i].Findings))
				for _, f := range exact[i].Findings {
					set[f] = true
				}
				for _, f := range approx[i].Findings {
					if !set[f] {
						t.Errorf("%s %s image %d: approx finding %+v absent from exact results",
							form.name, cve.ID, i, f)
					}
				}
			}
			// Exhaustive ignores every prefilter, approximate or exact.
			exh, err := form.sc.SearchAll(qe, cve.Procedure, &firmup.Options{Exhaustive: true})
			if err != nil {
				t.Fatal(err)
			}
			exhA, err := form.sc.SearchAll(qe, cve.Procedure, &firmup.Options{Exhaustive: true, Approx: true})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(exh, exhA) {
				t.Errorf("%s %s: Approx changed the exhaustive path", form.name, cve.ID)
			}
		}
	}
}

// TestApproxRecallFloor measures the approximate tier's recall against
// exact ground truth over the default corpus and both CVE queries,
// pooled, and enforces the documented 0.95 floor — the bound the -approx
// flag and serve's approx= parameter advertise. CI runs this as the
// recall gate.
func TestApproxRecallFloor(t *testing.T) {
	s := buildSealedScenario(t, corpus.DefaultScale())
	shardDir := t.TempDir()
	if _, err := s.sealed.WriteShards(shardDir, 4); err != nil {
		t.Fatal(err)
	}
	sc, err := firmup.OpenSealedCorpusDir(shardDir)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()

	keys := func(res []firmup.ImageFindings) map[eval.FindingKey]bool {
		m := make(map[eval.FindingKey]bool)
		for i, img := range res {
			for _, f := range img.Findings {
				m[eval.FindingKey{Image: i, ExePath: f.ExePath, ProcAddr: f.ProcAddr}] = true
			}
		}
		return m
	}
	var rs eval.RecallStats
	for _, q := range lshTestQueries {
		cve := corpus.CVEByID(q.cveID)
		qb := queryBytesFor(t, cve, q.arch)
		qe, err := sc.AnalyzeQuery(qb)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := sc.SearchAll(qe, cve.Procedure, nil)
		if err != nil {
			t.Fatal(err)
		}
		approx, err := sc.SearchAll(qe, cve.Procedure, &firmup.Options{Approx: true})
		if err != nil {
			t.Fatal(err)
		}
		rs.Observe(keys(exact), keys(approx))
	}
	if rs.Expected == 0 {
		t.Fatal("no exact findings; recall floor vacuous")
	}
	if got := rs.Recall(); got < 0.95 {
		t.Errorf("approximate recall %.3f (%d/%d) below the 0.95 floor", got, rs.Found, rs.Expected)
	} else {
		t.Logf("approximate recall %.3f (%d/%d findings)", got, rs.Found, rs.Expected)
	}
}

// TestSinglePrefilterEvaluation pins that a sealed search asks an
// image's index for each query procedure's candidates exactly once: the
// list that selects what a store-backed image materializes is the list
// the games run on, not a second evaluation. After one SearchAll and one
// SearchAllBatch over an N-image corpus, index.queries is queries × N —
// in RAM and store-backed alike.
func TestSinglePrefilterEvaluation(t *testing.T) {
	s := buildSealedScenario(t, corpus.Scale{DevicesPerVendor: 2, MaxReleases: 2, Seed: 3})
	shardDir := t.TempDir()
	if _, err := s.sealed.WriteShards(shardDir, 3); err != nil {
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
	}{{"sealed", s.sealed}, {"store", store}} {
		reg := telemetry.New()
		form.sc.SetTelemetry(reg)
		var batch []firmup.BatchQuery
		for _, q := range lshTestQueries {
			cve := corpus.CVEByID(q.cveID)
			qe, err := form.sc.AnalyzeQuery(queryBytesFor(t, cve, q.arch))
			if err != nil {
				t.Fatal(err)
			}
			batch = append(batch, firmup.BatchQuery{Query: qe, Procedure: cve.Procedure})
		}
		n := int64(len(form.sc.Images()))
		if _, err := form.sc.SearchAll(batch[0].Query, batch[0].Procedure, nil); err != nil {
			t.Fatal(err)
		}
		if got := reg.Counter("index.queries").Value(); got != n {
			t.Errorf("%s: SearchAll over %d images ran %d candidate queries, want one per image", form.name, n, got)
		}
		if _, err := form.sc.SearchAllBatch(batch, nil); err != nil {
			t.Fatal(err)
		}
		if got, want := reg.Counter("index.queries").Value(), n*int64(1+len(batch)); got != want {
			t.Errorf("%s: after a %d-query SearchAllBatch index.queries = %d, want %d (one per query per image)",
				form.name, len(batch), got, want)
		}
		form.sc.SetTelemetry(nil)
	}
}

// TestExactSearchLeavesSignatureTierUntouched pins that the MinHash/LSH
// tier is approximate-only. Exact searches — single, batched and
// exhaustive — record no lsh.* metric (every path that builds buckets
// records one), and on a store-backed corpus they never read the
// shard's corpus-sigs section: with that section damaged on disk they
// still answer exactly as the pristine corpus does, and it is the first
// Approx search that reports the damage. On pristine corpora the first
// Approx searches, racing, build the tier once and probe it once per
// image each.
func TestExactSearchLeavesSignatureTierUntouched(t *testing.T) {
	s := buildSealedScenario(t, corpus.Scale{DevicesPerVendor: 2, MaxReleases: 2, Seed: 3})
	dir := t.TempDir()
	paths, err := s.sealed.WriteShards(filepath.Join(dir, "good"), 2)
	if err != nil {
		t.Fatal(err)
	}
	good, err := firmup.OpenSealedCorpusDir(filepath.Join(dir, "good"))
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	// corpus-sigs is a v3 shard's final section and nothing follows it,
	// so the file's last byte is signature data.
	badDir := filepath.Join(dir, "bad")
	if err := os.Mkdir(badDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		blob, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		blob[len(blob)-1] ^= 0x40
		if err := os.WriteFile(filepath.Join(badDir, filepath.Base(p)), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	bad, err := firmup.OpenSealedCorpusDir(badDir)
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()

	cve := corpus.CVEByID(lshTestQueries[0].cveID)
	qb := queryBytesFor(t, cve, lshTestQueries[0].arch)
	exactSweep := func(sc *firmup.SealedCorpus) [][]firmup.ImageFindings {
		t.Helper()
		qe, err := sc.AnalyzeQuery(qb)
		if err != nil {
			t.Fatal(err)
		}
		var out [][]firmup.ImageFindings
		for _, opt := range []*firmup.Options{nil, {Exhaustive: true}} {
			res, err := sc.SearchAll(qe, cve.Procedure, opt)
			if err != nil {
				t.Fatalf("exact search (options %+v): %v", opt, err)
			}
			out = append(out, res)
		}
		res, err := sc.SearchAllBatch([]firmup.BatchQuery{{Query: qe, Procedure: cve.Procedure}}, nil)
		if err != nil {
			t.Fatalf("exact batched search: %v", err)
		}
		return append(out, res...)
	}
	lshSilent := func(name string, reg *telemetry.Registry) {
		t.Helper()
		if p, f, c := reg.Counter("lsh.probes").Value(), reg.Counter("lsh.fallbacks").Value(), reg.Histogram("lsh.candidates").Count(); p != 0 || f != 0 || c != 0 {
			t.Errorf("%s: exact searches touched the LSH tier: lsh.probes=%d lsh.fallbacks=%d lsh.candidates=%d", name, p, f, c)
		}
	}

	badReg := telemetry.New()
	bad.SetTelemetry(badReg)
	want := exactSweep(good)
	if got := exactSweep(bad); !reflect.DeepEqual(got, want) {
		t.Error("exact results over a corpus with a damaged corpus-sigs section diverge from the pristine corpus")
	}
	lshSilent("damaged store", badReg)
	qe, err := bad.AnalyzeQuery(qb)
	if err != nil {
		t.Fatal(err)
	}
	_, err = bad.SearchAll(qe, cve.Procedure, &firmup.Options{Approx: true})
	var ce *snapshot.CorruptError
	if !errors.As(err, &ce) || ce.Section != "corpus-sigs" {
		t.Fatalf("first Approx search over a damaged corpus-sigs section: err = %v, want a corpus-sigs CorruptError", err)
	}
	if got := exactSweep(bad); !reflect.DeepEqual(got, want) {
		t.Error("exact results diverge after the failed Approx search")
	}

	for _, form := range []struct {
		name string
		sc   *firmup.SealedCorpus
	}{{"sealed", s.sealed}, {"store", good}} {
		reg := telemetry.New()
		form.sc.SetTelemetry(reg)
		exactSweep(form.sc)
		lshSilent(form.name, reg)
		qe, err := form.sc.AnalyzeQuery(qb)
		if err != nil {
			t.Fatal(err)
		}
		// The tier is built by whichever search gets there first: race
		// the first Approx sweeps against each other and exact ones.
		const sweeps = 4
		approx := make([][]firmup.ImageFindings, sweeps)
		errs := make([]error, sweeps)
		var wg sync.WaitGroup
		for g := 0; g < sweeps; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				if approx[g], errs[g] = form.sc.SearchAll(qe, cve.Procedure, &firmup.Options{Approx: true}); errs[g] == nil {
					_, errs[g] = form.sc.SearchAll(qe, cve.Procedure, nil)
				}
			}(g)
		}
		wg.Wait()
		for g := range approx {
			if errs[g] != nil {
				t.Fatal(errs[g])
			}
			if !reflect.DeepEqual(approx[g], approx[0]) {
				t.Errorf("%s: concurrent first Approx sweeps disagree", form.name)
			}
		}
		if got, want := reg.Counter("lsh.probes").Value(), int64(sweeps*len(form.sc.Images())); got != want {
			t.Errorf("%s: %d Approx sweeps over %d images recorded %d lsh.probes, want %d", form.name, sweeps, len(form.sc.Images()), got, want)
		}
		form.sc.SetTelemetry(nil)
	}
}

// TestOpenSealedCorpusDirMixed pins the mixed-generation diagnostic: a
// v1 artifact dropped into a shard directory must fail the directory
// open with a MixedCorpusError naming that file.
func TestOpenSealedCorpusDirMixed(t *testing.T) {
	s := buildSealedScenario(t, corpus.Scale{DevicesPerVendor: 1, MaxReleases: 1, Seed: 5})
	dir := t.TempDir()
	if _, err := s.sealed.WriteShards(dir, 2); err != nil {
		t.Fatal(err)
	}
	blob, err := s.sealed.Save()
	if err != nil {
		t.Fatal(err)
	}
	stray := filepath.Join(dir, "old-corpus.fwcorp")
	if err := os.WriteFile(stray, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = firmup.OpenSealedCorpusDir(dir)
	if err == nil {
		t.Fatal("opening a mixed v1/v2 directory succeeded")
	}
	var mixed *firmup.MixedCorpusError
	if !errors.As(err, &mixed) {
		t.Fatalf("error is %T (%v), want *MixedCorpusError", err, err)
	}
	if mixed.Path != stray {
		t.Errorf("MixedCorpusError.Path = %q, want %q", mixed.Path, stray)
	}
	if mixed.Dir != dir {
		t.Errorf("MixedCorpusError.Dir = %q, want %q", mixed.Dir, dir)
	}
	if mixed.Version != 1 {
		t.Errorf("MixedCorpusError.Version = %d, want 1", mixed.Version)
	}
}

// TestWriteShardsDeterminism pins two properties of the parallel shard
// writer: repeated runs are byte-identical (the worker pool cannot leak
// scheduling order into the artifacts), and the sigs/no-sigs variants
// emit the container versions they advertise.
func TestWriteShardsDeterminism(t *testing.T) {
	s := buildSealedScenario(t, corpus.Scale{DevicesPerVendor: 2, MaxReleases: 1, Seed: 7})
	dir := t.TempDir()
	runA, err := s.sealed.WriteShards(filepath.Join(dir, "a"), 5)
	if err != nil {
		t.Fatal(err)
	}
	runB, err := s.sealed.WriteShards(filepath.Join(dir, "b"), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(runA) != 5 || len(runB) != 5 {
		t.Fatalf("WriteShards returned %d/%d paths, want 5", len(runA), len(runB))
	}
	for i := range runA {
		a, err := os.ReadFile(runA[i])
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(runB[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("shard %d differs between two WriteShards runs", i)
		}
		if v, err := snapshot.CorpusVersion(a); err != nil || v != snapshot.CorpusFormatVersionV3 {
			t.Errorf("shard %d: version %d (err %v), want v%d", i, v, err, snapshot.CorpusFormatVersionV3)
		}
	}
	noSigs, err := s.sealed.WriteShardsNoSigs(filepath.Join(dir, "nosigs"), 5)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range noSigs {
		blob, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if v, err := snapshot.CorpusVersion(blob); err != nil || v != snapshot.CorpusFormatVersionV2 {
			t.Errorf("no-sigs shard %d: version %d (err %v), want v%d", i, v, err, snapshot.CorpusFormatVersionV2)
		}
	}
}
