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
	"firmup/internal/snapshot"
	"firmup/internal/uir"
)

// TestShardedCorpusEquivalence is the sharding soundness test: a
// sealed corpus split into any number of v2 shards and reopened
// mmap-backed must answer every search byte-identically to the in-RAM
// corpus it was written from — findings, examined counts and step
// histograms, across sequential, batched and exhaustive paths, and
// under concurrent readers (exercised with -race in CI).
func TestShardedCorpusEquivalence(t *testing.T) {
	s := buildSealedScenario(t, corpus.DefaultScale())
	cve := corpus.CVEByID("CVE-2014-4877")
	qb := queryBytesFor(t, cve, uir.ArchMIPS32)
	cve2 := corpus.CVEByID("CVE-2013-1944")
	qb2 := queryBytesFor(t, cve2, uir.ArchARM32)

	baseQ, err := s.sealed.AnalyzeQuery(qb)
	if err != nil {
		t.Fatal(err)
	}
	baseQ2, err := s.sealed.AnalyzeQuery(qb2)
	if err != nil {
		t.Fatal(err)
	}
	opts := []*firmup.Options{nil, {MinScore: 3, MinRatio: 0.2}, {Exhaustive: true}}
	type baseline struct {
		all   []firmup.ImageFindings
		batch [][]firmup.ImageFindings
	}
	var want []baseline
	total := 0
	for _, opt := range opts {
		all, err := s.sealed.SearchAll(baseQ, cve.Procedure, opt)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := s.sealed.SearchAllBatch([]firmup.BatchQuery{
			{Query: baseQ, Procedure: cve.Procedure},
			{Query: baseQ2, Procedure: cve2.Procedure},
		}, opt)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, baseline{all: all, batch: batch})
		for _, im := range all {
			total += len(im.Findings)
		}
	}
	if total == 0 {
		t.Fatal("no findings in the unsharded baseline; equivalence would be vacuous")
	}

	for _, nShards := range []int{1, 2, 7} {
		t.Run(fmt.Sprintf("shards=%d", nShards), func(t *testing.T) {
			dir := t.TempDir()
			paths, err := s.sealed.WriteShards(dir, nShards)
			if err != nil {
				t.Fatal(err)
			}
			if len(paths) != nShards {
				t.Fatalf("WriteShards returned %d paths, want %d", len(paths), nShards)
			}
			sc, err := firmup.OpenSealedCorpusDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer sc.Close()
			if got := len(sc.Shards()); got != nShards {
				t.Errorf("Shards() reports %d shards, want %d", got, nShards)
			}
			if sc.Executables() != s.sealed.Executables() || sc.UniqueStrands() != s.sealed.UniqueStrands() {
				t.Errorf("corpus shape diverges: %d/%d executables, %d/%d strands",
					sc.Executables(), s.sealed.Executables(), sc.UniqueStrands(), s.sealed.UniqueStrands())
			}

			q, err := sc.AnalyzeQuery(qb)
			if err != nil {
				t.Fatal(err)
			}
			q2, err := sc.AnalyzeQuery(qb2)
			if err != nil {
				t.Fatal(err)
			}
			for oi, opt := range opts {
				all, err := sc.SearchAll(q, cve.Procedure, opt)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(all, want[oi].all) {
					t.Errorf("opt[%d]: SearchAll diverges from unsharded corpus", oi)
				}
				batch, err := sc.SearchAllBatch([]firmup.BatchQuery{
					{Query: q, Procedure: cve.Procedure},
					{Query: q2, Procedure: cve2.Procedure},
				}, opt)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(batch, want[oi].batch) {
					t.Errorf("opt[%d]: SearchAllBatch diverges from unsharded corpus", oi)
				}
				// Per-image detailed results pin the step histograms too.
				for i, img := range sc.Images() {
					res, err := sc.SearchImageDetailed(q, cve.Procedure, img, opt)
					if err != nil {
						t.Fatal(err)
					}
					baseRes, err := s.sealed.SearchImageDetailed(baseQ, cve.Procedure, s.sealed.Images()[i], opt)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(res, baseRes) {
						t.Errorf("opt[%d] image %d: detailed result diverges:\nsharded:   %+v\nunsharded: %+v",
							oi, i, res, baseRes)
					}
				}
			}

			// Concurrent readers race lazy materialization and the
			// first-touch CRC passes; every reader must still see the
			// baseline result exactly.
			var wg sync.WaitGroup
			errs := make(chan error, 8)
			for r := 0; r < 8; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					opt := opts[r%len(opts)]
					all, err := sc.SearchAll(q, cve.Procedure, opt)
					if err != nil {
						errs <- err
						return
					}
					if !reflect.DeepEqual(all, want[r%len(opts)].all) {
						errs <- fmt.Errorf("reader %d: concurrent SearchAll diverges", r)
					}
				}(r)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}

// TestOpenSealedCorpusForms pins the OpenSealedCorpus dispatch: a v1
// artifact, a single-shard v2 file and a shard directory all open into
// equivalent corpora, and a multi-shard member opened as a lone file
// is rejected with a pointer to the directory form.
func TestOpenSealedCorpusForms(t *testing.T) {
	s := buildSealedScenario(t, corpus.DefaultScale())
	cve := corpus.CVEByID("CVE-2014-4877")
	qb := queryBytesFor(t, cve, uir.ArchMIPS32)
	baseQ, err := s.sealed.AnalyzeQuery(qb)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.sealed.SearchAll(baseQ, cve.Procedure, nil)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	v1Path := filepath.Join(dir, "corpus.v1")
	blob, err := s.sealed.Save()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(v1Path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	oneDir := filepath.Join(dir, "one")
	onePaths, err := s.sealed.WriteShards(oneDir, 1)
	if err != nil {
		t.Fatal(err)
	}
	manyDir := filepath.Join(dir, "many")
	manyPaths, err := s.sealed.WriteShards(manyDir, 3)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name, path string
	}{
		{"v1-file", v1Path},
		{"v2-single-file", onePaths[0]},
		{"v2-dir", manyDir},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc, err := firmup.OpenSealedCorpus(tc.path)
			if err != nil {
				t.Fatal(err)
			}
			defer sc.Close()
			q, err := sc.AnalyzeQuery(qb)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sc.SearchAll(q, cve.Procedure, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Error("opened corpus answers differently from the sealed original")
			}
		})
	}

	if _, err := firmup.OpenSealedCorpus(manyPaths[1]); err == nil {
		t.Error("opening one shard of a 3-shard corpus as a file succeeded; want an error directing to the directory")
	}

	// Exactly one shard version opens. The header carries no checksum, so
	// patching the version word alone reaches the version check, which
	// answers any other version as corruption.
	otherDir := filepath.Join(dir, "other-version")
	if err := os.Mkdir(otherDir, 0o755); err != nil {
		t.Fatal(err)
	}
	other, err := os.ReadFile(onePaths[0])
	if err != nil {
		t.Fatal(err)
	}
	other[8] = 3
	otherPath := filepath.Join(otherDir, filepath.Base(onePaths[0]))
	if err := os.WriteFile(otherPath, other, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := snapshot.OpenCorpusShardFile(otherPath); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Errorf("OpenCorpusShardFile of a version-3 shard: err = %v, want ErrCorrupt", err)
	}
	if _, err := firmup.OpenSealedCorpusDir(otherDir); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Errorf("OpenSealedCorpusDir of a version-3 shard: err = %v, want ErrCorrupt", err)
	}

	// A shard set with a member missing must be rejected at open.
	if err := os.Remove(manyPaths[2]); err != nil {
		t.Fatal(err)
	}
	if _, err := firmup.OpenSealedCorpusDir(manyDir); err == nil {
		t.Error("opening an incomplete shard set succeeded")
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
// scheduling order into the artifacts), and every shard carries the one
// shard container version.
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
		if v, err := snapshot.CorpusVersion(a); err != nil || v != snapshot.CorpusFormatVersionV2 {
			t.Errorf("shard %d: version %d (err %v), want v%d", i, v, err, snapshot.CorpusFormatVersionV2)
		}
	}
}
