package firmup_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"firmup"
	"firmup/internal/corpus"
	"firmup/internal/telemetry"
	"firmup/internal/uir"
)

// defaultSealed is the default-scale corpus sealed in memory, built once
// for the tests here, which only read it.
var defaultSealed = sync.OnceValues(func() (*firmup.SealedCorpus, error) {
	return sealCorpus(corpus.DefaultScale())
})

// budgetScenario returns defaultSealed written as n shards and opened,
// the wget query's bytes and the procedure to search for.
func budgetScenario(t *testing.T, n int) (sc, sharded *firmup.SealedCorpus, paths []string, query []byte, proc string) {
	t.Helper()
	sc, err := defaultSealed()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if paths, err = sc.WriteShards(dir, n); err != nil {
		t.Fatal(err)
	}
	if sharded, err = firmup.OpenSealedCorpus(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sharded.Close() })
	cve := corpus.CVEByID("CVE-2014-4877")
	return sc, sharded, paths, queryBytesFor(t, cve, uir.ArchMIPS32), cve.Procedure
}

// With Workers 1 a search runs on its caller's goroutine alone, and a
// corpus-wide search of eight shards is one pass whatever the shard
// count: it materializes its candidates, then plays them, one after the
// other.
func TestSearchOneWorkerIsSerial(t *testing.T) {
	_, sharded, _, qb, proc := budgetScenario(t, 8)
	q, err := sharded.AnalyzeQuery(qb, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := telemetry.NewTrace(telemetry.NewTraceID())
	defer tr.Free()
	root := telemetry.Root(telemetry.New(), tr).Start("serve.request")
	if _, err := sharded.SearchAll(q, proc, &firmup.Options{Workers: 1, Span: root}); err != nil {
		t.Fatal(err)
	}
	root.End()
	byName := map[string][]telemetry.TraceSpan{}
	for _, sp := range tr.Snapshot().Spans {
		byName[sp.Name] = append(byName[sp.Name], sp)
	}
	mat, play := byName["store.materialize"], byName["core.search"]
	if len(mat) != 1 || len(play) != 1 {
		t.Fatalf("%d store.materialize and %d core.search spans over 8 shards, want one pass: one of each", len(mat), len(play))
	}
	if play[0].StartUS < mat[0].StartUS+mat[0].DurUS {
		t.Errorf("the games start at %.1fus, before materialization ends at %.1fus", play[0].StartUS, mat[0].StartUS+mat[0].DurUS)
	}
}

// The corpus's worker budget is shared by everything that runs on it:
// concurrent query analyses, corpus-wide and per-image searches on one
// store-backed corpus all answer as a serial run does, and every token
// is back once they have returned (CI runs this under -race -count=10).
func TestSealedBudgetShared(t *testing.T) {
	_, sharded, _, qb, proc := budgetScenario(t, 3)
	serial := &firmup.Options{Workers: 1}
	q, err := sharded.AnalyzeQuery(qb, serial)
	if err != nil {
		t.Fatal(err)
	}
	wantAll, err := sharded.SearchAll(q, proc, serial)
	if err != nil {
		t.Fatal(err)
	}
	images := sharded.Images()
	wantImage := make([]*firmup.SearchResult, len(images))
	for ii, im := range images {
		if wantImage[ii], err = sharded.SearchImageDetailed(q, proc, im, serial); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch i % 3 {
			case 0: // analyse the query afresh, then search with it
				q, err := sharded.AnalyzeQuery(qb, nil)
				if err != nil {
					t.Error(err)
					return
				}
				got, err := sharded.SearchAll(q, proc, nil)
				if err != nil || !reflect.DeepEqual(got, wantAll) {
					t.Errorf("goroutine %d: fresh query's corpus-wide search differs from the serial run's (err %v)", i, err)
				}
			case 1:
				got, err := sharded.SearchAll(q, proc, nil)
				if err != nil || !reflect.DeepEqual(got, wantAll) {
					t.Errorf("goroutine %d: corpus-wide search differs from the serial run's (err %v)", i, err)
				}
			default:
				ii := i % len(images)
				got, err := sharded.SearchImageDetailed(q, proc, images[ii], nil)
				if err != nil || !reflect.DeepEqual(got, wantImage[ii]) {
					t.Errorf("goroutine %d: search of image %d differs from the serial run's (err %v)", i, ii, err)
				}
			}
		}()
	}
	wg.Wait()
	if n := sharded.TokensHeld(); n != 0 {
		t.Errorf("%d worker tokens still lent after every call returned", n)
	}
}

// A query's analysis and a search's answers do not depend on
// Options.Workers, which is why firmupd's query cache keys an upload on
// its bytes alone.
func TestQueryWorkersInvariant(t *testing.T) {
	_, sharded, _, qb, proc := budgetScenario(t, 2)
	var queries [2]*firmup.Executable
	var answers [2][]firmup.ImageFindings
	for i, workers := range []int{1, 4} {
		opt := &firmup.Options{Workers: workers}
		q, err := sharded.AnalyzeQuery(qb, opt)
		if err != nil {
			t.Fatal(err)
		}
		if answers[i], err = sharded.SearchAll(q, proc, opt); err != nil {
			t.Fatal(err)
		}
		queries[i] = q
	}
	one, four := queries[0], queries[1]
	if !reflect.DeepEqual(one.Procedures(), four.Procedures()) {
		t.Fatal("procedure tables differ between Workers 1 and 4")
	}
	for i, p := range one.Sim().Procs {
		q := four.Sim().Procs[i]
		if !slices.Equal(p.Set.AppendHashes(nil), q.Set.AppendHashes(nil)) || !slices.Equal(p.Markers, q.Markers) {
			t.Errorf("procedure %d differs between Workers 1 and 4", i)
		}
	}
	if !reflect.DeepEqual(answers[0], answers[1]) {
		t.Error("corpus-wide answers differ between Workers 1 and 4")
	}
}

// A shard truncated under the process fails the searches that read it
// with the shard's corruption, for every later search too, on one worker
// and on several, and the process lives: a search of an image whose
// executables all live in other shards answers as before, WriteShards
// fails with the shard's corruption, and the corpus's shard list reports
// the damaged shard corrupt, and only it. The damaged shard holds
// candidates of the query. Truncated before its first search, it faults
// while its index is derived from its strand sets; after one, while a
// game reads the strand sets of the candidates that search materialized. (A panic on one of the game engine's own
// workers reaches the same recover; see internal/core's
// TestPlayBatchPanicReachesCaller.)
func TestTruncatedShardDegradesSearch(t *testing.T) {
	for _, warm := range []bool{false, true} {
		t.Run(fmt.Sprintf("warm=%v", warm), func(t *testing.T) {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					testTruncatedShard(t, warm, &firmup.Options{Workers: workers})
				})
			}
		})
	}
}

func testTruncatedShard(t *testing.T, warm bool, opt *firmup.Options) {
	sc, sharded, paths, qb, proc := budgetScenario(t, 3)
	if !sharded.Shards()[0].Mapped {
		t.Skip("shards are read into memory here: truncating the file does not reach the open corpus")
	}
	d := candidateShard(t, filepath.Dir(paths[0]), qb, proc)
	name := filepath.Base(paths[d])
	ii := slices.IndexFunc(sharded.Images(), func(im *firmup.SealedImage) bool {
		return !slices.Contains(firmup.ImageShards(im), d)
	})
	if ii < 0 {
		t.Fatalf("every image has an executable in shard %d", d)
	}
	inRAM, err := sc.AnalyzeQuery(qb, opt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sc.SearchImageDetailed(inRAM, proc, sc.Images()[ii], opt)
	if err != nil {
		t.Fatal(err)
	}
	q, err := sharded.AnalyzeQuery(qb, opt)
	if err != nil {
		t.Fatal(err)
	}
	if warm {
		if _, err := sharded.SearchAll(q, proc, opt); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Truncate(paths[d], 64); err != nil {
		t.Fatal(err)
	}
	for range 2 {
		_, err := sharded.SearchAll(q, proc, opt)
		if msg := fmt.Sprint(err); !errors.Is(err, firmup.ErrCorpusCorrupt) || !strings.Contains(msg, "memory fault") || !strings.Contains(msg, name) {
			t.Errorf("corpus-wide search over the truncated shard: err %v, want the recovered fault of %s", err, name)
		}
	}
	got, err := sharded.SearchImageDetailed(q, proc, sharded.Images()[ii], opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("image %d, stored outside the truncated shard, answers %+v, want %+v", ii, got, want)
	}
	// Re-sealing reads the truncated shard too: it fails, it does not fault.
	_, err = sharded.WriteShards(t.TempDir(), 2)
	if msg := fmt.Sprint(err); !errors.Is(err, firmup.ErrCorpusCorrupt) || !strings.Contains(msg, name) {
		t.Errorf("WriteShards over the truncated shard: err %v, want the corruption of %s", err, name)
	}
	for i, sh := range sharded.Shards() {
		if damaged := i == d; damaged != strings.Contains(sh.Corrupt, name) || !damaged && sh.Corrupt != "" {
			t.Errorf("shard %d reports corrupt %q", i, sh.Corrupt)
		}
	}
	if n := sharded.TokensHeld(); n != 0 {
		t.Errorf("%d worker tokens still lent after the failed searches", n)
	}
}

// A shard truncated under the process after a search has materialized
// its candidates fails a search of an image that ships one of them with
// an error naming the memory fault and the shard, on one worker and on
// several, and the search returns every worker token it was lent; a
// search of an image stored outside that shard still answers. The
// damaged shard holds candidates of the query.
func TestSearchPanickingShard(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			_, sharded, paths, qb, proc := budgetScenario(t, 3)
			if !sharded.Shards()[0].Mapped {
				t.Skip("shards are read into memory here: truncating the file does not reach the open corpus")
			}
			d := candidateShard(t, filepath.Dir(paths[0]), qb, proc)
			name := filepath.Base(paths[d])
			opt := &firmup.Options{Workers: workers}
			q, err := sharded.AnalyzeQuery(qb, opt)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sharded.SearchAll(q, proc, opt); err != nil {
				t.Fatal(err)
			}
			in := slices.IndexFunc(sharded.Images(), func(im *firmup.SealedImage) bool {
				shards, err := firmup.CandidateShards(sharded, q, proc, im)
				if err != nil {
					t.Fatal(err)
				}
				return slices.Contains(shards, d)
			})
			out := slices.IndexFunc(sharded.Images(), func(im *firmup.SealedImage) bool {
				return !slices.Contains(firmup.ImageShards(im), d)
			})
			if in < 0 || out < 0 {
				t.Fatalf("images with a candidate in shard %d: first %d; with no executable there: first %d", d, in, out)
			}
			if err := os.Truncate(paths[d], 64); err != nil {
				t.Fatal(err)
			}
			_, err = sharded.SearchImageDetailed(q, proc, sharded.Images()[in], opt)
			if msg := fmt.Sprint(err); !strings.Contains(msg, "memory fault") || !strings.Contains(msg, name) {
				t.Errorf("search of image %d, stored in the truncated shard: err %v, want a memory fault naming %s", in, err, name)
			}
			if _, err := sharded.SearchImageDetailed(q, proc, sharded.Images()[out], opt); err != nil {
				t.Errorf("search of image %d, stored outside the truncated shard: %v", out, err)
			}
			if n := sharded.TokensHeld(); n != 0 {
				t.Errorf("%d worker tokens still lent after the failed search", n)
			}
		})
	}
}

// A query's analysis looks its strands up in the frozen vocabulary, which
// reads shard 0's mapping: with shard 0 truncated under the process, the
// analysis fails with that shard's corruption — on the caller's goroutine
// and on the build's workers alike — instead of killing the process, marks
// only shard 0 corrupt, and returns every worker token it was lent.
func TestAnalyzeQueryTruncatedVocabulary(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			_, sharded, paths, qb, _ := budgetScenario(t, 3)
			if !sharded.Shards()[0].Mapped {
				t.Skip("shards are read into memory here: truncating the file does not reach the open corpus")
			}
			name := filepath.Base(paths[0])
			if err := os.Truncate(paths[0], 64); err != nil {
				t.Fatal(err)
			}
			q, err := sharded.AnalyzeQuery(qb, &firmup.Options{Workers: workers})
			if msg := fmt.Sprint(err); q != nil || !errors.Is(err, firmup.ErrCorpusCorrupt) || !strings.Contains(msg, name) {
				t.Errorf("analysis over the truncated vocabulary: %v, err %v, want the recovered fault of %s", q, err, name)
			}
			for i, sh := range sharded.Shards() {
				if damaged := i == 0; damaged != strings.Contains(sh.Corrupt, name) || !damaged && sh.Corrupt != "" {
					t.Errorf("shard %d reports corrupt %q", i, sh.Corrupt)
				}
			}
			if n := sharded.TokensHeld(); n != 0 {
				t.Errorf("%d worker tokens still lent after the failed analysis", n)
			}
		})
	}
}

// WriteShards over a truncated shard that stores executables but not the
// vocabulary (testTruncatedShard truncates the vocabulary's home, shard
// 0) fails with that shard's corruption instead of a fault, marks only
// it corrupt, and returns every worker token it was lent.
func TestWriteShardsTruncatedRecords(t *testing.T) {
	_, sharded, paths, _, _ := budgetScenario(t, 3)
	if !sharded.Shards()[0].Mapped {
		t.Skip("shards are read into memory here: truncating the file does not reach the open corpus")
	}
	name := filepath.Base(paths[1])
	if err := os.Truncate(paths[1], 64); err != nil {
		t.Fatal(err)
	}
	_, err := sharded.WriteShards(t.TempDir(), 2)
	if msg := fmt.Sprint(err); !errors.Is(err, firmup.ErrCorpusCorrupt) || !strings.Contains(msg, "memory fault") || !strings.Contains(msg, name) {
		t.Errorf("WriteShards over the truncated shard: err %v, want the recovered fault of %s", err, name)
	}
	for i, sh := range sharded.Shards() {
		if damaged := i == 1; damaged != strings.Contains(sh.Corrupt, name) || !damaged && sh.Corrupt != "" {
			t.Errorf("shard %d reports corrupt %q", i, sh.Corrupt)
		}
	}
	if n := sharded.TokensHeld(); n != 0 {
		t.Errorf("%d worker tokens still lent after the failed write", n)
	}
}

// candidateShard opens the shards under dir once more and returns the
// first one holding a candidate of the query.
func candidateShard(t *testing.T, dir string, qb []byte, proc string) int {
	t.Helper()
	sc, err := firmup.OpenSealedCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	q, err := sc.AnalyzeQuery(qb, nil)
	if err != nil {
		t.Fatal(err)
	}
	shards, err := firmup.CandidateShards(sc, q, proc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) == 0 {
		t.Fatal("no shard holds a candidate of the query")
	}
	return shards[0]
}
