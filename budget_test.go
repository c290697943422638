package firmup_test

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"firmup"
	"firmup/internal/corpus"
	"firmup/internal/snapshot"
	"firmup/internal/telemetry"
	"firmup/internal/uir"
)

// defaultSealed is the default-scale corpus sealed in RAM, built once
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
	if sharded, err = firmup.OpenSealedCorpusDir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sharded.Close() })
	cve := corpus.CVEByID("CVE-2014-4877")
	return sc, sharded, paths, queryBytesFor(t, cve, uir.ArchMIPS32), cve.Procedure
}

// With Workers 1 a search runs on its caller's goroutine alone, so a
// corpus-wide search passes over the shards one after another.
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
	var shards []telemetry.TraceSpan
	for _, sp := range tr.Snapshot().Spans {
		if sp.Name == "corpus.shard" {
			shards = append(shards, sp)
		}
	}
	if len(shards) != 8 {
		t.Fatalf("%d corpus.shard spans, want 8", len(shards))
	}
	slices.SortFunc(shards, func(a, b telemetry.TraceSpan) int { return cmp.Compare(a.StartUS, b.StartUS) })
	for i := 1; i < len(shards); i++ {
		if prev := shards[i-1]; shards[i].StartUS < prev.StartUS+prev.DurUS {
			t.Errorf("shard %v starts at %.1fus, before shard %v ends at %.1fus", shards[i].Attrs["shard"], shards[i].StartUS, prev.Attrs["shard"], prev.StartUS+prev.DurUS)
		}
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
	for i := range one.Procedures() {
		if !reflect.DeepEqual(one.ProcedureStrands(i), four.ProcedureStrands(i)) ||
			!reflect.DeepEqual(one.ProcedureMarkers(i), four.ProcedureMarkers(i)) {
			t.Errorf("procedure %d differs between Workers 1 and 4", i)
		}
	}
	if !reflect.DeepEqual(answers[0], answers[1]) {
		t.Error("corpus-wide answers differ between Workers 1 and 4")
	}
}

// A shard truncated under the process fails the searches that read it
// with the shard's corruption, for every later search too, and the
// process lives: a search of an image whose executables all live in
// other shards answers as before. Truncated before its first search,
// the shard faults while its index is built; after one, while a search
// reads its postings.
func TestTruncatedShardDegradesSearch(t *testing.T) {
	for _, warm := range []bool{false, true} {
		t.Run(fmt.Sprintf("warm=%v", warm), func(t *testing.T) {
			sc, sharded, paths, qb, proc := budgetScenario(t, 3)
			if !sharded.Shards()[1].Mapped {
				t.Skip("shards are read into memory here: truncating the file does not reach the open corpus")
			}
			ii := slices.IndexFunc(sharded.Images(), func(im *firmup.SealedImage) bool {
				return !slices.Contains(firmup.ImageShards(im), 1)
			})
			if ii < 0 {
				t.Fatal("every image has an executable in shard 1")
			}
			inRAM, err := sc.AnalyzeQuery(qb, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := sc.SearchImageDetailed(inRAM, proc, sc.Images()[ii], nil)
			if err != nil {
				t.Fatal(err)
			}
			q, err := sharded.AnalyzeQuery(qb, nil)
			if err != nil {
				t.Fatal(err)
			}
			if warm {
				if _, err := sharded.SearchAll(q, proc, nil); err != nil {
					t.Fatal(err)
				}
			}
			if err := os.Truncate(paths[1], 64); err != nil {
				t.Fatal(err)
			}
			for range 2 {
				_, err := sharded.SearchAll(q, proc, nil)
				if !errors.Is(err, firmup.ErrCorpusCorrupt) || !strings.Contains(fmt.Sprint(err), "shard-0001.fwcorp") {
					t.Errorf("corpus-wide search over the truncated shard: err %v, want the shard's corruption", err)
				}
			}
			got, err := sharded.SearchImageDetailed(q, proc, sharded.Images()[ii], nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("image %d, stored outside the truncated shard, answers %+v, want %+v", ii, got, want)
			}
			if n := sharded.TokensHeld(); n != 0 {
				t.Errorf("%d worker tokens still lent after the failed searches", n)
			}
		})
	}
}

// A shard damaged under an open corpus — its posting slab overwritten in
// place after the first search has verified every section, so the next
// scan of that group indexes out of range — fails the search that reads
// it with an error naming the panic and the shard, on one worker and on
// several, and a search of the undamaged shard's images still answers.
// (A panic on one of the game engine's own workers reaches the same
// recover; see internal/core's TestPlayBatchPanicReachesCaller.)
func TestSearchPanickingShard(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			_, sharded, paths, qb, proc := budgetScenario(t, 2)
			if !sharded.Shards()[0].Mapped {
				t.Skip("shards are read into memory here: a write to the file does not reach the open corpus")
			}
			opt := &firmup.Options{Workers: workers}
			q, err := sharded.AnalyzeQuery(qb, opt)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sharded.SearchAll(q, proc, opt); err != nil {
				t.Fatal(err)
			}
			shard, err := snapshot.OpenCorpusShardFile(paths[0])
			if err != nil {
				t.Fatal(err)
			}
			slabs, err := shard.Index()
			if err != nil {
				t.Fatal(err)
			}
			var slab []byte
			for _, s := range slabs.Posts {
				slab = binary.LittleEndian.AppendUint32(slab, s)
			}
			shard.Close()
			file, err := os.ReadFile(paths[0])
			if err != nil {
				t.Fatal(err)
			}
			off := bytes.Index(file, slab)
			if len(slab) == 0 || off < 0 {
				t.Fatalf("posting slab (%d bytes) not found in %s", len(slab), paths[0])
			}
			f, err := os.OpenFile(paths[0], os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt(bytes.Repeat([]byte{0xff}, len(slab)), int64(off)); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			_, err = sharded.SearchAll(q, proc, opt)
			if msg := fmt.Sprint(err); !strings.Contains(msg, "panicked") || !strings.Contains(msg, "shard-0000.fwcorp") {
				t.Errorf("search over the damaged shard: err %v, want a panic naming the shard", err)
			}
			last := sharded.Images()[len(sharded.Images())-1]
			if slices.Contains(firmup.ImageShards(last), 0) {
				t.Fatal("the last image has an executable in the damaged shard")
			}
			if _, err := sharded.SearchImageDetailed(q, proc, last, opt); err != nil {
				t.Errorf("search of an image of the undamaged shard: %v", err)
			}
		})
	}
}
