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

// buildSealed analyzes every image of a generated corpus under one
// session and seals it.
func buildSealed(t *testing.T, scale corpus.Scale) *firmup.SealedCorpus {
	t.Helper()
	sc, err := sealCorpus(scale)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func sealCorpus(scale corpus.Scale) (*firmup.SealedCorpus, error) {
	c, err := corpus.Build(scale)
	if err != nil {
		return nil, err
	}
	a := firmup.NewAnalyzer(nil)
	var imgs []*firmup.Image
	for _, bi := range c.Images {
		img, err := a.OpenImage(bi.Image.Pack(true))
		if err != nil {
			return nil, err
		}
		imgs = append(imgs, img)
	}
	return a.Seal(imgs...)
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

// TestSealedConcurrentReaders hammers one sealed corpus from many
// goroutines, each running its own query analysis and corpus-wide
// search; every result must equal the serial baseline. Run under -race
// this doubles as the proof that the query path performs no writes to
// shared corpus state.
func TestSealedConcurrentReaders(t *testing.T) {
	s := buildSealed(t, corpus.DefaultScale())
	cve := corpus.CVEByID("CVE-2014-4877")
	qb := queryBytesFor(t, cve, uir.ArchMIPS32)

	baseQ, err := s.AnalyzeQuery(qb, nil)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := s.SearchAll(baseQ, cve.Procedure, nil)
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
				q, err := s.AnalyzeQuery(qb, nil)
				if err != nil {
					errs <- err
					return
				}
				got, err := s.SearchAll(q, cve.Procedure, nil)
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
// one-shard directory and reopens it with no analyzer session; the opened
// corpus must carry identical metadata and answer searches identically.
// The sealed corpus is itself one shard, held in memory: it reports that
// shard, unmapped, storing every distinct executable, and closes cleanly.
func TestSealedCorpusSaveLoadRoundTrip(t *testing.T) {
	s := buildSealed(t, corpus.DefaultScale())
	shards := s.Shards()
	if len(shards) != 1 {
		t.Fatalf("the sealed corpus reports %d shards, want 1", len(shards))
	}
	if sh := shards[0]; sh.UniqueExecutables != s.UniqueExecutables() || sh.Executables != s.Executables() ||
		sh.Images != len(s.Images()) || sh.Mapped || sh.Path == "" || sh.SizeBytes <= 0 || sh.Corrupt != "" {
		t.Errorf("the sealed corpus's shard is %+v; the corpus stores %d distinct executables, %d occurrences in %d images",
			sh, s.UniqueExecutables(), s.Executables(), len(s.Images()))
	}
	dir := t.TempDir()
	if _, err := s.WriteShards(dir, 1); err != nil {
		t.Fatal(err)
	}
	loaded, err := firmup.OpenSealedCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if got, want := loaded.UniqueStrands(), s.UniqueStrands(); got != want {
		t.Errorf("unique strands: loaded %d, sealed %d", got, want)
	}
	if got, want := loaded.Executables(), s.Executables(); got != want {
		t.Errorf("executables: loaded %d, sealed %d", got, want)
	}
	// One shard spans every image, so it stores exactly the corpus-wide
	// distinct executables.
	if got, want := loaded.UniqueExecutables(), s.UniqueExecutables(); got != want {
		t.Errorf("unique executables: loaded %d, sealed %d", got, want)
	}
	if got, want := len(loaded.Images()), len(s.Images()); got != want {
		t.Fatalf("images: loaded %d, sealed %d", got, want)
	}
	for i, im := range s.Images() {
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
	sq, err := s.AnalyzeQuery(qb, nil)
	if err != nil {
		t.Fatal(err)
	}
	lq, err := loaded.AnalyzeQuery(qb, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.SearchAll(sq, cve.Procedure, nil)
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
	if err := s.Close(); err != nil {
		t.Errorf("closing the sealed corpus: %v", err)
	}
}

// TestSealedCorpusCorruption flips bits across a one-shard corpus file;
// every damaged form must fail — at open, or at the first search that
// touches the damage, since sections are verified on first touch — with
// an error wrapping ErrCorpusCorrupt, never a panic or a silently
// wrong corpus. Only the zero padding between sections is uncovered.
func TestSealedCorpusCorruption(t *testing.T) {
	s := buildSealed(t, corpus.DefaultScale())
	paths, err := s.WriteShards(t.TempDir(), 1)
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
		q, err := sc.AnalyzeQuery(qb, nil)
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

// TestSealedUnknownProcedure pins the sealed corpus's error contract: a
// search for a procedure the query lacks fails, and so does analysing
// bytes that are no executable.
func TestSealedUnknownProcedure(t *testing.T) {
	_, sc, q := sealScenario(t)
	if _, err := sc.SearchAll(q, "no_such_procedure", nil); err == nil {
		t.Error("unknown procedure must fail")
	}
	if _, err := sc.AnalyzeQuery([]byte("garbage"), nil); err == nil {
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
	s := buildSealed(t, corpus.DefaultScale())
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
		if exes[i], err = s.AnalyzeQueryWith("query", b, 1); err != nil {
			t.Fatal(err)
		}
	}
	for i, e := range exes {
		if _, err := s.SearchAll(e, corpus.CVEs[i/4].Procedure, nil); err != nil {
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

// TestSinglePrefilterEvaluation pins that a sealed search asks the
// corpus index for each query procedure's candidates exactly once,
// whatever the shard count: the list that selects what is materialized
// is the list the games run on, not a second evaluation, and one scan
// serves every image and every shard. For the corpus sealed in memory
// and for it written as 1, 3 and 8 shard files and opened again, one
// SearchAll records one index query and a k-query SearchAllBatch k more,
// and the batch's findings and examined counts are the same in every
// form.
func TestSinglePrefilterEvaluation(t *testing.T) {
	s := buildSealed(t, corpus.Scale{DevicesPerVendor: 2, MaxReleases: 2, Seed: 3})
	forms := []struct {
		name string
		sc   *firmup.SealedCorpus
	}{{"sealed", s}}
	for _, n := range []int{1, 3, 8} {
		dir := t.TempDir()
		if _, err := s.WriteShards(dir, n); err != nil {
			t.Fatal(err)
		}
		store, err := firmup.OpenSealedCorpus(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		if len(store.Shards()) != n {
			t.Fatalf("%d shards written, %d opened", n, len(store.Shards()))
		}
		forms = append(forms, struct {
			name string
			sc   *firmup.SealedCorpus
		}{fmt.Sprintf("shards=%d", n), store})
	}

	var want [][]firmup.ImageFindings
	for _, form := range forms {
		reg := telemetry.New()
		form.sc.SetTelemetry(reg)
		var batch []firmup.BatchQuery
		for _, q := range sealedTestQueries {
			cve := corpus.CVEByID(q.cveID)
			qe, err := form.sc.AnalyzeQuery(queryBytesFor(t, cve, q.arch), nil)
			if err != nil {
				t.Fatal(err)
			}
			batch = append(batch, firmup.BatchQuery{Query: qe, Procedure: cve.Procedure})
		}
		if _, err := form.sc.SearchAll(batch[0].Query, batch[0].Procedure, nil); err != nil {
			t.Fatal(err)
		}
		if got := reg.Counter("index.queries").Value(); got != 1 {
			t.Errorf("%s: SearchAll ran %d candidate queries, want one", form.name, got)
		}
		got, err := form.sc.SearchAllBatch(batch, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := reg.Counter("index.queries").Value(), int64(1+len(batch)); got != want {
			t.Errorf("%s: after a %d-query SearchAllBatch index.queries = %d, want %d (one per query)",
				form.name, len(batch), got, want)
		}
		form.sc.SetTelemetry(nil)
		if want == nil {
			want = got
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the batch's findings or examined counts differ from the sealed corpus's", form.name)
		}
	}
	found := 0
	for _, images := range want {
		for _, im := range images {
			found += len(im.Findings)
		}
	}
	if found == 0 {
		t.Error("the batch finds nothing: the comparison is vacuous")
	}
}
