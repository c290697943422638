package firmup_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"firmup"
	"firmup/internal/corpus"
	"firmup/internal/image"
	"firmup/internal/sim"
	"firmup/internal/snapshot"
	"firmup/internal/strand"
	"firmup/internal/telemetry"
	"firmup/internal/uir"
)

// TestShardedCorpusEquivalence is the sharding soundness test: a
// sealed corpus split into any number of shards and reopened
// mmap-backed must answer every search byte-identically to the sealed
// one-shard corpus it was written from — findings, examined counts and step
// histograms, across sequential, batched and exhaustive paths, and
// under concurrent readers (exercised with -race in CI).
func TestShardedCorpusEquivalence(t *testing.T) {
	s := buildSealed(t, corpus.DefaultScale())
	cve := corpus.CVEByID("CVE-2014-4877")
	qb := queryBytesFor(t, cve, uir.ArchMIPS32)
	cve2 := corpus.CVEByID("CVE-2013-1944")
	qb2 := queryBytesFor(t, cve2, uir.ArchARM32)

	baseQ, err := s.AnalyzeQuery(qb, nil)
	if err != nil {
		t.Fatal(err)
	}
	baseQ2, err := s.AnalyzeQuery(qb2, nil)
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
		all, err := s.SearchAll(baseQ, cve.Procedure, opt)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := s.SearchAllBatch([]firmup.BatchQuery{
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
			paths, err := s.WriteShards(dir, nShards)
			if err != nil {
				t.Fatal(err)
			}
			if len(paths) != nShards {
				t.Fatalf("WriteShards returned %d paths, want %d", len(paths), nShards)
			}
			sc, err := firmup.OpenSealedCorpus(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer sc.Close()
			if got := len(sc.Shards()); got != nShards {
				t.Errorf("Shards() reports %d shards, want %d", got, nShards)
			}
			if sc.Executables() != s.Executables() || sc.UniqueStrands() != s.UniqueStrands() {
				t.Errorf("corpus shape diverges: %d/%d executables, %d/%d strands",
					sc.Executables(), s.Executables(), sc.UniqueStrands(), s.UniqueStrands())
			}

			q, err := sc.AnalyzeQuery(qb, nil)
			if err != nil {
				t.Fatal(err)
			}
			q2, err := sc.AnalyzeQuery(qb2, nil)
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
				// Per-image detailed results pin the examined counts too.
				for i, img := range sc.Images() {
					res, err := sc.SearchImageDetailed(q, cve.Procedure, img, opt)
					if err != nil {
						t.Fatal(err)
					}
					baseRes, err := s.SearchImageDetailed(baseQ, cve.Procedure, s.Images()[i], opt)
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

// TestOpenSealedCorpusForms pins the OpenSealedCorpus dispatch: a
// single-shard file and a shard directory open into equivalent corpora,
// and a multi-shard member opened as a lone file is rejected with a
// pointer to the directory form.
func TestOpenSealedCorpusForms(t *testing.T) {
	s := buildSealed(t, corpus.DefaultScale())
	cve := corpus.CVEByID("CVE-2014-4877")
	qb := queryBytesFor(t, cve, uir.ArchMIPS32)
	baseQ, err := s.AnalyzeQuery(qb, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.SearchAll(baseQ, cve.Procedure, nil)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	oneDir := filepath.Join(dir, "one")
	onePaths, err := s.WriteShards(oneDir, 1)
	if err != nil {
		t.Fatal(err)
	}
	manyDir := filepath.Join(dir, "many")
	manyPaths, err := s.WriteShards(manyDir, 3)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name, path string
	}{
		{"v2-single-file", onePaths[0]},
		{"v2-dir", manyDir},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc, err := firmup.OpenSealedCorpus(tc.path)
			if err != nil {
				t.Fatal(err)
			}
			defer sc.Close()
			q, err := sc.AnalyzeQuery(qb, nil)
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
	// answers any other version — here version 9, which stored a second,
	// hash-ordered copy of the vocabulary and every procedure's markers —
	// as corruption, pointing at re-sealing.
	otherDir := filepath.Join(dir, "other-version")
	if err := os.Mkdir(otherDir, 0o755); err != nil {
		t.Fatal(err)
	}
	other, err := os.ReadFile(onePaths[0])
	if err != nil {
		t.Fatal(err)
	}
	other[8] = 9
	otherPath := filepath.Join(otherDir, filepath.Base(onePaths[0]))
	if err := os.WriteFile(otherPath, other, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := snapshot.OpenCorpusShardFile(otherPath); !errors.Is(err, snapshot.ErrCorrupt) || !strings.Contains(err.Error(), "re-seal") {
		t.Errorf("OpenCorpusShardFile of a version-9 shard: err = %v, want ErrCorrupt pointing at re-sealing", err)
	}
	if _, err := firmup.OpenSealedCorpus(otherDir); !errors.Is(err, snapshot.ErrCorrupt) || !strings.Contains(err.Error(), "re-seal") {
		t.Errorf("OpenSealedCorpus of a version-9 shard: err = %v, want ErrCorrupt pointing at re-sealing", err)
	}

	// A strand ID outside the vocabulary, in an executable the query never
	// reaches, opens (nothing at open reads corpus-ids) and fails the
	// first search, which derives the shard's index from every set it
	// stores, as corruption of corpus-ids.
	idDir := filepath.Join(dir, "id-outside-vocab")
	if err := os.Mkdir(idDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, p := range manyPaths {
		blob, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			firmup.IDOutsideVocab(t, blob)
		}
		if err := os.WriteFile(filepath.Join(idDir, filepath.Base(p)), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	idSC, err := firmup.OpenSealedCorpus(idDir)
	if err != nil {
		t.Fatal(err)
	}
	defer idSC.Close()
	idQ, err := idSC.AnalyzeQuery(qb, nil)
	if err != nil {
		t.Fatal(err)
	}
	var ce *snapshot.CorruptError
	if _, err := idSC.SearchAll(idQ, cve.Procedure, nil); !errors.As(err, &ce) || ce.Section != "corpus-ids" || !strings.Contains(ce.Reason, "outside") {
		t.Errorf("search over a shard with a strand ID outside the vocabulary: err = %v, want ErrCorrupt naming corpus-ids", err)
	}
	if got := idSC.Shards()[0].Corrupt; got != ce.Error() {
		t.Errorf("the damaged shard reports corrupt %q, want %q", got, ce.Error())
	}

	// Damage only the set can tell — executable ranges that do not tile,
	// an occurrence past the executable total, an executable no image
	// names, a vocabulary checksum unlike shard 0's — is rejected at open
	// naming the damaged file.
	for name, fault := range firmup.ShardSetFaults {
		set := make([][]byte, len(manyPaths))
		for i, p := range manyPaths {
			if set[i], err = os.ReadFile(p); err != nil {
				t.Fatal(err)
			}
		}
		damaged := fault(t, set)
		faultDir := filepath.Join(dir, name)
		if err := os.Mkdir(faultDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, p := range manyPaths {
			if err := os.WriteFile(filepath.Join(faultDir, filepath.Base(p)), set[i], 0o644); err != nil {
				t.Fatal(err)
			}
		}
		_, err := firmup.OpenSealedCorpus(faultDir)
		if want := filepath.Join(faultDir, filepath.Base(manyPaths[damaged])); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: opening the set: err = %v, want an error naming %s", name, err, want)
		}
	}

	// A shard set with a member missing must be rejected at open.
	if err := os.Remove(manyPaths[2]); err != nil {
		t.Fatal(err)
	}
	if _, err := firmup.OpenSealedCorpus(manyDir); err == nil {
		t.Error("opening an incomplete shard set succeeded")
	}
}

// TestOpenSealedCorpusDirMixed pins the stray-file diagnostic: a
// .fwcorp file that is not a shard of the supported version — here a
// container of the deleted monolithic layout — dropped into a shard
// directory must fail the directory open with ErrCorrupt naming that
// file.
func TestOpenSealedCorpusDirMixed(t *testing.T) {
	s := buildSealed(t, corpus.Scale{DevicesPerVendor: 1, MaxReleases: 1, Seed: 5})
	dir := t.TempDir()
	if _, err := s.WriteShards(dir, 2); err != nil {
		t.Fatal(err)
	}
	stray := filepath.Join(dir, "old-corpus.fwcorp")
	if err := os.WriteFile(stray, []byte("FWCORP\r\n\x01\x00\x00\x00\x03\x00\x00\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := firmup.OpenSealedCorpus(dir)
	if !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("opening a directory with a stray container: err = %v, want ErrCorrupt", err)
	}
	if !strings.Contains(err.Error(), stray) {
		t.Errorf("error %q does not name the stray file %s", err, stray)
	}
}

// TestWriteShardsDeterminism pins two properties of the parallel shard
// writer: repeated runs are byte-identical (the worker pool cannot leak
// scheduling order into the artifacts), and every shard carries the one
// shard container version. The corpus reopened from the first run's
// directory writes the same shards again: re-splitting five shards into
// five is the identity. Writing copies each stored executable record from
// the shard that holds it, so neither corpus materializes an executable
// to write itself.
func TestWriteShardsDeterminism(t *testing.T) {
	s := buildSealed(t, corpus.Scale{DevicesPerVendor: 2, MaxReleases: 1, Seed: 7})
	dir := t.TempDir()
	runA, err := s.WriteShards(filepath.Join(dir, "a"), 5)
	if err != nil {
		t.Fatal(err)
	}
	runB, err := s.WriteShards(filepath.Join(dir, "b"), 5)
	if err != nil {
		t.Fatal(err)
	}
	reopened, err := firmup.OpenSealedCorpus(filepath.Join(dir, "a"))
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	runC, err := reopened.WriteShards(filepath.Join(dir, "c"), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(runA) != 5 || len(runB) != 5 || len(runC) != 5 {
		t.Fatalf("WriteShards returned %d/%d/%d paths, want 5", len(runA), len(runB), len(runC))
	}
	for i := range runA {
		a, err := os.ReadFile(runA[i])
		if err != nil {
			t.Fatal(err)
		}
		for run, paths := range map[string][]string{"a second WriteShards run": runB, "the reopened corpus": runC} {
			b, err := os.ReadFile(paths[i])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Errorf("shard %d differs between the first WriteShards run and %s", i, run)
			}
		}
		if v := binary.LittleEndian.Uint32(a[8:]); v != snapshot.CorpusFormatVersion {
			t.Errorf("shard %d: version word %d, want %d", i, v, snapshot.CorpusFormatVersion)
		}
	}
	for name, sc := range map[string]*firmup.SealedCorpus{"sealed": s, "reopened": reopened} {
		if n := sc.Materialized(); n != 0 {
			t.Errorf("%s corpus: WriteShards materialized %d of %d executables", name, n, sc.UniqueExecutables())
		}
	}
}

// TestShardDedupEquivalence is the dedup soundness test: a sealed corpus
// stores, scans and plays each distinct executable once — however many
// shards it is split into — and fans the outcome out. Over a corpus with
// forced duplicates — the same bytes twice in one image under two paths,
// again in the next image, again in the last one (another shard once
// there are several) — and two near-duplicates that must not merge (one
// procedure's address moved, one procedure's markers changed, with a
// strand no query holds added to its set):
//   - the copies merge and the near-duplicates do not;
//   - every image's findings, under default, relaxed-floor and exhaustive
//     options, are exactly those a game against each of its occurrences
//     alone accepts, and an exhaustive search examines every occurrence;
//   - every (query, image) result of shard sets of 1, 3 and 8 — single
//     and batched, corpus-wide and per image — deep-equals the sealed
//     corpus's, and the shard passes plan the games it plans.
func TestShardDedupEquivalence(t *testing.T) {
	built, err := corpus.Build(corpus.Scale{DevicesPerVendor: 2, MaxReleases: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(built.Images) < 4 {
		t.Fatalf("corpus has %d images; the duplicate layout needs 4", len(built.Images))
	}
	cve := corpus.CVEByID("CVE-2014-4877")
	qb := queryBytesFor(t, cve, uir.ArchMIPS32)
	cve2 := corpus.CVEByID("CVE-2013-1944")
	qb2 := queryBytesFor(t, cve2, uir.ArchARM32)

	// The donor is the first executable the query is found in: every
	// forced copy then carries a finding, so a fan-out that dropped or
	// mis-stamped one would show.
	plain := firmup.NewAnalyzer(nil)
	var plainImgs []*firmup.Image
	for _, bi := range built.Images {
		img, err := plain.OpenImage(bi.Image.Pack(true))
		if err != nil {
			t.Fatal(err)
		}
		plainImgs = append(plainImgs, img)
	}
	plainSealed, err := plain.Seal(plainImgs...)
	if err != nil {
		t.Fatal(err)
	}
	plainAll, err := plainSealed.SearchAll(mustSealedQuery(t, plainSealed, qb), cve.Procedure, nil)
	if err != nil {
		t.Fatal(err)
	}
	donorImg := -1
	var donorHit firmup.Finding
	for i := 0; i+1 < len(built.Images)-1 && donorImg < 0; i++ {
		if fs := plainAll[i].Findings; len(fs) > 0 {
			donorImg, donorHit = i, fs[0]
		}
	}
	if donorImg < 0 {
		t.Fatal("no image carries the query procedure; equivalence would be vacuous")
	}
	donorPath := donorHit.ExePath
	var donor []byte
	for _, fe := range built.Images[donorImg].Image.Files {
		if fe.Path == donorPath {
			donor = fe.Data
		}
	}
	last := len(built.Images) - 1
	copies := map[int][]string{donorImg: {"dup/twice"}, donorImg + 1: {"dup/next-image"}, last: {"dup/last-image"}}

	a := firmup.NewAnalyzer(nil)
	var imgs []*firmup.Image
	for i, bi := range built.Images {
		im := *bi.Image
		im.Files = append([]image.FileEntry(nil), im.Files...)
		for _, p := range copies[i] {
			im.Files = append(im.Files, image.FileEntry{Path: p, Data: donor})
		}
		img, err := a.OpenImage(im.Pack(true))
		if err != nil {
			t.Fatal(err)
		}
		imgs = append(imgs, img)
	}
	src := imgs[donorImg].Executable(donorPath)
	for i, ps := range copies {
		for _, p := range ps {
			if cp := imgs[i].Executable(p); cp == nil || cp.Sim() != src.Sim() {
				t.Fatalf("image %d: %s does not hold the donor's analysis", i, p)
			}
		}
	}
	edit := func(f func(*sim.Proc)) func([]*sim.Proc) {
		return func(procs []*sim.Proc) {
			for _, p := range procs {
				if p.Addr == donorHit.ProcAddr {
					f(p)
					return
				}
			}
			t.Fatal("donor procedure not found in its copy")
		}
	}
	firmup.AddVariant(imgs[donorImg], src, "near/addr", edit(func(p *sim.Proc) { p.Addr += 0x40 }))
	firmup.AddVariant(imgs[donorImg], src, "near/markers", edit(func(p *sim.Proc) {
		if len(p.Markers) == 0 {
			t.Fatal("donor procedure has no markers to change")
		}
		shifted := make([]uint32, len(p.Markers))
		for i, m := range p.Markers {
			shifted[i] = m + 1
		}
		p.Markers = shifted
		// Markers are the marker constants of a procedure's strands, and
		// a shard stores them once per strand set: a procedure whose
		// markers differ holds another set, here one more strand, which
		// no query holds.
		ids := append(slices.Clone(p.Set.IDs), p.Set.It.Intern(0x6e6561726d61726b))
		slices.Sort(ids)
		p.Set = strand.Set{IDs: ids, It: p.Set.It}
	}))

	sealed, err := a.Seal(imgs...)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sealed.Executables(), plainSealed.Executables()+5; got != want {
		t.Fatalf("sealed corpus counts %d executables, want %d (three copies, two near-duplicates)", got, want)
	}
	if got, want := sealed.UniqueExecutables(), plainSealed.UniqueExecutables()+2; got != want {
		t.Fatalf("sealed corpus stores %d distinct executables, want %d: the copies must merge, the near-duplicates must not", got, want)
	}

	opts := []*firmup.Options{nil, {MinScore: 3, MinRatio: 0.2}, {Exhaustive: true}}
	ramBatch := []firmup.BatchQuery{
		{Query: mustSealedQuery(t, sealed, qb), Procedure: cve.Procedure},
		{Query: mustSealedQuery(t, sealed, qb2), Procedure: cve2.Procedure},
	}
	// want[opt][query][image] is the sealed corpus's answer.
	want := make([][][]*firmup.SearchResult, len(opts))
	total := 0
	for oi, opt := range opts {
		want[oi] = make([][]*firmup.SearchResult, len(ramBatch))
		for qx, bq := range ramBatch {
			for _, img := range sealed.Images() {
				res, err := sealed.SearchImageDetailed(bq.Query, bq.Procedure, img, opt)
				if err != nil {
					t.Fatal(err)
				}
				want[oi][qx] = append(want[oi][qx], res)
				total += len(res.Findings)
			}
		}
	}
	paths := map[string]bool{}
	for _, f := range want[0][0][donorImg].Findings {
		paths[f.ExePath] = true
	}
	if !paths[donorPath] || !paths["dup/twice"] || !paths["near/addr"] || paths["near/markers"] {
		t.Fatalf("donor image findings %v: want the donor, its copy and the moved-address variant, and not the changed-markers one", paths)
	}
	if total == 0 {
		t.Fatal("the sealed corpus found nothing; equivalence would be vacuous")
	}

	// No dedup: one game per occurrence, each played on its own.
	t.Run("sealed", func(t *testing.T) {
		for ii, img := range sealed.Images() {
			exes, err := firmup.Occurrences(img)
			if err != nil {
				t.Fatal(err)
			}
			for oi, opt := range opts {
				for qx, bq := range ramBatch {
					found := []firmup.Finding{}
					for _, e := range exes {
						f, _, err := sealed.MatchProcedure(bq.Query, bq.Procedure, e, opt)
						if err != nil {
							t.Fatal(err)
						}
						if f != nil {
							found = append(found, *f)
						}
					}
					sort.Slice(found, func(i, j int) bool { return found[i].ExePath < found[j].ExePath })
					w := want[oi][qx][ii]
					if !reflect.DeepEqual(w.Findings, found) {
						t.Errorf("opt[%d] query %d image %d: the search reports %+v, one game per occurrence accepts %+v", oi, qx, ii, w.Findings, found)
					}
					if opt != nil && opt.Exhaustive && w.Examined != len(exes) {
						t.Errorf("query %d image %d: an exhaustive search examined %d of %d occurrences", qx, ii, w.Examined, len(exes))
					}
				}
			}
		}
	})

	// The games the sealed corpus plans for one batch: each (query,
	// distinct candidate) once.
	ramGames := func() int64 {
		reg := telemetry.New()
		sealed.SetTelemetry(reg)
		defer sealed.SetTelemetry(nil)
		if _, err := sealed.SearchAllBatch(ramBatch, nil); err != nil {
			t.Fatal(err)
		}
		return reg.Counter("game.played").Value() + reg.Counter("game.unplayed").Value()
	}()
	if ramGames == 0 {
		t.Fatal("the sealed corpus plans no games; the stored-once check would be vacuous")
	}
	for _, n := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			dir := t.TempDir()
			if _, err := sealed.WriteShards(dir, n); err != nil {
				t.Fatal(err)
			}
			sc, err := firmup.OpenSealedCorpus(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer sc.Close()
			// Stored once: the shards split the corpus's distinct executables
			// between them, however their images share them.
			stored, occurrences := 0, 0
			for _, sh := range sc.Shards() {
				stored += sh.UniqueExecutables
				occurrences += sh.Executables
			}
			if stored != sealed.UniqueExecutables() || sc.UniqueExecutables() != stored || occurrences != sealed.Executables() || sc.Executables() != occurrences {
				t.Errorf("shards store %d distinct executables for %d occurrences (corpus reports %d / %d), the sealed corpus %d / %d",
					stored, occurrences, sc.UniqueExecutables(), sc.Executables(), sealed.UniqueExecutables(), sealed.Executables())
			}
			batch := []firmup.BatchQuery{
				{Query: mustSealedQuery(t, sc, qb), Procedure: cve.Procedure},
				{Query: mustSealedQuery(t, sc, qb2), Procedure: cve2.Procedure},
			}
			// Played once: the one pass of a batch over the shards plans what
			// the sealed corpus's plans, and tells the span it runs under.
			tr := telemetry.NewTrace(telemetry.NewTraceID())
			defer tr.Free()
			sp := telemetry.Root(nil, tr).Start("serve.search")
			if _, err := sc.SearchAllBatch(batch, &firmup.Options{Span: sp}); err != nil {
				t.Fatal(err)
			}
			sp.End()
			if games, _ := tr.Snapshot().Spans[0].Attrs["unique_candidates"].(int64); games != ramGames {
				t.Errorf("the pass over %d shards plans %d games, the sealed corpus %d", n, games, ramGames)
			}
			for oi, opt := range opts {
				allBatch, err := sc.SearchAllBatch(batch, opt)
				if err != nil {
					t.Fatal(err)
				}
				for qx, bq := range batch {
					all, err := sc.SearchAll(bq.Query, bq.Procedure, opt)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(all, allBatch[qx]) {
						t.Errorf("opt[%d] query %d: SearchAll diverges from its SearchAllBatch entry", oi, qx)
					}
					for ii, img := range sc.Images() {
						w := want[oi][qx][ii]
						res, err := sc.SearchImageDetailed(bq.Query, bq.Procedure, img, opt)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(res, w) {
							t.Errorf("opt[%d] query %d image %d: per-image result diverges from the sealed corpus:\nshards: %+v\nsealed: %+v", oi, qx, ii, res, w)
						}
						wantAll := firmup.ImageFindings{Vendor: img.Vendor, Device: img.Device, Version: img.Version, Findings: w.Findings, Examined: w.Examined}
						if !reflect.DeepEqual(all[ii], wantAll) {
							t.Errorf("opt[%d] query %d image %d: SearchAll entry diverges from the sealed corpus:\nshards: %+v\nsealed: %+v", oi, qx, ii, all[ii], wantAll)
						}
					}
				}
			}
		})
	}
}

func mustSealedQuery(t *testing.T, sc *firmup.SealedCorpus, data []byte) *firmup.Executable {
	t.Helper()
	q, err := sc.AnalyzeQuery(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	return q
}
