package firmup_test

import (
	"bytes"
	"compress/zlib"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"firmup"
	"firmup/internal/image"
	"firmup/internal/telemetry"
)

// sealScenario opens the wget image under one analyzer session, seals
// it, and analyzes the query against the sealed corpus.
func sealScenario(t *testing.T) (*firmup.Analyzer, *firmup.SealedCorpus, *firmup.Executable) {
	t.Helper()
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
	q, err := sc.AnalyzeQuery(queryBytes, nil)
	if err != nil {
		t.Fatal(err)
	}
	return a, sc, q
}

// The corpus-index prefilter must never change what a search returns —
// only how many targets it examines.
func TestSearchImageIndexEquivalence(t *testing.T) {
	_, sc, q := sealScenario(t)
	img, n := sc.Images()[0], sc.Executables()
	indexed, err := sc.SearchImageDetailed(q, "ftp_retrieve_glob", img, nil)
	if err != nil {
		t.Fatal(err)
	}
	exhaustive, err := sc.SearchImageDetailed(q, "ftp_retrieve_glob", img, &firmup.Options{Exhaustive: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(indexed.Findings, exhaustive.Findings) {
		t.Errorf("findings diverge:\nindexed:    %+v\nexhaustive: %+v", indexed.Findings, exhaustive.Findings)
	}
	if exhaustive.Examined != n {
		t.Errorf("exhaustive examined %d of %d executables", exhaustive.Examined, n)
	}
	if n > 1 && indexed.Examined >= n {
		t.Errorf("index examined %d of %d executables, want strictly fewer", indexed.Examined, n)
	}
	if len(indexed.Findings) == 0 {
		t.Error("scenario produced no findings to compare")
	}
}

// Strand IDs mean the same strand only under one corpus's vocabulary, so
// every read refuses, with an error and without a panic, a query the
// corpus did not analyse — one analysed by another corpus, another
// corpus's sealed executable, an analyzer session's own — however the
// search is run, and MatchProcedure refuses a target sealed elsewhere.
// The corpus's own sealed executables pass as queries.
func TestForeignQueryRejected(t *testing.T) {
	a, sc, q := sealScenario(t)
	imgBytes, queryBytes, _ := buildScenario(t)
	other := firmup.NewAnalyzer(nil)
	otherImg, err := other.OpenImage(imgBytes)
	if err != nil {
		t.Fatal(err)
	}
	otherSC, err := other.Seal(otherImg)
	if err != nil {
		t.Fatal(err)
	}
	otherQ, err := otherSC.AnalyzeQuery(queryBytes, nil)
	if err != nil {
		t.Fatal(err)
	}
	session, err := a.OpenImage(imgBytes)
	if err != nil {
		t.Fatal(err)
	}
	img := sc.Images()[0]
	const proc = "ftp_retrieve_glob"
	target := img.Executable("bin/wget")
	otherTarget := otherSC.Images()[0].Executable("bin/wget")
	if target == nil || otherTarget == nil {
		t.Fatal("image lacks bin/wget")
	}
	// A sealed executable queries by one of its own (stripped) names.
	ownName := target.Procedures()[0].Name
	if _, err := sc.SearchAll(target, ownName, nil); err != nil {
		t.Fatalf("the corpus's own sealed executable as a query: %v", err)
	}
	for _, c := range []struct {
		name  string
		query *firmup.Executable
		proc  string
	}{
		{"query of another corpus", otherQ, proc},
		{"sealed executable of another corpus", otherTarget, ownName},
		{"analyzer session executable", session.Executable("bin/wget"), ownName},
	} {
		for _, opt := range []*firmup.Options{nil, {Exhaustive: true}} {
			calls := map[string]func() error{
				"SearchAll": func() error { _, err := sc.SearchAll(c.query, c.proc, opt); return err },
				"SearchAllBatch": func() error {
					_, err := sc.SearchAllBatch([]firmup.BatchQuery{{Query: q, Procedure: proc}, {Query: c.query, Procedure: c.proc}}, opt)
					return err
				},
				"SearchImageDetailed": func() error { _, err := sc.SearchImageDetailed(c.query, c.proc, img, opt); return err },
				"MatchProcedure":      func() error { _, _, err := sc.MatchProcedure(c.query, c.proc, target, opt); return err },
				"MatchProcedureTraced": func() error {
					_, _, err := sc.MatchProcedureTraced(c.query, c.proc, target, opt)
					return err
				},
			}
			for name, call := range calls {
				if err := call(); err == nil {
					t.Errorf("%s, %s (options %+v): a foreign query was searched", name, c.name, opt)
				}
			}
		}
	}
	if _, _, err := sc.MatchProcedure(q, proc, otherTarget, nil); err == nil {
		t.Error("MatchProcedure: a target sealed in another corpus was played")
	}
	if _, _, err := sc.MatchProcedureTraced(q, proc, otherTarget, nil); err == nil {
		t.Error("MatchProcedureTraced: a target sealed in another corpus was played")
	}
}

// corruptImage appends an executable with an unknown arch byte: it
// parses as an FWELF but analysis must fail and surface in Skipped.
func corruptImage(t *testing.T, imgBytes []byte) []byte {
	t.Helper()
	im, err := image.Unpack(imgBytes)
	if err != nil {
		t.Fatal(err)
	}
	var exeData []byte
	for _, fe := range im.Files {
		if pe := im.Executables(); len(pe) > 0 && fe.Path == pe[0].Path {
			exeData = append([]byte(nil), fe.Data...)
			break
		}
	}
	if exeData == nil {
		t.Fatal("image has no executable to corrupt")
	}
	exeData[6] = 0xC8 // arch byte: no such backend
	im.Files = append(im.Files, image.FileEntry{Path: "bin/corrupt", Data: exeData})
	return im.Pack(true)
}

func TestOpenImageSurfacesSkipped(t *testing.T) {
	imgBytes, _, _ := buildScenario(t)
	a := firmup.NewAnalyzer(nil)
	img, err := a.OpenImage(corruptImage(t, imgBytes))
	if err != nil {
		t.Fatal(err)
	}
	if len(img.Skipped) != 1 {
		t.Fatalf("Skipped = %+v, want exactly the corrupted entry", img.Skipped)
	}
	s := img.Skipped[0]
	if s.Path != "bin/corrupt" || s.Err == nil {
		t.Errorf("skip reason = %+v", s)
	}
	for _, e := range img.Exes {
		if e.Path == "bin/corrupt" {
			t.Error("corrupted executable must not be searchable")
		}
	}
}

// Parallel analysis must not change what an image looks like: executable
// order, skip order and every procedure's strands are worker-count
// independent.
func TestOpenImageParallelDeterminism(t *testing.T) {
	imgBytes, _, _ := buildScenario(t)
	data := corruptImage(t, imgBytes)
	type exeShape struct {
		Path    string
		Strands [][]uint64
	}
	shape := func(workers int) ([]exeShape, []string) {
		a := firmup.NewAnalyzer(&firmup.AnalyzerOptions{Workers: workers})
		img, err := a.OpenImage(data)
		if err != nil {
			t.Fatal(err)
		}
		var exes []exeShape
		var skipped []string
		for _, e := range img.Exes {
			sh := exeShape{Path: e.Path}
			for _, p := range e.Sim().Procs {
				sh.Strands = append(sh.Strands, p.Set.AppendHashes(nil))
			}
			exes = append(exes, sh)
		}
		for _, s := range img.Skipped {
			skipped = append(skipped, s.Path)
		}
		return exes, skipped
	}
	exes1, skip1 := shape(1)
	for _, workers := range []int{4, 8} {
		exes, skip := shape(workers)
		if !reflect.DeepEqual(exes1, exes) {
			t.Errorf("Workers %d: executables or strands differ from Workers 1", workers)
		}
		if !reflect.DeepEqual(skip1, skip) {
			t.Errorf("Workers %d: skip order %v, Workers 1 %v", workers, skip, skip1)
		}
	}
}

// An image that ships one executable under two paths has it analysed
// once, even when both copies are on workers at the same time: the
// second sighting waits for the first one's analysis and shares its
// procedures.
func TestOpenImageAnalysesInFlightDuplicateOnce(t *testing.T) {
	imgBytes, _, _ := buildScenario(t)
	im, err := image.Unpack(imgBytes)
	if err != nil {
		t.Fatal(err)
	}
	exe := im.Executables()[0]
	dup := *im
	dup.Files = nil
	for _, fe := range im.Files {
		dup.Files = append(dup.Files, fe)
		if fe.Path == exe.Path {
			dup.Files = append(dup.Files, image.FileEntry{Path: fe.Path + ".copy", Data: fe.Data})
		}
	}
	reg := telemetry.New()
	a := firmup.NewAnalyzer(&firmup.AnalyzerOptions{Workers: 4, Telemetry: reg})
	img, err := a.OpenImage(dup.Pack(true))
	if err != nil {
		t.Fatal(err)
	}
	orig, cp := img.Executable(exe.Path), img.Executable(exe.Path+".copy")
	if orig == nil || cp == nil {
		t.Fatalf("image lacks %s or its copy", exe.Path)
	}
	if orig.Sim().Procs[0] != cp.Sim().Procs[0] {
		t.Error("the two copies hold separately built procedures")
	}
	procs := 0
	for _, e := range img.Exes {
		if e != cp {
			procs += len(e.Procedures())
		}
	}
	if got := reg.Counter("sim.procs").Value(); got != int64(procs) {
		t.Errorf("sim.procs = %d, want %d: the copy must not be built again", got, procs)
	}
}

// An executable is the byte string it was analysed from, whether the
// image streamed it or was carved for it: shipped twice in an image whose
// container breaks after both copies, and once more in a healthy image,
// it is built once by the session, every sighting holds that one
// analysis, and Seal stores it once.
func TestCarvedAndStreamedCopiesShareOneAnalysis(t *testing.T) {
	imgBytes, _, _ := buildScenario(t)
	im, err := image.Unpack(imgBytes)
	if err != nil {
		t.Fatal(err)
	}
	exe := im.Executables()[0]
	data := exe.File.Bytes()
	broken := &image.Image{Vendor: im.Vendor, Device: im.Device, Version: im.Version, Files: []image.FileEntry{
		{Path: "bin/a", Data: data}, {Path: "bin/b", Data: data}, {Path: "etc/config", Data: []byte("a config file the cut ends in")},
	}}
	cut := broken.Pack(false)
	cut = cut[:len(cut)-8]
	if _, err := image.Stream(cut, func(image.FileEntry) {}); err == nil {
		t.Fatal("the cut image unpacks; the carving fallback is not exercised")
	}

	reg := telemetry.New()
	a := firmup.NewAnalyzer(&firmup.AnalyzerOptions{Workers: 4, Telemetry: reg})
	carved, err := a.OpenImage(cut)
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := a.OpenImage(oneExeImage("usr/bin/tool", data))
	if err != nil {
		t.Fatal(err)
	}
	var sightings []*firmup.Executable
	for _, img := range []*firmup.Image{carved, healthy} {
		sightings = append(sightings, img.Exes...)
	}
	var paths []string
	for _, e := range sightings {
		paths = append(paths, e.Path)
		if e.Sim() != sightings[0].Sim() {
			t.Errorf("%s holds an analysis of its own", e.Path)
		}
	}
	if want := []string{"carved_0", "carved_1", "usr/bin/tool"}; !reflect.DeepEqual(paths, want) {
		t.Fatalf("sightings %q, want %q", paths, want)
	}
	if got := reg.Stage("sim.build").Calls(); got != 1 {
		t.Errorf("the session ran %d builds of one byte string, want 1", got)
	}
	sc, err := a.Seal(carved, healthy)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Executables() != 3 || sc.UniqueExecutables() != 1 {
		t.Errorf("Seal stores %d executables for %d occurrences, want 1 for 3", sc.UniqueExecutables(), sc.Executables())
	}
}

// A compressed image whose stream breaks after some files were already
// dispatched opens as exactly what carving its bytes yields — what was
// analysed before the break is discarded — and no worker goroutine
// outlives the call.
func TestOpenImageBrokenStreamCarves(t *testing.T) {
	imgBytes, _, _ := buildScenario(t)
	im, err := image.Unpack(imgBytes)
	if err != nil {
		t.Fatal(err)
	}
	// Stored (uncompressed) deflate blocks leave the executables'
	// magics in the stream for the carver to find.
	var z bytes.Buffer
	z.Write(image.MagicZlib[:])
	zw, err := zlib.NewWriterLevel(&z, zlib.NoCompression)
	if err != nil {
		t.Fatal(err)
	}
	zw.Write(im.Pack(false)[4:])
	zw.Close()
	data := z.Bytes()[:z.Len()*2/3]
	dispatched := 0
	if _, err := image.Stream(data, func(image.FileEntry) { dispatched++ }); err == nil || dispatched == 0 {
		t.Fatalf("the cut stream must fail after some files: %d dispatched, error %v", dispatched, err)
	}
	carved := image.Carve(data)
	if len(carved) == 0 {
		t.Fatal("carving the cut stream finds nothing; the comparison is vacuous")
	}

	before := runtime.NumGoroutine()
	img, err := firmup.NewAnalyzer(&firmup.AnalyzerOptions{Workers: 4}).OpenImage(data)
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before OpenImage, %d after", before, runtime.NumGoroutine())
		}
	}

	ref := firmup.NewAnalyzer(&firmup.AnalyzerOptions{Workers: 1})
	var want, got []string
	for _, fe := range carved {
		if im, err := ref.OpenImage(oneExeImage(fe.Path, fe.Data)); err == nil {
			want = append(want, fmt.Sprint(fe.Path, exeStrands(im.Exes[0])))
		} else {
			want = append(want, fe.Path+" skipped")
		}
	}
	for _, e := range img.Exes {
		got = append(got, fmt.Sprint(e.Path, exeStrands(e)))
	}
	for _, s := range img.Skipped {
		got = append(got, s.Path+" skipped")
	}
	sort.Strings(want)
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("opened %d executables, carving yields %d:\ngot  %.200q\nwant %.200q", len(got), len(want), got, want)
	}
}

// The session's analysis budget is shared by everything analysing under
// it: concurrent OpenImage calls on a budget smaller than their number
// all finish, a carved image and one-executable images included, and
// every token is back once they have.
func TestAnalysisBudgetShared(t *testing.T) {
	imgBytes, _, _ := buildScenario(t)
	im, err := image.Unpack(imgBytes)
	if err != nil {
		t.Fatal(err)
	}
	exe := im.Executables()[0]
	broken := im.Pack(false) // an unknown magic: carved
	broken[0] = 'X'
	images := [][]byte{imgBytes, corruptImage(t, imgBytes), broken}
	a := firmup.NewAnalyzer(&firmup.AnalyzerOptions{Workers: 2})
	var wg sync.WaitGroup
	for i := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if i < len(images) {
				_, err = a.OpenImage(images[i])
			} else {
				_, err = a.OpenImage(oneExeImage(exe.Path, exe.File.Bytes()))
			}
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if n := a.TokensHeld(); n != 0 {
		t.Errorf("%d analysis tokens still taken after every call returned", n)
	}
}

func exeStrands(e *firmup.Executable) [][]uint64 {
	var out [][]uint64
	for _, p := range e.Sim().Procs {
		out = append(out, p.Set.AppendHashes(nil))
	}
	return out
}

// Sealing freezes the whole session vocabulary, and analysing a query
// against the sealed corpus interns nothing into the session.
func TestAnalyzerSessionStats(t *testing.T) {
	a, sc, _ := sealScenario(t)
	if a.UniqueStrands() == 0 {
		t.Error("session interned no strands")
	}
	if got, want := sc.UniqueStrands(), a.UniqueStrands(); got != want {
		t.Errorf("sealed vocabulary holds %d strands, the session %d", got, want)
	}
}

// TestOpenImageSharesAnalysisOfIdenticalBytes pins the per-session
// analysis cache: a second image carrying the first one's executables
// byte for byte, under other paths, is answered from the first image's
// analysis — no procedure is built again — yet its executables carry,
// and its findings in the corpus both seal into report, the second
// image's own paths, and exe.analyzed counts every executable of both
// images.
func TestOpenImageSharesAnalysisOfIdenticalBytes(t *testing.T) {
	imgBytes, queryBytes, _ := buildScenario(t)
	first, err := image.Unpack(imgBytes)
	if err != nil {
		t.Fatal(err)
	}
	second := *first
	second.Version += "-repack"
	second.Files = nil
	for _, fe := range first.Files {
		second.Files = append(second.Files, image.FileEntry{Path: "mnt/" + fe.Path, Data: fe.Data})
	}

	reg := telemetry.New()
	a := firmup.NewAnalyzer(&firmup.AnalyzerOptions{Telemetry: reg})
	img1, err := a.OpenImage(imgBytes)
	if err != nil {
		t.Fatal(err)
	}
	built := reg.Counter("sim.procs").Value()
	img2, err := a.OpenImage(second.Pack(true))
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("sim.procs").Value(); got != built {
		t.Errorf("the repacked image built %d procedures again; identical bytes must be analysed once per session", got-built)
	}
	if got, want := reg.Counter("exe.analyzed").Value(), int64(len(img1.Exes)+len(img2.Exes)); got != want {
		t.Errorf("exe.analyzed = %d, want %d: every executable of both images", got, want)
	}
	if len(img2.Exes) != len(img1.Exes) {
		t.Fatalf("repacked image has %d executables, the original %d", len(img2.Exes), len(img1.Exes))
	}
	sc, err := a.Seal(img1, img2)
	if err != nil {
		t.Fatal(err)
	}
	q, err := sc.AnalyzeQuery(queryBytes, nil)
	if err != nil {
		t.Fatal(err)
	}
	res1, err := sc.SearchImageDetailed(q, "ftp_retrieve_glob", sc.Images()[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := sc.SearchImageDetailed(q, "ftp_retrieve_glob", sc.Images()[1], nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.Findings) == 0 {
		t.Fatal("search matched nothing; scenario is vacuous")
	}
	want := &firmup.SearchResult{Examined: res1.Examined}
	for _, f := range res1.Findings {
		f.ExePath = "mnt/" + f.ExePath
		want.Findings = append(want.Findings, f)
	}
	if !reflect.DeepEqual(res2, want) {
		t.Errorf("repacked image answers differently:\ngot  %+v\nwant %+v", res2, want)
	}
	for i, e := range img2.Exes {
		if e.Path != "mnt/"+img1.Exes[i].Path {
			t.Errorf("executable %d of the repacked image is at %q, want %q", i, e.Path, "mnt/"+img1.Exes[i].Path)
		}
	}
}
