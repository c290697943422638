package firmup_test

import (
	"reflect"
	"testing"

	"firmup"
	"firmup/internal/image"
	"firmup/internal/telemetry"
)

// openScenario opens the wget image and loads the query under one
// analyzer session.
func openScenario(t *testing.T, aopt *firmup.AnalyzerOptions) (*firmup.Analyzer, *firmup.Image, *firmup.Executable) {
	t.Helper()
	imgBytes, queryBytes, _ := buildScenario(t)
	a := firmup.NewAnalyzer(aopt)
	img, err := a.OpenImage(imgBytes)
	if err != nil {
		t.Fatal(err)
	}
	q, err := a.LoadQueryExecutable(queryBytes)
	if err != nil {
		t.Fatal(err)
	}
	return a, img, q
}

// The corpus-index prefilter must never change what a search returns —
// only how many targets it examines.
func TestSearchImageIndexEquivalence(t *testing.T) {
	a, img, q := openScenario(t, nil)
	indexed, err := a.SearchImageDetailed(q, "ftp_retrieve_glob", img, nil)
	if err != nil {
		t.Fatal(err)
	}
	exhaustive, err := a.SearchImageDetailed(q, "ftp_retrieve_glob", img, &firmup.Options{Exhaustive: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(indexed.Findings, exhaustive.Findings) {
		t.Errorf("findings diverge:\nindexed:    %+v\nexhaustive: %+v", indexed.Findings, exhaustive.Findings)
	}
	if !reflect.DeepEqual(indexed.StepsHistogram, exhaustive.StepsHistogram) {
		t.Errorf("histograms diverge: %v vs %v", indexed.StepsHistogram, exhaustive.StepsHistogram)
	}
	if exhaustive.Examined != len(img.Exes) {
		t.Errorf("exhaustive examined %d of %d executables", exhaustive.Examined, len(img.Exes))
	}
	if len(img.Exes) > 1 && indexed.Examined >= len(img.Exes) {
		t.Errorf("index examined %d of %d executables, want strictly fewer", indexed.Examined, len(img.Exes))
	}
	if len(indexed.Findings) == 0 {
		t.Error("scenario produced no findings to compare")
	}
}

// A query from a foreign session cannot use the image's index; the
// search must fall back to exhaustive examination and still agree.
func TestSearchImageCrossSessionFallback(t *testing.T) {
	a, img, q := openScenario(t, nil)
	_, queryBytes, _ := buildScenario(t)
	foreign := firmup.NewAnalyzer(nil)
	fq, err := foreign.LoadQueryExecutable(queryBytes)
	if err != nil {
		t.Fatal(err)
	}
	same, err := a.SearchImageDetailed(q, "ftp_retrieve_glob", img, nil)
	if err != nil {
		t.Fatal(err)
	}
	cross, err := a.SearchImageDetailed(fq, "ftp_retrieve_glob", img, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cross.Examined != len(img.Exes) {
		t.Errorf("cross-session search examined %d, want all %d", cross.Examined, len(img.Exes))
	}
	if !reflect.DeepEqual(same.Findings, cross.Findings) {
		t.Errorf("cross-session findings diverge:\nsame:  %+v\ncross: %+v", same.Findings, cross.Findings)
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
// order, skip order and procedure listings are worker-count independent.
func TestOpenImageParallelDeterminism(t *testing.T) {
	imgBytes, _, _ := buildScenario(t)
	data := corruptImage(t, imgBytes)
	shape := func(workers int) ([]string, []string) {
		a := firmup.NewAnalyzer(&firmup.AnalyzerOptions{Workers: workers})
		img, err := a.OpenImage(data)
		if err != nil {
			t.Fatal(err)
		}
		var exes, skipped []string
		for _, e := range img.Exes {
			exes = append(exes, e.Path)
		}
		for _, s := range img.Skipped {
			skipped = append(skipped, s.Path)
		}
		return exes, skipped
	}
	exes1, skip1 := shape(1)
	exes8, skip8 := shape(8)
	if !reflect.DeepEqual(exes1, exes8) {
		t.Errorf("executable order depends on workers: %v vs %v", exes1, exes8)
	}
	if !reflect.DeepEqual(skip1, skip8) {
		t.Errorf("skip order depends on workers: %v vs %v", skip1, skip8)
	}
}

func TestAnalyzerSessionStats(t *testing.T) {
	a, img, _ := openScenario(t, nil)
	if a.UniqueStrands() == 0 {
		t.Error("session interned no strands")
	}
	if img.IndexedStrands() == 0 {
		t.Error("image carries no index postings")
	}
}

// TestOpenImageSharesAnalysisOfIdenticalBytes pins the per-session
// analysis cache: a second image carrying the first one's executables
// byte for byte, under other paths, is answered from the first image's
// analysis — no procedure is built again — yet its executables carry,
// and its findings report, the second image's own paths, and
// exe.analyzed counts every executable of both images.
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
	q, err := a.LoadQueryExecutable(queryBytes)
	if err != nil {
		t.Fatal(err)
	}
	res1, err := a.SearchImageDetailed(q, "ftp_retrieve_glob", img1, nil)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := a.SearchImageDetailed(q, "ftp_retrieve_glob", img2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.Findings) == 0 {
		t.Fatal("search matched nothing; scenario is vacuous")
	}
	want := &firmup.SearchResult{Examined: res1.Examined, StepsHistogram: res1.StepsHistogram}
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
