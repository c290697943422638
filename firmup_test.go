package firmup_test

import (
	"testing"

	"firmup"
	"firmup/internal/corpus"
	"firmup/internal/image"
	"firmup/internal/telemetry"
	"firmup/internal/uir"
)

// buildScenario produces a packed firmware image (bytes, as a user would
// have) plus a query executable for the wget CVE.
func buildScenario(t *testing.T) (imgBytes []byte, queryBytes []byte, hasWget bool) {
	t.Helper()
	c, err := corpus.Build(corpus.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	var target *corpus.BuiltImage
	var arch uir.Arch
	for _, bi := range c.Images {
		for _, e := range bi.Exes {
			if e.Pkg == "wget" && e.PkgVersion == "1.15" {
				target = bi
				arch = e.Arch
			}
		}
	}
	if target == nil {
		t.Fatal("no wget 1.15 image in default corpus")
	}
	qf, err := corpus.QueryExe("wget", "1.15", arch)
	if err != nil {
		t.Fatal(err)
	}
	return target.Image.Pack(true), qf.Bytes(), true
}

// oneExeImage packs an image holding the one file data under path: how an
// Analyzer, which analyses images, takes a standalone executable.
func oneExeImage(path string, data []byte) []byte {
	im := &image.Image{Files: []image.FileEntry{{Path: path, Data: data}}}
	return im.Pack(false)
}

func TestEndToEndSearch(t *testing.T) {
	a := firmup.NewAnalyzer(nil)
	imgBytes, queryBytes, _ := buildScenario(t)
	img, err := a.OpenImage(imgBytes)
	if err != nil {
		t.Fatal(err)
	}
	if len(img.Exes) == 0 {
		t.Fatal("no executables")
	}
	sc, err := a.Seal(img)
	if err != nil {
		t.Fatal(err)
	}
	q, err := sc.AnalyzeQuery(queryBytes, nil)
	if err != nil {
		t.Fatal(err)
	}
	all, err := sc.SearchAll(q, "ftp_retrieve_glob", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 || len(all[0].Findings) == 0 {
		t.Fatalf("vulnerable procedure not found: %+v", all)
	}
	f := all[0].Findings[0]
	if f.Confidence < 0.42 || f.Score < 8 {
		t.Errorf("weak finding: %+v", f)
	}
	if f.ProcName == "" {
		t.Error("finding lacks a procedure name")
	}
}

func TestProcedureListing(t *testing.T) {
	_, _, q := sealScenario(t)
	procs := q.Procedures()
	if len(procs) < 20 {
		t.Fatalf("only %d procedures", len(procs))
	}
	found := false
	for _, p := range procs {
		if p.Name == "ftp_retrieve_glob" {
			found = true
			if p.Strands == 0 || p.Blocks == 0 {
				t.Errorf("empty representation: %+v", p)
			}
		}
	}
	if !found {
		t.Error("query listing lacks ftp_retrieve_glob")
	}
}

func TestMatchProcedureSingleTarget(t *testing.T) {
	_, sc, q := sealScenario(t)
	wget := sc.Images()[0].Executable("bin/wget")
	if wget == nil {
		t.Skip("image lacks bin/wget")
	}
	f, steps, err := sc.MatchProcedure(q, "ftp_retrieve_glob", wget, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f == nil {
		t.Fatalf("no match after %d steps", steps)
	}
}

// Spans end on failure too: the failed open leaves one call on each of
// its stages.
func TestOpenImageErrors(t *testing.T) {
	reg := telemetry.New()
	a := firmup.NewAnalyzer(&firmup.AnalyzerOptions{Telemetry: reg})
	if _, err := a.OpenImage([]byte("garbage")); err == nil {
		t.Error("garbage image must fail")
	}
	for _, stage := range []string{"image.open", "image.unpack"} {
		if got := reg.Stage(stage).Calls(); got != 1 {
			t.Errorf("stage %q: %d calls after one failed OpenImage, want 1", stage, got)
		}
	}
}

func TestCarvingFallback(t *testing.T) {
	a := firmup.NewAnalyzer(nil)
	imgBytes, queryBytes, _ := buildScenario(t)
	// Repack without compression and damage the header magic: the
	// structural unpacker fails, carving must still find executables.
	img, err := a.OpenImage(imgBytes)
	if err != nil {
		t.Fatal(err)
	}
	_ = img
	c, err := corpus.Build(corpus.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	raw := c.Images[0].Image.Pack(false)
	raw[0], raw[1] = 'X', 'X'
	carved, err := a.OpenImage(raw)
	if err != nil {
		t.Fatalf("carving fallback failed: %v", err)
	}
	if len(carved.Exes) == 0 {
		t.Error("carving found nothing")
	}
	_ = queryBytes
}

// A search runs under the span its options carry, and records the pass
// there as core.search; a search for an unknown procedure fails before
// any pass starts, and a garbage query fails its analysis.
func TestUnknownQueryProcedure(t *testing.T) {
	reg := telemetry.New()
	_, sc, q := sealScenario(t)
	sc.SetTelemetry(reg)
	opt := &firmup.Options{Span: telemetry.Root(reg, nil)}
	if _, err := sc.SearchAll(q, "no_such_procedure", opt); err == nil {
		t.Error("unknown procedure must fail")
	}
	if got := reg.Stage("core.search").Calls(); got != 0 {
		t.Errorf("core.search: %d calls after one failed search, want 0", got)
	}
	if _, err := sc.SearchAll(q, "ftp_retrieve_glob", opt); err != nil {
		t.Fatal(err)
	}
	if got := reg.Stage("core.search").Calls(); got != 1 {
		t.Errorf("core.search: %d calls after one search, want 1", got)
	}
	if _, err := sc.AnalyzeQuery([]byte("garbage"), nil); err == nil {
		t.Error("garbage query must fail")
	}
}
