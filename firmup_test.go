package firmup_test

import (
	"testing"

	"firmup"
	"firmup/internal/corpus"
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
	q, err := a.LoadQueryExecutable(queryBytes)
	if err != nil {
		t.Fatal(err)
	}
	findings, err := a.SearchImage(q, "ftp_retrieve_glob", img, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) == 0 {
		t.Fatal("vulnerable procedure not found")
	}
	f := findings[0]
	if f.Confidence < 0.42 || f.Score < 8 {
		t.Errorf("weak finding: %+v", f)
	}
	if f.ProcName == "" {
		t.Error("finding lacks a procedure name")
	}
}

func TestProcedureListing(t *testing.T) {
	a := firmup.NewAnalyzer(nil)
	_, queryBytes, _ := buildScenario(t)
	q, err := a.LoadQueryExecutable(queryBytes)
	if err != nil {
		t.Fatal(err)
	}
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
	a := firmup.NewAnalyzer(nil)
	imgBytes, queryBytes, _ := buildScenario(t)
	img, _ := a.OpenImage(imgBytes)
	q, _ := a.LoadQueryExecutable(queryBytes)
	var wget *firmup.Executable
	for _, e := range img.Exes {
		if e.Path == "bin/wget" {
			wget = e
		}
	}
	if wget == nil {
		t.Skip("image lacks bin/wget")
	}
	f, steps, err := a.MatchProcedure(q, "ftp_retrieve_glob", wget, nil)
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
	if _, err := a.LoadQueryExecutable([]byte("nope")); err == nil {
		t.Error("garbage executable must fail")
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

// The failed search still ends its span: one call on search.image.
func TestUnknownQueryProcedure(t *testing.T) {
	reg := telemetry.New()
	a := firmup.NewAnalyzer(&firmup.AnalyzerOptions{Telemetry: reg})
	imgBytes, queryBytes, _ := buildScenario(t)
	img, _ := a.OpenImage(imgBytes)
	q, _ := a.LoadQueryExecutable(queryBytes)
	if _, err := a.SearchImage(q, "no_such_procedure", img, nil); err == nil {
		t.Error("unknown procedure must fail")
	}
	if got := reg.Stage("search.image").Calls(); got != 1 {
		t.Errorf("search.image: %d calls after one failed search, want 1", got)
	}
}
