package eval

import (
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"firmup"
	"firmup/internal/baseline/gitz"
	"firmup/internal/corpus"
	_ "firmup/internal/isa/arm"
	_ "firmup/internal/isa/mips"
	_ "firmup/internal/isa/ppc"
	_ "firmup/internal/isa/x86"
	"firmup/internal/sim"
)

var (
	envOnce sync.Once
	envVal  *Env
	envErr  error
)

// testEnv builds the default-scale environment once for all tests.
func testEnv(t *testing.T) *Env {
	t.Helper()
	envOnce.Do(func() {
		envVal, envErr = Prepare(corpus.DefaultScale())
	})
	if envErr != nil {
		t.Fatal(envErr)
	}
	return envVal
}

func TestPrepare(t *testing.T) {
	env := testEnv(t)
	if len(env.Units) == 0 {
		t.Fatal("no units")
	}
	for _, u := range env.Units {
		if u.Exe == nil || len(u.Exe.Procs) == 0 {
			t.Errorf("unit %s not indexed", u.Key)
		}
		if len(u.Occurrences) == 0 {
			t.Errorf("unit %s has no occurrences", u.Key)
		}
	}
}

func TestTable2Shape(t *testing.T) {
	env := testEnv(t)
	res, err := Table2(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(res.Rows))
	}
	confirmed, _ := res.TotalConfirmed()
	if confirmed == 0 {
		t.Fatal("no confirmed findings at all")
	}
	totalFP := 0
	for _, row := range res.Rows {
		totalFP += row.FPs
		t.Logf("%-14s %-28s confirmed=%d fps=%d patched=%d missed=%d latest=%d vendors=%v",
			row.CVE, row.Procedure, row.Confirmed, row.FPs, row.Patched, row.Missed, row.Latest, row.Vendors)
	}
	// Shape: confirmed findings dominate false positives overall.
	if totalFP*3 > confirmed {
		t.Errorf("FP rate too high: %d FPs vs %d confirmed", totalFP, confirmed)
	}
	out := res.Format()
	if !strings.Contains(out, "CVE-2014-4877") {
		t.Error("format missing rows")
	}
	// The default-scale table, exactly: what fwbench prints. Stack-frame
	// slots brought the two FPs (CVE-2013-2168, CVE-2016-8618).
	want := []Table2Row{
		{CVE: "CVE-2011-0762", Confirmed: 4, Patched: 2, Latest: 2, Vendors: []string{"ASUS", "D-Link", "NETGEAR"}},
		{CVE: "CVE-2009-4593", Confirmed: 2, Patched: 3, Latest: 1, Vendors: []string{"NETGEAR"}},
		{CVE: "CVE-2012-0036", Confirmed: 4, Patched: 8, Latest: 2, Vendors: []string{"ASUS", "D-Link", "NETGEAR"}},
		{CVE: "CVE-2013-1944", Confirmed: 2, Patched: 4, Missed: 4, Latest: 1, Vendors: []string{"NETGEAR"}},
		{CVE: "CVE-2013-2168", Confirmed: 2, FPs: 1, Patched: 0, Latest: 1, Vendors: []string{"D-Link"}},
		{CVE: "CVE-2014-4877", Confirmed: 6, Patched: 3, Latest: 3, Vendors: []string{"ASUS", "D-Link", "NETGEAR", "TP-Link"}},
		{CVE: "CVE-2016-8618", Confirmed: 8, FPs: 1, Patched: 4, Latest: 5, Vendors: []string{"ASUS", "D-Link", "NETGEAR", "TP-Link"}},
	}
	for i, row := range res.Rows {
		got := Table2Row{CVE: row.CVE, Confirmed: row.Confirmed, FPs: row.FPs, Patched: row.Patched,
			Missed: row.Missed, Latest: row.Latest, Vendors: row.Vendors}
		if !reflect.DeepEqual(got, want[i]) {
			t.Errorf("row %d = %+v, want %+v", i+1, got, want[i])
		}
	}
}

func TestCompareBinDiffShape(t *testing.T) {
	env := testEnv(t)
	res, err := CompareBinDiff(env)
	if err != nil {
		t.Fatal(err)
	}
	fuP, fuFP, fuFN, blP, blFP, blFN := res.Rates()
	t.Logf("FirmUp P/FP/FN = %d/%d/%d, BinDiff = %d/%d/%d", fuP, fuFP, fuFN, blP, blFP, blFN)
	fuT := fuP + fuFP + fuFN
	blT := blP + blFP + blFN
	if fuT == 0 || blT == 0 {
		t.Fatal("no labeled targets")
	}
	// The paper's Fig. 6 shape: FirmUp's success rate far above BinDiff's.
	fuRate := float64(fuP) / float64(fuT)
	blRate := float64(blP) / float64(blT)
	if fuRate < 0.75 {
		t.Errorf("FirmUp labeled success rate %.2f too low", fuRate)
	}
	if fuRate <= blRate {
		t.Errorf("FirmUp (%.2f) must beat BinDiff (%.2f)", fuRate, blRate)
	}
	t.Log("\n" + res.Format())
}

func TestCompareGitZShape(t *testing.T) {
	env := testEnv(t)
	res, err := CompareGitZ(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(res.Rows))
	}
	fuP, fuFP, fuFN, blP, blFP, blFN := res.Rates()
	t.Logf("FirmUp P/FP/FN = %d/%d/%d, GitZ = %d/%d/%d", fuP, fuFP, fuFN, blP, blFP, blFN)
	fuT := fuP + fuFP + fuFN
	blT := blP + blFP + blFN
	fuFalse := float64(fuFP+fuFN) / float64(fuT)
	blFalse := float64(blFP+blFN) / float64(blT)
	// The paper's Fig. 8 shape: FirmUp's false rate well below GitZ's.
	if fuFalse >= blFalse {
		t.Errorf("FirmUp false rate %.2f must be below GitZ %.2f", fuFalse, blFalse)
	}
	t.Log("\n" + res.Format())
	t.Log("\n" + FormatFig9(res))
	// Fig. 9 shape: most matches need one step; the ablated engine is
	// no better than the full game.
	buckets := Fig9Buckets(res.StepsHistogram)
	if buckets[0].Count == 0 {
		t.Error("no one-step matches at all")
	}
	if res.NoGameP > fuP {
		t.Errorf("ablation (%d) outperformed the game (%d)", res.NoGameP, fuP)
	}
}

// GitZ weights strands by dense ID, so over a corpus opened from shards —
// whose executables carry no strand hashes — it trains the same context
// and ranks the same top procedures as over the corpus sealed in memory.
func TestGitZStoreBackedMatchesInRAM(t *testing.T) {
	env := testEnv(t)
	dir := t.TempDir()
	if _, err := env.Sealed.WriteShards(dir, 2); err != nil {
		t.Fatal(err)
	}
	stored, err := firmup.OpenSealedCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer stored.Close()
	cve := corpus.CVEByID("CVE-2014-4877")
	ranked := 0
	for _, arch := range queryArchs {
		var ram, disk []*sim.Exe
		for _, u := range env.Units {
			if u.Arch != arch {
				continue
			}
			occ := u.Occurrences[0].ImageIdx
			bi := env.Corpus.Images[occ]
			k := slices.IndexFunc(bi.Exes, func(e corpus.BuiltExe) bool { return e.File == u.File })
			x := stored.Images()[occ].Executable(bi.Exes[k].Path)
			if x == nil {
				t.Fatalf("unit %s missing from the opened corpus", u.Key)
			}
			ram, disk = append(ram, u.Exe), append(disk, x.Sim())
		}
		q, err := env.Query(cve.Package, cve.QueryVersion, arch)
		if err != nil {
			t.Fatal(err)
		}
		qf, err := corpus.QueryExe(cve.Package, cve.QueryVersion, arch)
		if err != nil {
			t.Fatal(err)
		}
		sq, err := stored.AnalyzeQuery(qf.Bytes(), nil)
		if err != nil {
			t.Fatal(err)
		}
		qi := q.ProcByName(cve.Procedure)
		inRAM, onDisk := &gitz.Engine{Ctx: gitz.Train(ram)}, &gitz.Engine{Ctx: gitz.Train(disk)}
		for k := range ram {
			want := inRAM.TopK(q.Procs[qi].Set, ram[k], 3)
			if got := onDisk.TopK(sq.Sim().Procs[qi].Set, disk[k], 3); !reflect.DeepEqual(got, want) {
				t.Fatalf("%v target %d: store-backed TopK %+v, sealed %+v", arch, k, got, want)
			}
			ranked += len(want)
		}
	}
	if ranked == 0 {
		t.Fatal("GitZ ranked nothing; the comparison is vacuous")
	}
}

func TestGameTraceRenders(t *testing.T) {
	env := testEnv(t)
	out, err := GameTrace(env)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Game over") {
		t.Errorf("trace output:\n%s", out)
	}
	t.Log("\n" + out)
}

func TestCallGraphsRender(t *testing.T) {
	env := testEnv(t)
	out, err := CallGraphs(env)
	if err != nil {
		t.Skip("no NETGEAR wget in default scale:", err)
	}
	if !strings.Contains(out, "Query executable") {
		t.Error("missing query graph")
	}
	t.Log("\n" + out)
}

func TestStrandDemoRenders(t *testing.T) {
	env := testEnv(t)
	out, err := StrandDemo(env)
	if err != nil {
		t.Skip("demo target unavailable at this scale:", err)
	}
	if !strings.Contains(out, "shared canonical strands") {
		t.Error("demo incomplete")
	}
	t.Log("\n" + out)
}

// Every relevant (query, executable) pair of the matrix has exactly one
// death reason, and the found ones are the correct findings, in every
// cell and at a stricter ratio floor too.
func TestMatrixCensusAccounts(t *testing.T) {
	env := testEnv(t)
	for _, opt := range []*firmup.Options{nil, {MinRatio: 0.6}} {
		m, err := Matrix(env, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range m.rows() {
			c := row.cell
			sum := 0
			for _, n := range c.Census {
				sum += n
			}
			if sum != c.Relevant || c.Census[hit] != c.Correct {
				t.Errorf("%+v: %s: census %v sums to %d of %d relevant, found %d of %d correct",
					opt, row.label, c.Census, sum, c.Relevant, c.Census[hit], c.Correct)
			}
		}
	}
}
