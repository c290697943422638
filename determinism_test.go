package firmup_test

import (
	"reflect"
	"slices"
	"testing"

	"firmup"
	"firmup/internal/core"
	"firmup/internal/corpus"
	"firmup/internal/eval"
	"firmup/internal/sim"
	"firmup/internal/telemetry"
	"firmup/internal/uir"
)

// playEverywhere is core.PlayBatch for one query procedure with the
// play-everything plan: a game against every target, no narrowing.
func playEverywhere(q *sim.Exe, qi int, targets []*sim.Exe, opt *core.SearchOptions) []*core.Finding {
	all := make([]int, len(targets))
	for i := range all {
		all[i] = i
	}
	return core.PlayBatch([]core.BatchQuery{{Q: q, QI: qi}}, targets, []core.Plan{{Targets: all}}, opt)[0]
}

// core.PlayBatch distributes targets over a worker pool; the result must
// not depend on the pool size. Identical per-target findings with 1 and
// 8 workers over the generated corpus.
func TestSearchDeterminismAcrossWorkers(t *testing.T) {
	env, err := eval.Prepare(corpus.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	q, err := env.Query("wget", "1.15", uir.ArchMIPS32)
	if err != nil {
		t.Fatal(err)
	}
	qi := q.ProcByName("ftp_retrieve_glob")
	if qi < 0 {
		t.Fatal("query lacks ftp_retrieve_glob")
	}
	var targets []*sim.Exe
	for _, u := range env.Units {
		if u.Arch == uir.ArchMIPS32 {
			targets = append(targets, u.Exe)
		}
	}
	if len(targets) < 2 {
		t.Fatalf("only %d MIPS targets in the corpus", len(targets))
	}
	run := func(workers int) []*core.Finding {
		opt := &core.SearchOptions{}
		opt.Workers = workers
		return playEverywhere(q, qi, targets, opt)
	}
	one := run(1)
	eight := run(8)
	if !reflect.DeepEqual(one, eight) {
		t.Errorf("findings depend on worker count:\n1: %+v\n8: %+v", one, eight)
	}
	if !slices.ContainsFunc(one, func(f *core.Finding) bool { return f != nil }) {
		t.Error("determinism check matched nothing; scenario is vacuous")
	}
}

// analyzedState captures everything observable about an analyzed image
// plus a search through the corpus it seals into, for deep comparison
// across analyzer configurations.
type analyzedState struct {
	Paths    [][2]string // path, per-exe marker of skipped vs analyzed
	Procs    [][]firmup.ProcedureInfo
	Strands  [][][]uint64
	Markers  [][][]uint32
	Findings []firmup.Finding
}

func analyzeScenario(t *testing.T, imgBytes, queryBytes []byte, aopt *firmup.AnalyzerOptions, sopt *firmup.Options) analyzedState {
	t.Helper()
	return analyzeWith(t, firmup.NewAnalyzer(aopt), imgBytes, queryBytes, sopt)
}

func analyzeWith(t *testing.T, a *firmup.Analyzer, imgBytes, queryBytes []byte, sopt *firmup.Options) analyzedState {
	t.Helper()
	img, err := a.OpenImage(imgBytes)
	if err != nil {
		t.Fatal(err)
	}
	var st analyzedState
	for _, e := range img.Exes {
		st.Paths = append(st.Paths, [2]string{e.Path, "analyzed"})
		procs := e.Procedures()
		st.Procs = append(st.Procs, procs)
		strands := make([][]uint64, len(procs))
		markers := make([][]uint32, len(procs))
		for i, p := range e.Sim().Procs {
			strands[i] = p.Set.AppendHashes(nil)
			markers[i] = append([]uint32(nil), p.Markers...)
		}
		st.Strands = append(st.Strands, strands)
		st.Markers = append(st.Markers, markers)
	}
	for _, s := range img.Skipped {
		st.Paths = append(st.Paths, [2]string{s.Path, "skipped"})
	}
	sc, err := a.Seal(img)
	if err != nil {
		t.Fatal(err)
	}
	q, err := sc.AnalyzeQuery(queryBytes, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sc.SearchImageDetailed(q, "ftp_retrieve_glob", sc.Images()[0], sopt)
	if err != nil {
		t.Fatal(err)
	}
	st.Findings = res.Findings
	return st
}

// The analysis front end must produce byte-identical output whether it
// runs serially or fully parallel: same procedures, same strand hash
// sets, same markers, same findings. The same holds when the session's
// file-level cache serves every executable: a second OpenImage of the
// same image in one session extracts no block and must be
// indistinguishable from the first.
func TestAnalyzeDeterminismAcrossWorkersAndCache(t *testing.T) {
	imgBytes, queryBytes, _ := buildScenario(t)
	base := analyzeScenario(t, imgBytes, queryBytes, &firmup.AnalyzerOptions{Workers: 1}, nil)
	for _, opt := range []*firmup.AnalyzerOptions{
		{Workers: 3}, // odd split of the shared budget
		{Workers: 8},
	} {
		if got := analyzeScenario(t, imgBytes, queryBytes, opt, nil); !reflect.DeepEqual(got, base) {
			t.Errorf("analysis under %+v diverged from the serial baseline", *opt)
		}
	}
	reg := telemetry.New()
	a := firmup.NewAnalyzer(&firmup.AnalyzerOptions{Workers: 3, Telemetry: reg})
	if _, err := a.OpenImage(imgBytes); err != nil {
		t.Fatal(err)
	}
	cold := reg.Snapshot().Counters["strand.blocks"]
	if got := analyzeWith(t, a, imgBytes, queryBytes, nil); !reflect.DeepEqual(got, base) {
		t.Error("analysis served from the session's file cache diverged from the serial baseline")
	}
	if cold == 0 {
		t.Error("cold open extracted no blocks")
	}
	// The query is analysed by the sealed corpus, which records into no
	// registry; the image's executables must not be analysed again.
	if warm := reg.Snapshot().Counters["strand.blocks"] - cold; warm != 0 {
		t.Errorf("warm open extracted %d blocks, want none", warm)
	}
	if len(base.Findings) == 0 {
		t.Error("determinism check matched nothing; scenario is vacuous")
	}
	if len(base.Procs) == 0 {
		t.Error("image produced no analyzed executables")
	}
}
