package firmup_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"firmup"
	"firmup/internal/telemetry"
)

// Telemetry must be pure observation: the analyzed procedures, strand
// sets, markers and findings of a session recording into a registry are
// byte-identical to a silent session's, in every analyzer configuration
// and whether or not the search narrows through the corpus index.
func TestTelemetryEquivalence(t *testing.T) {
	imgBytes, queryBytes, _ := buildScenario(t)
	base := analyzeScenario(t, imgBytes, queryBytes, nil, nil)
	for _, c := range []struct {
		opt    firmup.AnalyzerOptions
		search *firmup.Options
	}{
		{opt: firmup.AnalyzerOptions{Telemetry: telemetry.New()}},
		{opt: firmup.AnalyzerOptions{Telemetry: telemetry.New(), Workers: 8}},
		{opt: firmup.AnalyzerOptions{Telemetry: telemetry.New()}, search: &firmup.Options{Exhaustive: true}},
	} {
		got := analyzeScenario(t, imgBytes, queryBytes, &c.opt, c.search)
		if !reflect.DeepEqual(got, base) {
			t.Errorf("analysis with telemetry under %+v (search %+v) diverged from silent baseline", c.opt, c.search)
		}
	}
	if len(base.Findings) == 0 {
		t.Error("equivalence check matched nothing; scenario is vacuous")
	}
}

// A full open → seal → search flow, the session and the sealed corpus
// recording into one registry and the search timed under its root span,
// must leave the pipeline's stage timers, counters and histograms
// populated, and Metrics() must expose them.
func TestAnalyzerMetrics(t *testing.T) {
	imgBytes, queryBytes, _ := buildScenario(t)
	reg := telemetry.New()
	a := firmup.NewAnalyzer(&firmup.AnalyzerOptions{Telemetry: reg})
	img, err := a.OpenImage(imgBytes)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := a.Seal(img)
	if err != nil {
		t.Fatal(err)
	}
	sc.SetTelemetry(reg)
	q, err := sc.AnalyzeQuery(queryBytes, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sc.SearchImageDetailed(q, "ftp_retrieve_glob", sc.Images()[0], &firmup.Options{Span: telemetry.Root(reg, nil)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) == 0 {
		t.Fatal("search matched nothing; scenario is vacuous")
	}
	snap := a.Metrics()
	if snap.Schema != telemetry.SchemaVersion {
		t.Errorf("snapshot schema = %d, want %d", snap.Schema, telemetry.SchemaVersion)
	}
	for _, stage := range []string{"image.open", "image.unpack", "obj.parse", "cfg.recover", "cfg.sweep", "sim.build", "core.search"} {
		if snap.Stages[stage].Calls == 0 {
			t.Errorf("stage %q recorded no calls", stage)
		}
	}
	// Lifting runs inside sim.build, one procedure at a time.
	if _, ok := snap.Stages["cfg.lift"]; ok {
		t.Error(`stage "cfg.lift" recorded: lifting is timed inside sim.build`)
	}
	for _, counter := range []string{"obj.bytes", "cfg.procs", "cfg.blocks", "cfg.insts", "sim.procs", "strand.blocks", "strand.strands", "game.played", "search.runs", "exe.analyzed"} {
		if snap.Counters[counter] == 0 {
			t.Errorf("counter %q is zero", counter)
		}
	}
	steps := snap.Histograms["game.steps"]
	if steps.Count == 0 || len(steps.Buckets) == 0 {
		t.Errorf("game.steps histogram is empty: %+v", steps)
	}
	accepted := snap.Histograms["game.steps.accepted"]
	if accepted.Count != int64(len(res.Findings)) {
		t.Errorf("game.steps.accepted count = %d, want %d accepted findings", accepted.Count, len(res.Findings))
	}
	if got, want := snap.Gauges["corpus.unique_strands"], int64(a.UniqueStrands()); got != want {
		t.Errorf("corpus.unique_strands gauge = %d, want %d", got, want)
	}
	// The snapshot must survive a JSON round trip unchanged — it is the
	// -report payload.
	blob, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back telemetry.Snapshot
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, snap) {
		t.Error("snapshot changed across a JSON round trip")
	}
}

// A sealed corpus attached to a registry must split query analysis into
// the same front-end layers, under the same names, as the analyzer
// session — the daemon's /metrics is this registry — and count the same
// work: the query is analysed from scratch on both sides, so every
// front-end counter must agree exactly.
func TestSealedQueryAnalysisTelemetry(t *testing.T) {
	imgBytes, queryBytes, _ := buildScenario(t)
	sreg := telemetry.New()
	session := firmup.NewAnalyzer(&firmup.AnalyzerOptions{Telemetry: sreg})
	if _, err := session.OpenImage(oneExeImage("query", queryBytes)); err != nil {
		t.Fatal(err)
	}
	want := sreg.Snapshot()

	a := firmup.NewAnalyzer(nil)
	img, err := a.OpenImage(imgBytes)
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := a.Seal(img)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	sealed.SetTelemetry(reg)
	q, err := sealed.AnalyzeQueryWith("query", queryBytes, 2)
	if err != nil {
		t.Fatal(err)
	}
	got := reg.Snapshot()
	for _, stage := range []string{"obj.parse", "cfg.recover", "cfg.sweep", "sim.build"} {
		if got.Stages[stage].Calls == 0 || got.Stages[stage].Calls != want.Stages[stage].Calls {
			t.Errorf("stage %q: %d calls on the sealed corpus, %d on the session",
				stage, got.Stages[stage].Calls, want.Stages[stage].Calls)
		}
	}
	for _, counter := range []string{"obj.bytes", "cfg.procs", "cfg.blocks", "cfg.insts", "sim.procs",
		"strand.blocks", "strand.strands"} {
		if got.Counters[counter] == 0 || got.Counters[counter] != want.Counters[counter] {
			t.Errorf("counter %q: %d on the sealed corpus, %d on the session",
				counter, got.Counters[counter], want.Counters[counter])
		}
	}
	// Recording must not change the analysis.
	sealed.SetTelemetry(nil)
	plain, err := sealed.AnalyzeQueryWith("query", queryBytes, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(q.Procedures(), plain.Procedures()) {
		t.Error("query analysis differs with telemetry attached")
	}
	if after := reg.Snapshot(); after.Counters["strand.blocks"] != got.Counters["strand.blocks"] {
		t.Error("a detached corpus still records")
	}
}

// MatchProcedureTraced must agree with the untraced match and produce a
// JSON-round-trippable game course consistent with the finding.
func TestMatchProcedureTraced(t *testing.T) {
	_, sc, q := sealScenario(t)
	img := sc.Images()[0]
	res, err := sc.SearchImageDetailed(q, "ftp_retrieve_glob", img, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) == 0 {
		t.Fatal("search matched nothing; scenario is vacuous")
	}
	f := res.Findings[0]
	target := img.Executable(f.ExePath)
	if target == nil {
		t.Fatalf("image has no executable %q", f.ExePath)
	}
	plain, steps, err := sc.MatchProcedure(q, "ftp_retrieve_glob", target, nil)
	if err != nil {
		t.Fatal(err)
	}
	traced, gt, err := sc.MatchProcedureTraced(q, "ftp_retrieve_glob", target, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, traced) {
		t.Errorf("traced finding %+v differs from untraced %+v", traced, plain)
	}
	if gt.Steps != steps {
		t.Errorf("trace steps = %d, untraced steps = %d", gt.Steps, steps)
	}
	if traced == nil {
		t.Fatal("matched finding from the search did not re-match one-on-one")
	}
	if gt.Reason != "matched" || gt.Target < 0 {
		t.Errorf("accepted match traced as reason=%q target=%d", gt.Reason, gt.Target)
	}
	if len(gt.Trace) == 0 {
		t.Error("recorded game course is empty")
	}
	blob, err := json.Marshal(gt)
	if err != nil {
		t.Fatal(err)
	}
	var back firmup.GameTrace
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, gt) {
		t.Error("game trace changed across a JSON round trip")
	}
}
