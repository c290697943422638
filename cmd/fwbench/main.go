// Command fwbench regenerates the paper's tables and figures over the
// synthetic corpus.
//
// Usage:
//
//	fwbench -exp all            # every experiment at the default scale
//	fwbench -exp table2 -scale eval
//	fwbench -exp fig6|fig8|fig9|fig5|table1|demo|ablation
//	fwbench -exp analyze -json  # cached vs uncached analysis, BENCH_analyze.json
//	fwbench -exp telemetry -json  # metrics enabled vs disabled, BENCH_telemetry.json
//	fwbench -exp serve -json    # firmupd load benchmark, BENCH_serve.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"firmup"
	"firmup/internal/buildinfo"
	"firmup/internal/core"
	"firmup/internal/corpus"
	"firmup/internal/eval"
	_ "firmup/internal/isa/arm"
	_ "firmup/internal/isa/mips"
	_ "firmup/internal/isa/ppc"
	_ "firmup/internal/isa/x86"
	"firmup/internal/serve"
	"firmup/internal/sim"
	"firmup/internal/telemetry"
	"firmup/internal/uir"
)

func main() {
	exp := flag.String("exp", "all", "experiment: table2, fig6, fig8, fig9, ablation, fig5, table1, demo, analyze, telemetry, serve, scale, all")
	scale := flag.String("scale", "default", "corpus scale: default, eval or paper (paper selects -exp scale)")
	jsonOut := flag.Bool("json", false, "write machine-readable results of the analyze/telemetry/serve/scale experiments to BENCH_<exp>.json")
	images := flag.Int("images", 32, "scale experiment: generated image count")
	shards := flag.Int("shards", 4, "scale experiment: shard count")
	maxRSS := flag.Int64("max-rss-bytes", 0, "scale experiment: exit 1 if peak RSS exceeds this budget (0 = unenforced)")
	version := flag.Bool("version", false, "print build version and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String())
		return
	}

	valid := map[string]bool{"all": true, "table2": true, "fig6": true, "fig8": true,
		"fig9": true, "ablation": true, "fig5": true, "table1": true, "demo": true,
		"analyze": true, "telemetry": true, "serve": true, "scale": true}
	if !valid[*exp] {
		fmt.Fprintf(os.Stderr, "fwbench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	// -scale paper is the sharded-corpus cold-start benchmark; it builds
	// its own streamed corpus at -images size, so it neither needs nor
	// fits the eval.Prepare environment below.
	if *scale == "paper" && *exp == "all" {
		*exp = "scale"
	}
	if *exp == "scale" {
		scaleBench(*scale, *images, *shards, *maxRSS, *jsonOut)
		return
	}
	if *scale == "paper" {
		fmt.Fprintln(os.Stderr, "fwbench: -scale paper applies to -exp scale only")
		os.Exit(2)
	}
	sc := corpus.DefaultScale()
	if *scale == "eval" {
		sc = corpus.EvalScale()
	}
	fmt.Printf("preparing corpus (scale=%s)...\n", *scale)
	env, err := eval.Prepare(sc)
	if err != nil {
		fatal(err)
	}
	st := env.Corpus.Stat()
	fmt.Printf("corpus ready: %d images, %d executables, %d procedures, %d unique builds\n",
		st.Images, st.Exes, st.Procedures, len(env.Units))
	fmt.Printf("session: %d unique strands interned\n\n", env.UniqueStrands())

	want := func(name string) bool { return *exp == "all" || *exp == name }

	if want("table2") {
		res, err := eval.Table2(env, nil)
		if err != nil {
			fatal(err)
		}
		fmt.Println(res.Format())
		confirmed, latest := res.TotalConfirmed()
		fmt.Printf("total: %d confirmed vulnerable procedures, %d devices affected at their latest firmware\n\n",
			confirmed, latest)
	}
	if want("fig6") {
		res, err := eval.CompareBinDiff(env, nil)
		if err != nil {
			fatal(err)
		}
		fmt.Println("=== Fig. 6 ===")
		fmt.Println(res.Format())
	}
	var gitzRes *eval.CompareResult
	if want("fig8") || want("fig9") || want("ablation") {
		gitzRes, err = eval.CompareGitZ(env, nil)
		if err != nil {
			fatal(err)
		}
	}
	if want("fig8") {
		fmt.Println("=== Fig. 8 ===")
		fmt.Println(gitzRes.Format())
	}
	if want("fig9") || want("ablation") {
		fmt.Println("=== Fig. 9 / ablation ===")
		fmt.Println(eval.FormatFig9(gitzRes))
	}
	if want("table1") || want("demo") {
		out, err := eval.GameTrace(env)
		if err != nil {
			fmt.Fprintln(os.Stderr, "table1:", err)
		} else {
			fmt.Println(out)
		}
	}
	if want("fig5") || want("demo") {
		out, err := eval.CallGraphs(env)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fig5:", err)
		} else {
			fmt.Println(out)
		}
	}
	if want("demo") || *exp == "all" {
		out, err := eval.StrandDemo(env)
		if err == nil {
			fmt.Println(out)
		}
	}
	if want("analyze") {
		analyzeBench(env, *scale, *jsonOut)
	}
	if want("telemetry") {
		telemetryBench(env, *scale, *jsonOut)
	}
	if want("serve") {
		serveBench(env, *scale, *jsonOut)
	}
}

// serveBenchReport is the schema of BENCH_serve.json.
type serveBenchReport struct {
	Generated     string `json:"generated"`
	Scale         string `json:"scale"`
	Images        int    `json:"images"`
	Executables   int    `json:"executables"`
	UniqueStrands int    `json:"unique_strands"`
	// Clients is the number of concurrent load generators; Requests the
	// total completed 200s across them.
	Clients  int `json:"clients"`
	Requests int `json:"requests"`
	Failures int `json:"failures"`
	// Rejected counts 429 admission-control sheds (0 at this in-flight
	// budget; the bench verifies the budget holds under its own load).
	Rejected int64 `json:"rejected_429"`
	// Swaps is the number of corpus hot-swaps performed mid-load.
	Swaps     int64   `json:"swaps"`
	ElapsedMS float64 `json:"elapsed_ms"`
	QPS       float64 `json:"qps"`
	// P50MS/P99MS are exact client-observed latency percentiles from the
	// full sorted sample set (not bucket estimates).
	P50MS float64 `json:"p50_ms"`
	P99MS float64 `json:"p99_ms"`
	// ServerP50US/ServerP99US are the server-side serve.latency_us
	// histogram quantiles (bucket-interpolated).
	ServerP50US int64 `json:"server_p50_us"`
	ServerP99US int64 `json:"server_p99_us"`
	// TraceOffered/TraceRetained are the /debug/requests tail-sampling
	// counters after the run: with TraceSample 1 every completed request
	// offers its trace, and the buffer retains the slowest few.
	TraceOffered  int64 `json:"trace_offered"`
	TraceRetained int64 `json:"trace_retained"`
	// TraceSlowestUS is the duration of the slowest captured request
	// trace, as /debug/requests reports it.
	TraceSlowestUS float64 `json:"trace_slowest_us"`
	// benchMem: OpenNs is the analyze-and-seal cold start the daemon
	// pays before serving.
	benchMem
}

// serveBench load-tests the firmupd serving path end to end: the corpus
// is sealed once, a serve.Server fronts it over real HTTP, and
// concurrent clients replay the wget CVE query while the corpus is
// hot-swapped mid-run. Reported latency includes query analysis, the
// corpus-wide search and JSON encoding — the full request cost a
// firmupd deployment would observe.
func serveBench(env *eval.Env, scale string, jsonOut bool) {
	fmt.Println("=== serve: sealed-corpus query daemon under load ===")
	tOpen := time.Now()
	a := firmup.NewAnalyzer(nil)
	var imgs []*firmup.Image
	for _, bi := range env.Corpus.Images {
		img, err := a.OpenImage(bi.Image.Pack(true))
		if err != nil {
			fatal(err)
		}
		imgs = append(imgs, img)
	}
	sealed, err := a.Seal(imgs...)
	if err != nil {
		fatal(err)
	}
	openNs := time.Since(tOpen).Nanoseconds()
	_, qf, err := corpus.QueryExe("wget", "1.15", uir.ArchMIPS32)
	if err != nil {
		fatal(err)
	}
	query := qf.Bytes()

	reg := telemetry.New()
	mk := func(name string) *serve.Corpus {
		return &serve.Corpus{Name: name, Sealed: sealed, LoadedAt: time.Now()}
	}
	srv := serve.New(mk("bench-a"), &serve.Config{MaxInFlight: 64, Registry: reg, TraceSample: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	clients := runtime.GOMAXPROCS(0)
	if clients > 8 {
		clients = 8
	}
	if clients < 2 {
		clients = 2
	}
	perClient := 200 / clients
	lat := make([][]time.Duration, clients)
	var failures atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				s0 := time.Now()
				resp, err := http.Post(ts.URL+"/search?proc=ftp_retrieve_glob", "application/octet-stream", bytes.NewReader(query))
				if err != nil {
					failures.Add(1)
					continue
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					failures.Add(1)
					continue
				}
				lat[c] = append(lat[c], time.Since(s0))
			}
		}(c)
	}
	// Hot-swap mid-load: in-flight requests must finish against the
	// corpus they were admitted under (any failure counts above).
	reqs := reg.Counter("serve.requests")
	for reqs.Value() < int64(clients*perClient/2) {
		time.Sleep(time.Millisecond)
	}
	srv.Swap(mk("bench-b"))
	wg.Wait()
	elapsed := time.Since(t0)

	var samples []time.Duration
	for _, l := range lat {
		samples = append(samples, l...)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	pct := func(q float64) time.Duration {
		if len(samples) == 0 {
			return 0
		}
		i := int(q*float64(len(samples))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(samples) {
			i = len(samples) - 1
		}
		return samples[i]
	}
	snap := reg.Snapshot()
	h := snap.Histograms["serve.latency_us"]
	// Every request ran under a sampled trace (TraceSample 1); pull the
	// tail-sampling buffer the way an operator would.
	var reqSnap telemetry.RequestsSnapshot
	if resp, err := http.Get(ts.URL + "/debug/requests"); err == nil {
		err = json.NewDecoder(resp.Body).Decode(&reqSnap)
		resp.Body.Close()
		if err != nil {
			fatal(fmt.Errorf("decode /debug/requests: %w", err))
		}
	}
	rep := serveBenchReport{
		Generated:     time.Now().UTC().Format(time.RFC3339),
		Scale:         scale,
		Images:        len(sealed.Images()),
		Executables:   sealed.Executables(),
		UniqueStrands: sealed.UniqueStrands(),
		Clients:       clients,
		Requests:      len(samples),
		Failures:      int(failures.Load()),
		Rejected:      snap.Counters["serve.rejected"],
		Swaps:         snap.Counters["serve.swaps"],
		ElapsedMS:     float64(elapsed) / float64(time.Millisecond),
		QPS:           float64(len(samples)) / elapsed.Seconds(),
		P50MS:         float64(pct(0.50)) / float64(time.Millisecond),
		P99MS:         float64(pct(0.99)) / float64(time.Millisecond),
		ServerP50US:   h.P50,
		ServerP99US:   h.P99,
		TraceOffered:  reqSnap.Offered,
		TraceRetained: reqSnap.Retained,
		benchMem:      benchMem{OpenNs: openNs, PeakRSSBytes: peakRSSBytes()},
	}
	if len(reqSnap.Slowest) > 0 {
		rep.TraceSlowestUS = reqSnap.Slowest[0].DurUS
	}
	fmt.Printf("  corpus: %d images, %d executables, %d unique strands (sealed)\n",
		rep.Images, rep.Executables, rep.UniqueStrands)
	fmt.Printf("  load:   %d clients x %d requests, 1 hot-swap mid-run\n", clients, perClient)
	fmt.Printf("  done:   %d ok, %d failed, %d rejected in %.0f ms  ->  %.1f qps\n",
		rep.Requests, rep.Failures, rep.Rejected, rep.ElapsedMS, rep.QPS)
	fmt.Printf("  latency: client p50 %.2f ms, p99 %.2f ms; server p50 %d us, p99 %d us\n",
		rep.P50MS, rep.P99MS, rep.ServerP50US, rep.ServerP99US)
	fmt.Printf("  traces: %d offered, %d retained; slowest %.0f us\n",
		rep.TraceOffered, rep.TraceRetained, rep.TraceSlowestUS)
	fmt.Printf("  cold start: %.1f ms analyze-and-seal; peak RSS %d MiB\n\n",
		float64(rep.OpenNs)/1e6, rep.PeakRSSBytes/(1<<20))
	if rep.Failures > 0 {
		fmt.Fprintf(os.Stderr, "fwbench: serve: %d requests failed under hot-swap load\n", rep.Failures)
	}
	if jsonOut {
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile("BENCH_serve.json", append(blob, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Println("wrote BENCH_serve.json")
	}
}

// analyzeBenchEntry is one benchmark row of the analyze experiment's
// machine-readable output.
type analyzeBenchEntry struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// analyzeBenchReport is the schema of BENCH_analyze.json.
type analyzeBenchReport struct {
	Generated string `json:"generated"`
	Scale     string `json:"scale"`
	// Images is the number of distinct corpus images; the benchmarked
	// stream opens each twice per session (a warm-session replay).
	Images    int `json:"images"`
	StreamLen int `json:"stream_len"`
	// Cache traffic of one cached session over the stream.
	Blocks     int64               `json:"cache_blocks"`
	Hits       int64               `json:"cache_hits"`
	Unique     int                 `json:"cache_unique"`
	HitRate    float64             `json:"cache_hit_rate"`
	Benchmarks []analyzeBenchEntry `json:"benchmarks"`
	// SpeedupNs is uncached ns/op over cached ns/op for the stream
	// (>1 means the cached front end is faster).
	SpeedupNs float64 `json:"speedup_ns_vs_uncached"`
	// AllocRatio is uncached allocs/op over cached allocs/op (>1 means
	// the cached front end allocates less).
	AllocRatio float64 `json:"alloc_ratio_vs_uncached"`
	// benchMem: OpenNs is one cached warm-session pass over the stream.
	benchMem
}

// analyzeBench measures the parallel analysis front end with the block
// canonicalization cache against the uncached path. The workload is a
// warm-session stream: one analyzer session opens every corpus image
// twice, modeling both the self-similarity of real firmware corpora
// (the same statically-linked library code recurs across images) and a
// long-lived analysis service re-opening firmware revisions.
func analyzeBench(env *eval.Env, scale string, jsonOut bool) {
	fmt.Println("=== analyze: block canonicalization cache ===")
	var stream [][]byte
	for _, bi := range env.Corpus.Images {
		stream = append(stream, bi.Image.Pack(true))
	}
	images := len(stream)
	stream = append(stream, stream...)
	run := func(disableCache bool) *firmup.Analyzer {
		a := firmup.NewAnalyzer(&firmup.AnalyzerOptions{DisableBlockCache: disableCache})
		for _, data := range stream {
			if _, err := a.OpenImage(data); err != nil {
				fatal(err)
			}
		}
		return a
	}
	bench := func(disableCache bool) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				run(disableCache)
			}
		})
	}
	cold := bench(true)
	cached := bench(false)
	tOpen := time.Now()
	stats := run(false).CacheStats()
	openNs := time.Since(tOpen).Nanoseconds()

	rep := analyzeBenchReport{
		Generated: time.Now().UTC().Format(time.RFC3339),
		Scale:     scale,
		Images:    images,
		StreamLen: len(stream),
		Blocks:    stats.Blocks,
		Hits:      stats.Hits,
		Unique:    stats.Unique,
		HitRate:   stats.HitRate(),
		benchMem:  benchMem{OpenNs: openNs, PeakRSSBytes: peakRSSBytes()},
		Benchmarks: []analyzeBenchEntry{
			{Name: "AnalyzeStream/uncached", NsPerOp: float64(cold.NsPerOp()), AllocsPerOp: cold.AllocsPerOp(), BytesPerOp: cold.AllocedBytesPerOp()},
			{Name: "AnalyzeStream/cached", NsPerOp: float64(cached.NsPerOp()), AllocsPerOp: cached.AllocsPerOp(), BytesPerOp: cached.AllocedBytesPerOp()},
		},
	}
	if cached.NsPerOp() > 0 {
		rep.SpeedupNs = float64(cold.NsPerOp()) / float64(cached.NsPerOp())
	}
	if cached.AllocsPerOp() > 0 {
		rep.AllocRatio = float64(cold.AllocsPerOp()) / float64(cached.AllocsPerOp())
	}
	for _, e := range rep.Benchmarks {
		fmt.Printf("  %-22s %12.0f ns/op %12d B/op %10d allocs/op\n",
			e.Name, e.NsPerOp, e.BytesPerOp, e.AllocsPerOp)
	}
	fmt.Printf("  stream: %d opens of %d images per op; cache: %d/%d block hits (%.1f%%), %d unique\n",
		rep.StreamLen, rep.Images, rep.Hits, rep.Blocks, 100*rep.HitRate, rep.Unique)
	fmt.Printf("  cached vs uncached: %.2fx ns/op, %.2fx fewer allocs/op\n",
		rep.SpeedupNs, rep.AllocRatio)
	fmt.Printf("  cold start: %.1f ms cached session open; peak RSS %d MiB\n\n",
		float64(rep.OpenNs)/1e6, rep.PeakRSSBytes/(1<<20))
	if jsonOut {
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile("BENCH_analyze.json", append(blob, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Println("wrote BENCH_analyze.json")
	}
}

// telemetryBenchEntry is one benchmark row of the telemetry experiment's
// machine-readable output.
type telemetryBenchEntry struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// telemetryBenchReport is the schema of BENCH_telemetry.json.
type telemetryBenchReport struct {
	Generated  string                `json:"generated"`
	Scale      string                `json:"scale"`
	Images     int                   `json:"images"`
	GamesPerOp int                   `json:"games_per_op"`
	Benchmarks []telemetryBenchEntry `json:"benchmarks"`
	// AnalyzeOverheadNs is enabled ns/op over disabled ns/op for the
	// full-image analysis path (1.0 means telemetry is free).
	AnalyzeOverheadNs float64 `json:"analyze_overhead_ns_vs_disabled"`
	// GameOverheadNs is the same ratio for the game-heavy match path.
	GameOverheadNs float64 `json:"game_overhead_ns_vs_disabled"`
	// SearchGamesPerOp is the total games one Search benchmark op plays
	// (every meaningful wget query procedure against every corpus
	// executable).
	SearchGamesPerOp int `json:"search_games_per_op"`
	// TraceUnsampledOverhead is Search ns/op with metrics attached and a
	// nil request trace — the production firmupd state for unsampled
	// requests — over the all-off baseline (acceptance: <= 1.05).
	TraceUnsampledOverhead float64 `json:"trace_unsampled_overhead_ns_vs_notel"`
	// TraceExtraAllocsPerGame is the extra allocations per game the nil
	// trace plumbing adds over the baseline (acceptance: 0).
	TraceExtraAllocsPerGame float64 `json:"trace_extra_allocs_per_game"`
	// TraceSampledOverhead is Search ns/op with a live pooled trace over
	// the unsampled state — the marginal cost of actually sampling a
	// request (informational; sampled requests are the minority).
	TraceSampledOverhead float64 `json:"trace_sampled_overhead_ns_vs_unsampled"`
}

// telemetryBench measures the cost of pipeline telemetry on the two hot
// paths it instruments: full-image analysis (parse → recover → lift →
// strands → index) and the back-and-forth game. Each path runs once with
// telemetry disabled (nil registry: every handle is nil, recording calls
// are no-ops) and once recording into a live registry.
func telemetryBench(env *eval.Env, scale string, jsonOut bool) {
	fmt.Println("=== telemetry: metrics enabled vs disabled ===")
	var stream [][]byte
	for _, bi := range env.Corpus.Images {
		stream = append(stream, bi.Image.Pack(true))
	}
	analyze := func(reg *telemetry.Registry) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a := firmup.NewAnalyzer(&firmup.AnalyzerOptions{Telemetry: reg})
				for _, data := range stream {
					if _, err := a.OpenImage(data); err != nil {
						fatal(err)
					}
				}
			}
		})
	}
	analyzeOff := analyze(nil)
	analyzeOn := analyze(telemetry.New())

	// Game path: every meaningful wget query procedure against one
	// cross-tool-chain MIPS target.
	q, err := env.Query("wget", "1.15", uir.ArchMIPS32)
	if err != nil {
		fatal(err)
	}
	var target *sim.Exe
	for _, u := range env.Units {
		if u.Arch == uir.ArchMIPS32 && u.Pkg == "wget" {
			target = u.Exe
			break
		}
	}
	if target == nil {
		fatal(fmt.Errorf("no MIPS wget unit in the corpus"))
	}
	var qis []int
	for qi, qp := range q.Procs {
		if qp.Set.Size() >= 3 {
			qis = append(qis, qi)
		}
	}
	games := func(tel *core.Telemetry) testing.BenchmarkResult {
		opt := &core.Options{Tel: tel}
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, qi := range qis {
					core.Match(q, qi, target, opt)
				}
			}
		})
	}
	reg := telemetry.New()
	coreTel := func(reg *telemetry.Registry) *core.Telemetry {
		return &core.Telemetry{
			Games:            reg.Counter("game.played"),
			Steps:            reg.Histogram("game.steps"),
			AcceptedSteps:    reg.Histogram("game.steps.accepted"),
			MatcherHits:      reg.Counter("game.matcher_hits"),
			MatcherMisses:    reg.Counter("game.matcher_misses"),
			Searches:         reg.Counter("search.runs"),
			PrefilterKept:    reg.Counter("search.targets_kept"),
			PrefilterSkipped: reg.Counter("search.targets_skipped"),
		}
	}
	gamesOff := games(nil)
	gamesOn := games(coreTel(reg))

	// Tracing path: the serve pipeline threads a request-scoped trace
	// through SearchOptions. Measure the full corpus-wide search in the
	// three states a firmupd deployment sees: no telemetry at all, the
	// unsampled-request state (metrics attached, nil trace — must be
	// indistinguishable from the baseline), and a sampled request with a
	// live pooled trace. Workers 1 keeps the measurement serial.
	var allTargets []*sim.Exe
	for _, u := range env.Units {
		allTargets = append(allTargets, u.Exe)
	}
	search := func(tel *core.Telemetry, traced bool) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				opt := &core.SearchOptions{Game: core.Options{Tel: tel}, Workers: 1}
				var tr *telemetry.Trace
				if traced {
					tr = telemetry.NewTrace(telemetry.NewTraceID())
					root := tr.Start("request", 0)
					opt.Trace = tr
					opt.TraceParent = root.ID()
				}
				for _, qi := range qis {
					core.Search(q, qi, allTargets, opt)
				}
				if tr != nil {
					tr.Finish()
					tr.Free()
				}
			}
		})
	}
	searchGames := 0
	for _, qi := range qis {
		res := core.Search(q, qi, allTargets, &core.SearchOptions{Workers: 1})
		searchGames += res.Examined
	}
	searchNotel := search(nil, false)
	searchUnsampled := search(coreTel(telemetry.New()), false)
	searchSampled := search(coreTel(telemetry.New()), true)

	rep := telemetryBenchReport{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		Scale:      scale,
		Images:     len(stream),
		GamesPerOp: len(qis),
		Benchmarks: []telemetryBenchEntry{
			{Name: "AnalyzeImages/disabled", NsPerOp: float64(analyzeOff.NsPerOp()), AllocsPerOp: analyzeOff.AllocsPerOp(), BytesPerOp: analyzeOff.AllocedBytesPerOp()},
			{Name: "AnalyzeImages/enabled", NsPerOp: float64(analyzeOn.NsPerOp()), AllocsPerOp: analyzeOn.AllocsPerOp(), BytesPerOp: analyzeOn.AllocedBytesPerOp()},
			{Name: "MatchGame/disabled", NsPerOp: float64(gamesOff.NsPerOp()), AllocsPerOp: gamesOff.AllocsPerOp(), BytesPerOp: gamesOff.AllocedBytesPerOp()},
			{Name: "MatchGame/enabled", NsPerOp: float64(gamesOn.NsPerOp()), AllocsPerOp: gamesOn.AllocsPerOp(), BytesPerOp: gamesOn.AllocedBytesPerOp()},
			{Name: "Search/notel", NsPerOp: float64(searchNotel.NsPerOp()), AllocsPerOp: searchNotel.AllocsPerOp(), BytesPerOp: searchNotel.AllocedBytesPerOp()},
			{Name: "Search/unsampled", NsPerOp: float64(searchUnsampled.NsPerOp()), AllocsPerOp: searchUnsampled.AllocsPerOp(), BytesPerOp: searchUnsampled.AllocedBytesPerOp()},
			{Name: "Search/sampled", NsPerOp: float64(searchSampled.NsPerOp()), AllocsPerOp: searchSampled.AllocsPerOp(), BytesPerOp: searchSampled.AllocedBytesPerOp()},
		},
		SearchGamesPerOp: searchGames,
	}
	if analyzeOff.NsPerOp() > 0 {
		rep.AnalyzeOverheadNs = float64(analyzeOn.NsPerOp()) / float64(analyzeOff.NsPerOp())
	}
	if gamesOff.NsPerOp() > 0 {
		rep.GameOverheadNs = float64(gamesOn.NsPerOp()) / float64(gamesOff.NsPerOp())
	}
	if searchNotel.NsPerOp() > 0 {
		rep.TraceUnsampledOverhead = float64(searchUnsampled.NsPerOp()) / float64(searchNotel.NsPerOp())
	}
	if searchUnsampled.NsPerOp() > 0 {
		rep.TraceSampledOverhead = float64(searchSampled.NsPerOp()) / float64(searchUnsampled.NsPerOp())
	}
	if searchGames > 0 {
		rep.TraceExtraAllocsPerGame = float64(searchUnsampled.AllocsPerOp()-searchNotel.AllocsPerOp()) / float64(searchGames)
	}
	for _, e := range rep.Benchmarks {
		fmt.Printf("  %-24s %12.0f ns/op %12d B/op %10d allocs/op\n",
			e.Name, e.NsPerOp, e.BytesPerOp, e.AllocsPerOp)
	}
	fmt.Printf("  analyze: %.3fx ns/op enabled vs disabled; game: %.3fx ns/op\n",
		rep.AnalyzeOverheadNs, rep.GameOverheadNs)
	fmt.Printf("  trace:   %.3fx ns/op unsampled vs notel (%+.3f allocs/game), %.3fx sampled vs unsampled over %d games/op\n\n",
		rep.TraceUnsampledOverhead, rep.TraceExtraAllocsPerGame, rep.TraceSampledOverhead, rep.SearchGamesPerOp)
	if jsonOut {
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile("BENCH_telemetry.json", append(blob, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Println("wrote BENCH_telemetry.json")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fwbench:", err)
	os.Exit(1)
}
