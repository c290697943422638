// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, regenerating the corresponding result over the synthetic
// corpus. Run with:
//
//	go test -bench=. -benchmem
//
// Shape targets (see EXPERIMENTS.md for paper-vs-measured):
//
//	BenchmarkTable2CVEHunt       — Table 2: confirmed findings per CVE
//	BenchmarkFig6BinDiff         — Fig. 6: FirmUp vs graph-based matching
//	BenchmarkFig8GitZ            — Fig. 8: FirmUp vs procedure-centric top-1
//	BenchmarkFig9GameSteps       — Fig. 9: correct matches by game steps + ablation
//	BenchmarkTable1GameTrace     — Table 1: one game course
//	BenchmarkFig1Divergence      — Fig. 1/3: syntactic gap vs strand overlap
//	BenchmarkPipeline*           — per-stage throughput (lift, strands, game)
package firmup_test

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"

	"firmup"
	"firmup/internal/cfg"
	"firmup/internal/compiler"
	"firmup/internal/core"
	"firmup/internal/corpus"
	"firmup/internal/eval"
	"firmup/internal/isa"
	_ "firmup/internal/isa/arm"
	_ "firmup/internal/isa/mips"
	_ "firmup/internal/isa/ppc"
	_ "firmup/internal/isa/x86"
	"firmup/internal/obj"
	"firmup/internal/sim"
	"firmup/internal/strand"
	"firmup/internal/uir"
)

var (
	benchOnce sync.Once
	benchEnv  *eval.Env
	benchErr  error
)

func benchSetup(b *testing.B) *eval.Env {
	b.Helper()
	benchOnce.Do(func() {
		benchEnv, benchErr = eval.Prepare(corpus.DefaultScale())
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchEnv
}

// BenchmarkTable2CVEHunt regenerates Table 2: the full wild CVE hunt.
func BenchmarkTable2CVEHunt(b *testing.B) {
	env := benchSetup(b)
	var res *eval.Table2Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = eval.Table2(env, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	confirmed, latest := res.TotalConfirmed()
	b.ReportMetric(float64(confirmed), "confirmed")
	b.ReportMetric(float64(latest), "latest-devices")
	if b.N == 1 {
		fmt.Println(res.Format())
	}
}

// BenchmarkFig6BinDiff regenerates Fig. 6: labeled FirmUp vs BinDiff.
func BenchmarkFig6BinDiff(b *testing.B) {
	env := benchSetup(b)
	var res *eval.CompareResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = eval.CompareBinDiff(env, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	fuP, fuFP, fuFN, blP, blFP, blFN := res.Rates()
	b.ReportMetric(100*float64(fuP)/float64(fuP+fuFP+fuFN), "firmup-%P")
	b.ReportMetric(100*float64(blP)/float64(blP+blFP+blFN), "bindiff-%P")
	if b.N == 1 {
		fmt.Println(res.Format())
	}
}

// BenchmarkFig8GitZ regenerates Fig. 8: labeled FirmUp vs GitZ top-1.
func BenchmarkFig8GitZ(b *testing.B) {
	env := benchSetup(b)
	var res *eval.CompareResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = eval.CompareGitZ(env, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	fuP, fuFP, fuFN, blP, blFP, blFN := res.Rates()
	b.ReportMetric(100*float64(fuFP+fuFN)/float64(fuP+fuFP+fuFN), "firmup-%false")
	b.ReportMetric(100*float64(blFP+blFN)/float64(blP+blFP+blFN), "gitz-%false")
	if b.N == 1 {
		fmt.Println(res.Format())
	}
}

// BenchmarkFig9GameSteps regenerates Fig. 9: the game-step histogram and
// the no-game ablation.
func BenchmarkFig9GameSteps(b *testing.B) {
	env := benchSetup(b)
	var res *eval.CompareResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = eval.CompareGitZ(env, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	buckets := eval.Fig9Buckets(res.StepsHistogram)
	oneStep := buckets[0].Count
	multi := 0
	for _, bk := range buckets[1:] {
		multi += bk.Count
	}
	b.ReportMetric(float64(oneStep), "one-step")
	b.ReportMetric(float64(multi), "multi-step")
	b.ReportMetric(float64(res.NoGameP), "ablation-P")
	if b.N == 1 {
		fmt.Println(eval.FormatFig9(res))
	}
}

// BenchmarkTable1GameTrace regenerates Table 1: one full game course.
func BenchmarkTable1GameTrace(b *testing.B) {
	env := benchSetup(b)
	var out string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		out, err = eval.GameTrace(env)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if b.N == 1 {
		fmt.Println(out)
	}
}

// BenchmarkFig1Divergence regenerates the Fig. 1/3 measurement: same
// procedure, two tool chains — instruction overlap vs strand overlap.
func BenchmarkFig1Divergence(b *testing.B) {
	src, err := corpus.PackageSource("wget", "1.15")
	if err != nil {
		b.Fatal(err)
	}
	build := func(prof compiler.Profile, opt isa.Options) strand.Set {
		pkg, err := compiler.CompileToMIR(src, prof)
		if err != nil {
			b.Fatal(err)
		}
		be, _ := isa.ByArch(uir.ArchMIPS32)
		art, err := be.Generate(pkg, opt)
		if err != nil {
			b.Fatal(err)
		}
		f := obj.FromArtifact(art)
		rec, err := cfg.Recover(f)
		if err != nil {
			b.Fatal(err)
		}
		p := rec.Proc("ftp_retrieve_glob")
		return strand.FromBlocks(p.Blocks, &strand.Options{ABI: be.ABI(), Sections: f.Map()})
	}
	features := map[string]bool{"OPIE": true, "SSL": true, "COOKIES": true, "IPV6": true}
	var shared, qsize int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := build(compiler.DefaultQueryProfile(uir.ArchMIPS32),
			isa.Options{TextBase: 0x400000, RegSeed: 1, SchedSeed: 1, MulByShift: true})
		c := build(compiler.Profile{OptLevel: 1, Features: features},
			isa.Options{TextBase: 0x80001000, RegSeed: 77, SchedSeed: 13, ShuffleProcs: true})
		shared, qsize = a.Intersect(c), a.Size()
	}
	b.StopTimer()
	b.ReportMetric(100*float64(shared)/float64(qsize), "%strands-shared")
}

// --- pipeline-stage micro-benchmarks ---

func benchUnit(b *testing.B) (*eval.Env, *sim.Exe, int, *sim.Exe) {
	env := benchSetup(b)
	q, err := env.Query("wget", "1.15", uir.ArchMIPS32)
	if err != nil {
		b.Fatal(err)
	}
	qi := q.ProcByName("ftp_retrieve_glob")
	for _, u := range env.Units {
		if u.Pkg == "wget" && u.Arch == uir.ArchMIPS32 {
			return env, q, qi, u.Exe
		}
	}
	b.Fatal("no MIPS wget unit")
	return nil, nil, 0, nil
}

// BenchmarkPipelineRecoverAndLift measures stripped-binary procedure
// recovery plus lifting for one executable.
func BenchmarkPipelineRecoverAndLift(b *testing.B) {
	env := benchSetup(b)
	var f *obj.File
	for _, u := range env.Units {
		if u.Pkg == "wget" {
			f = u.File
		}
	}
	if f == nil {
		b.Fatal("no wget unit")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.Recover(f); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineStrands measures strand extraction for one
// executable's recovered procedures the way the pipeline runs it: one
// reused, uncached Extractor, hashes and markers only.
func BenchmarkPipelineStrands(b *testing.B) {
	env := benchSetup(b)
	var f *obj.File
	for _, u := range env.Units {
		if u.Pkg == "wget" {
			f = u.File
		}
	}
	rec, err := cfg.Recover(f)
	if err != nil {
		b.Fatal(err)
	}
	be, _ := isa.ByArch(rec.Arch)
	opt := &strand.Options{ABI: be.ABI(), Sections: f.Map()}
	strands := 0
	for _, p := range rec.Procs {
		for _, blk := range p.Blocks {
			strands += len(strand.ExtractBlock(blk, opt))
		}
	}
	ex := strand.NewExtractor(opt, nil, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range rec.Procs {
			ex.Proc(p.Blocks)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*strands), "ns/strand")
}

// BenchmarkPipelineGame measures one back-and-forth game.
func BenchmarkPipelineGame(b *testing.B) {
	_, q, qi, t := benchUnit(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Match(q, qi, t, nil)
	}
}

// BenchmarkMatchGame compares the memoized engine against the reference
// with allocs/op — the per-game similarity cache and pooled arenas are
// exactly what this tracks — on two workloads. The plain sub-cases play
// the full game workload of one query executable (every procedure with
// a meaningful strand set against one same-ISA target), where nearly
// every game ends on its first exchange. The -long sub-cases are the
// guard for the matcher's revisit scan: every procedure of the corpus's
// largest executable against its second largest (a cross-ISA pair), with
// MaxSteps 64, where games average over ten steps and several run to the
// cap, so memoized lists are rescanned under growing exclusion maps.
func BenchmarkMatchGame(b *testing.B) {
	env, q, _, t := benchUnit(b)
	var qis []int
	for qi, qp := range q.Procs {
		if qp.Set.Size() >= 3 {
			qis = append(qis, qi)
		}
	}
	bySize := append([]*eval.Unit(nil), env.Units...)
	sort.SliceStable(bySize, func(i, j int) bool { return len(bySize[i].Exe.Procs) > len(bySize[j].Exe.Procs) })
	longQ, longT := bySize[0].Exe, bySize[1].Exe
	longQis := make([]int, len(longQ.Procs))
	for i := range longQis {
		longQis[i] = i
	}
	long := &core.Options{MaxSteps: 64}
	for _, bc := range []struct {
		name string
		run  func(q *sim.Exe, qi int, t *sim.Exe, opt *core.Options) core.Result
		q, t *sim.Exe
		qis  []int
		opt  *core.Options
	}{
		{"memoized", core.Match, q, t, qis, nil},
		{"reference", core.MatchReference, q, t, qis, nil},
		{"memoized-long", core.Match, longQ, longT, longQis, long},
		{"reference-long", core.MatchReference, longQ, longT, longQis, long},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			steps := 0
			for i := 0; i < b.N; i++ {
				steps = 0
				for _, qi := range bc.qis {
					steps += bc.run(bc.q, qi, bc.t, bc.opt).Steps
				}
			}
			b.ReportMetric(float64(len(bc.qis)), "games/op")
			b.ReportMetric(float64(steps), "steps/op")
		})
	}
}

// BenchmarkSearchMemoized measures the game-heavy search path end to end
// with allocs/op: one query procedure against every same-arch target,
// through the pooled matcher arenas the search workers share.
func BenchmarkSearchMemoized(b *testing.B) {
	env, q, qi, _ := benchUnit(b)
	var targets []*sim.Exe
	for _, u := range env.Units {
		if u.Arch == uir.ArchMIPS32 {
			targets = append(targets, u.Exe)
		}
	}
	opt := eval.DefaultSearch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Search(q, qi, targets, opt)
	}
	b.ReportMetric(float64(len(targets)), "targets/op")
}

// BenchmarkPipelinePairwise measures one index-accelerated best-match
// query (the inner operation of the game).
func BenchmarkPipelinePairwise(b *testing.B) {
	_, q, qi, t := benchUnit(b)
	set := q.Procs[qi].Set
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.BestMatch(set, nil)
	}
}

// BenchmarkPipelineImageSearch measures a whole-image search through the
// public API path (game against every executable of one image).
func BenchmarkPipelineImageSearch(b *testing.B) {
	env, q, qi, _ := benchUnit(b)
	var targets []*sim.Exe
	for _, u := range env.Units {
		if u.Arch == uir.ArchMIPS32 {
			targets = append(targets, u.Exe)
		}
	}
	opt := eval.DefaultSearch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Search(q, qi, targets, opt)
	}
}

// --- ablation benchmarks for the design choices DESIGN.md calls out ---

// BenchmarkAblationOffsetElim measures cross-tool-chain best-match
// accuracy with and without offset elimination. Without it, code/data
// addresses leak into strands and matching collapses across layouts.
func BenchmarkAblationOffsetElim(b *testing.B) {
	src, err := corpus.PackageSource("wget", "1.15")
	if err != nil {
		b.Fatal(err)
	}
	type built struct {
		rec *cfg.Recovered
		f   *obj.File
	}
	build := func(prof compiler.Profile, opt isa.Options) built {
		pkg, err := compiler.CompileToMIR(src, prof)
		if err != nil {
			b.Fatal(err)
		}
		be, _ := isa.ByArch(uir.ArchMIPS32)
		art, err := be.Generate(pkg, opt)
		if err != nil {
			b.Fatal(err)
		}
		f := obj.FromArtifact(art)
		rec, err := cfg.Recover(f)
		if err != nil {
			b.Fatal(err)
		}
		return built{rec, f}
	}
	features := map[string]bool{"OPIE": true, "SSL": true, "COOKIES": true, "IPV6": true}
	qa := build(compiler.DefaultQueryProfile(uir.ArchMIPS32),
		isa.Options{TextBase: 0x400000, RegSeed: 1, SchedSeed: 1, MulByShift: true})
	tb := build(compiler.Profile{OptLevel: 1, Features: features},
		isa.Options{TextBase: 0x80001000, RegSeed: 77, SchedSeed: 13, ShuffleProcs: true})

	// Metric: the average fraction of a procedure's strands shared with
	// its true counterpart across the tool chains (the signal Sim feeds
	// on). Offset elimination is what keeps data-referencing strands
	// comparable across different layout bases.
	truePairOverlap := func(withElim bool) float64 {
		be, _ := isa.ByArch(uir.ArchMIPS32)
		mkSets := func(bu built) map[string]strand.Set {
			opt := &strand.Options{ABI: be.ABI()}
			if withElim {
				opt.Sections = bu.f.Map()
			}
			out := map[string]strand.Set{}
			for _, p := range bu.rec.Procs {
				out[p.Name] = strand.FromBlocks(p.Blocks, opt)
			}
			return out
		}
		qs := mkSets(qa)
		ts := mkSets(tb)
		var sum float64
		var n int
		for name, q := range qs {
			t, ok := ts[name]
			if !ok || q.Size() < 3 {
				continue
			}
			sum += float64(q.Intersect(t)) / float64(q.Size())
			n++
		}
		return 100 * sum / float64(n)
	}
	var with, without float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		with = truePairOverlap(true)
		without = truePairOverlap(false)
	}
	b.StopTimer()
	b.ReportMetric(with, "with-%overlap")
	b.ReportMetric(without, "without-%overlap")
}

// BenchmarkAblationMarkers measures Table 2 false positives with and
// without the constant-marker confirmation step.
func BenchmarkAblationMarkers(b *testing.B) {
	env := benchSetup(b)
	run := func(markerBar float64) (confirmed, fps int) {
		opt := eval.DefaultSearch()
		opt.MarkerMinOverlap = markerBar
		res, err := eval.Table2(env, opt)
		if err != nil {
			b.Fatal(err)
		}
		c, _ := res.TotalConfirmed()
		for _, row := range res.Rows {
			fps += row.FPs
		}
		return c, fps
	}
	var cWith, fWith, cWithout, fWithout int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cWith, fWith = run(0)        // default 0.3
		cWithout, fWithout = run(-1) // disabled
	}
	b.StopTimer()
	b.ReportMetric(float64(cWith), "with-confirmed")
	b.ReportMetric(float64(fWith), "with-FPs")
	b.ReportMetric(float64(cWithout), "without-confirmed")
	b.ReportMetric(float64(fWithout), "without-FPs")
}

// --- analyzer-session benchmarks: parallel analysis & indexed search ---

// benchImageScenario packs the wget firmware image and compiles the
// matching query, as bytes (the external-user view).
func benchImageScenario(b *testing.B) (imgBytes, queryBytes []byte) {
	b.Helper()
	c, err := corpus.Build(corpus.DefaultScale())
	if err != nil {
		b.Fatal(err)
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
		b.Fatal("no wget 1.15 image in default corpus")
	}
	_, qf, err := corpus.QueryExe("wget", "1.15", arch)
	if err != nil {
		b.Fatal(err)
	}
	return target.Image.Pack(true), qf.Bytes()
}

// BenchmarkOpenImage measures whole-image analysis under the session
// worker pool, serial vs parallel.
func BenchmarkOpenImage(b *testing.B) {
	imgBytes, _ := benchImageScenario(b)
	workers := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		workers = append(workers, n)
	}
	for _, w := range workers {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a := firmup.NewAnalyzer(&firmup.AnalyzerOptions{Workers: w})
				img, err := a.OpenImage(imgBytes)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(len(img.Exes)), "exes")
				}
			}
		})
	}
}

// BenchmarkSearchImage measures a whole-image search with the
// corpus-index candidate prefilter vs exhaustive examination.
func BenchmarkSearchImage(b *testing.B) {
	imgBytes, queryBytes := benchImageScenario(b)
	a := firmup.NewAnalyzer(nil)
	img, err := a.OpenImage(imgBytes)
	if err != nil {
		b.Fatal(err)
	}
	q, err := a.LoadQueryExecutable(queryBytes)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		opt  *firmup.Options
	}{
		{"indexed", nil},
		{"exhaustive", &firmup.Options{Exhaustive: true}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var res *firmup.SearchResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = a.SearchImageDetailed(q, "ftp_retrieve_glob", img, mode.opt)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Examined), "examined")
			b.ReportMetric(float64(len(res.Findings)), "findings")
		})
	}
}
