// One benchmark per table and figure of the paper's evaluation,
// regenerating the corresponding result over the synthetic corpus. Run
// with:
//
//	go test -run '^$' -bench . -benchtime 1x
//
// Shape targets (see EXPERIMENTS.md for paper-vs-measured):
//
//	BenchmarkTable2CVEHunt       — Table 2: confirmed findings per CVE
//	BenchmarkFig6BinDiff         — Fig. 6: FirmUp vs graph-based matching
//	BenchmarkFig8GitZ            — Fig. 8: FirmUp vs procedure-centric top-1
//	BenchmarkFig9GameSteps       — Fig. 9: correct matches by game steps + ablation
//	BenchmarkTable1GameTrace     — Table 1: one game course
//	BenchmarkFig1Divergence      — Fig. 1/3: syntactic gap vs strand overlap
//	BenchmarkAblation*           — the design choices DESIGN.md calls out
//
// Timing — per layer and end to end, with repetitions and spread — is
// bench/ (bash bench/run.sh), not here.
package firmup_test

import (
	"fmt"
	"sync"
	"testing"

	"firmup/internal/cfg"
	"firmup/internal/compiler"
	"firmup/internal/core"
	"firmup/internal/corpus"
	"firmup/internal/corpusindex"
	"firmup/internal/eval"
	"firmup/internal/isa"
	_ "firmup/internal/isa/arm"
	_ "firmup/internal/isa/mips"
	_ "firmup/internal/isa/ppc"
	_ "firmup/internal/isa/x86"
	"firmup/internal/obj"
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
		res, err = eval.Table2(env)
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
		res, err = eval.CompareBinDiff(env)
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
		res, err = eval.CompareGitZ(env)
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
		res, err = eval.CompareGitZ(env)
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
	it := corpusindex.NewInterner()
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
		return extractSet(it, p.Blocks, &strand.Options{ABI: be.ABI(), Sections: f.Map()})
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

// extractSet is one procedure's strand set, interned under it: sets of
// one interner compare.
func extractSet(it strand.Interner, blocks []*uir.Block, opt *strand.Options) strand.Set {
	ex := strand.NewExtractor(opt, it, nil)
	defer ex.Release()
	set, _ := ex.Proc(blocks)
	return set
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
		it := corpusindex.NewInterner()
		mkSets := func(bu built) map[string]strand.Set {
			opt := &strand.Options{ABI: be.ABI()}
			if withElim {
				opt.Sections = bu.f.Map()
			}
			out := map[string]strand.Set{}
			for _, p := range bu.rec.Procs {
				out[p.Name] = extractSet(it, p.Blocks, opt)
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

// BenchmarkAblationMarkers measures the acceptance rule with and without
// the constant-marker confirmation step, on Table 2's seven queries: each
// played against every unit of its own ISA (core.MatchOne, the game and
// its threshold on a fixed pair), an accepted match counted per image
// occurrence as correct — the query procedure, at any version — or as a
// false positive.
func BenchmarkAblationMarkers(b *testing.B) {
	env := benchSetup(b)
	run := func(markerBar float64) (correct, fps int) {
		opt := &core.SearchOptions{}
		opt.MarkerMinOverlap = markerBar
		for _, cve := range corpus.CVEs[:7] {
			for _, u := range env.Units {
				q, err := env.Query(cve.Package, cve.QueryVersion, u.Arch)
				if err != nil {
					b.Fatal(err)
				}
				f, _ := core.MatchOne(q, q.ProcByName(cve.Procedure), u.Exe, opt)
				if f == nil {
					continue
				}
				name := u.TruthName(f.ProcAddr)
				if name == cve.Procedure || (name == "curl_unescape" && cve.Procedure == "curl_easy_unescape") {
					correct += len(u.Occurrences)
				} else {
					fps += len(u.Occurrences)
				}
			}
		}
		return correct, fps
	}
	var cWith, fWith, cWithout, fWithout int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cWith, fWith = run(0)        // default 0.3
		cWithout, fWithout = run(-1) // disabled
	}
	b.StopTimer()
	b.ReportMetric(float64(cWith), "with-correct")
	b.ReportMetric(float64(fWith), "with-FPs")
	b.ReportMetric(float64(cWithout), "without-correct")
	b.ReportMetric(float64(fWithout), "without-FPs")
}
