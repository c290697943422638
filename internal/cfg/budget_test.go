package cfg_test

import (
	"runtime"
	"testing"

	"firmup/internal/cfg"
	"firmup/internal/corpusindex"
	"firmup/internal/obj"
	"firmup/internal/sim"
	"firmup/internal/telemetry"
)

// analysisAllocBudget bounds the heap allocations of one query's front
// end — parse, recovery, strand extraction and indexing. The front end
// allocates per executable and per procedure (slabs, arenas, the indexed
// procedures' sets), never per block or statement: the registry queries
// measure 175 to 272 on the pipeline path and 203 to 315 through
// cfg.Recover, where a boxed statement each made it 11,000 to 26,000.
const analysisAllocBudget = 1500

// analysisBytesBudget bounds the bytes one query's front end allocates
// on the pipeline path (cfg.Plan, then sim.BuildWith lifting each
// procedure as it extracts it), per byte of text. The registry queries
// measure 17 to 21, most of it the sweep's offset table and instruction
// run; lifting the whole executable into one statement arena before
// extraction made it 57 to 65.
const analysisBytesBudget = 30

// frontEnds are the two ways into sim.BuildWith: the pipeline's plan,
// lifted procedure by procedure inside the build, and cfg.Recover's
// executable lifted whole.
var frontEnds = []struct {
	name    string
	recover func(*obj.File) (*cfg.Recovered, error)
}{
	{"plan", func(f *obj.File) (*cfg.Recovered, error) { return cfg.Plan(f, nil, telemetry.Span{}) }},
	{"recover", cfg.Recover},
}

// analyze runs one query's front end with recover as its recovery step.
func analyze(tb testing.TB, q registryQuery, recover func(*obj.File) (*cfg.Recovered, error), it *corpusindex.Interner) {
	f, err := obj.Read(q.data)
	if err != nil {
		tb.Fatalf("%s: %v", q.name, err)
	}
	rec, err := recover(f)
	if err != nil {
		tb.Fatalf("%s: %v", q.name, err)
	}
	sim.BuildWith(q.name, rec, it, &sim.BuildConfig{Workers: 1})
}

func TestAnalysisAllocBudget(t *testing.T) {
	for _, fe := range frontEnds {
		for _, q := range registryQueries(t) {
			it := corpusindex.NewInterner() // the session; warm after AllocsPerRun's first run
			allocs := testing.AllocsPerRun(5, func() { analyze(t, q, fe.recover, it) })
			t.Logf("%s %s: %.0f allocations", fe.name, q.name, allocs)
			if allocs > analysisAllocBudget {
				t.Errorf("%s %s: analysis makes %.0f allocations, budget %d", fe.name, q.name, allocs, analysisAllocBudget)
			}
		}
	}
}

func TestAnalysisBytesBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch at random")
	}
	plan := frontEnds[0]
	for _, q := range registryQueries(t) {
		f, err := obj.Read(q.data)
		if err != nil {
			t.Fatal(err)
		}
		text := len(f.Text().Data)
		it := corpusindex.NewInterner()
		analyze(t, q, plan.recover, it) // warms the session and the pools
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			analyze(t, q, plan.recover, it)
		}
		runtime.ReadMemStats(&after)
		perByte := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(text)
		t.Logf("%s: %.1f bytes allocated per text byte (%d text bytes)", q.name, perByte, text)
		if perByte > analysisBytesBudget {
			t.Errorf("%s: analysis allocates %.1f bytes per text byte, budget %d", q.name, perByte, analysisBytesBudget)
		}
	}
}
