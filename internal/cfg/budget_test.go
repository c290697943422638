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

// raceAllocBudget replaces each front end's allocation budget under the
// race detector, which drops pooled scratch at random: the registry
// queries then measure up to 400 on the pipeline path and 460 through
// cfg.Recover.
const raceAllocBudget = 1500

// analysisBytesBudget bounds the bytes one query's front end allocates
// on the pipeline path (cfg.Plan, then sim.BuildWith lifting each
// procedure as it extracts it), per byte of text. The registry queries
// measure 16 to 20, most of it the sweep's offset table and instruction
// run; lifting the whole executable into one statement arena before
// extraction made it 57 to 65.
const analysisBytesBudget = 30

// frontEnds are the two ways into sim.BuildWith: the pipeline's plan,
// lifted procedure by procedure inside the build, and cfg.Recover's
// executable lifted whole.
//
// allocBudget bounds the heap allocations of one query's front end —
// parse, recovery, strand extraction and indexing — on that path. The
// front end allocates per executable and per procedure (slabs, arenas,
// the indexed procedures' ID sets and markers), never per block or
// statement: the registry queries measure 150 to 233 on the pipeline
// path and 178 to 277 through cfg.Recover. The bounds fail when every
// indexed set carries its hashes as well (172 to 272 and 203 to 316); a
// boxed statement each made it 11,000 to 26,000.
var frontEnds = []struct {
	name        string
	recover     func(*obj.File) (*cfg.Recovered, error)
	allocBudget float64
}{
	{"plan", func(f *obj.File) (*cfg.Recovered, error) { return cfg.Plan(f, telemetry.Span{}) }, 250},
	{"recover", cfg.Recover, 295},
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
		budget := fe.allocBudget
		if raceEnabled {
			budget = raceAllocBudget
		}
		for _, q := range registryQueries(t) {
			it := corpusindex.NewInterner() // the session; warm after AllocsPerRun's first run
			allocs := testing.AllocsPerRun(5, func() { analyze(t, q, fe.recover, it) })
			t.Logf("%s %s: %.0f allocations", fe.name, q.name, allocs)
			if allocs > budget {
				t.Errorf("%s %s: analysis makes %.0f allocations, budget %.0f", fe.name, q.name, allocs, budget)
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
