package cfg_test

import (
	"testing"

	"firmup/internal/cfg"
	"firmup/internal/corpusindex"
	"firmup/internal/obj"
	"firmup/internal/sim"
)

// analysisAllocBudget bounds the heap allocations of one query's front
// end — parse, recovery, strand extraction and indexing. The front end
// allocates per executable and per procedure (slabs, arenas, the indexed
// procedures' sets), never per block or statement: the registry queries
// measure 240 to 360, where a boxed statement each made it 11,000 to
// 26,000.
const analysisAllocBudget = 1500

func TestAnalysisAllocBudget(t *testing.T) {
	for _, q := range registryQueries(t) {
		var failed error
		it := corpusindex.NewInterner() // the session; warm after AllocsPerRun's first run
		allocs := testing.AllocsPerRun(5, func() {
			f, err := obj.Read(q.data)
			if err != nil {
				failed = err
				return
			}
			rec, err := cfg.Recover(f)
			if err != nil {
				failed = err
				return
			}
			sim.BuildWith(q.name, rec, it, &sim.BuildConfig{Workers: 1})
		})
		if failed != nil {
			t.Fatalf("%s: %v", q.name, failed)
		}
		t.Logf("%s: %.0f allocations", q.name, allocs)
		if allocs > analysisAllocBudget {
			t.Errorf("%s: analysis makes %.0f allocations, budget %d", q.name, allocs, analysisAllocBudget)
		}
	}
}
