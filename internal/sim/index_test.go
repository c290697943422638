package sim

import (
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"firmup/internal/strand"
)

// referenceIndex is the comparison-sort CSR builder buildIndex replaced,
// kept as the oracle: gather (strand ID, procedure) pairs, sort by ID then
// procedure, compact runs of equal IDs into one row.
func referenceIndex(procs []*Proc) (ids []uint32, start, posts []int32) {
	type pair struct {
		id   uint32
		proc int32
	}
	var pairs []pair
	for pi, p := range procs {
		for _, id := range p.Set.IDs {
			pairs = append(pairs, pair{id, int32(pi)})
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].id != pairs[j].id {
			return pairs[i].id < pairs[j].id
		}
		return pairs[i].proc < pairs[j].proc
	})
	posts = make([]int32, len(pairs))
	for i, pr := range pairs {
		posts[i] = pr.proc
		if i == 0 || pr.id != pairs[i-1].id {
			ids = append(ids, pr.id)
			start = append(start, int32(i))
		}
	}
	return ids, append(start, int32(len(pairs))), posts
}

// randomProcs draws nprocs procedures whose sets hold up to maxLen sorted
// unique IDs below bound, bound to it; some are empty.
func randomProcs(rng *rand.Rand, it strand.Interner, nprocs, maxLen int, bound uint32) []*Proc {
	procs := make([]*Proc, nprocs)
	for pi := range procs {
		var ids []uint32
		if rng.Intn(4) > 0 {
			seen := map[uint32]bool{}
			for k := rng.Intn(maxLen + 1); k > 0; k-- {
				if id := uint32(rng.Int63n(int64(bound))); !seen[id] {
					seen[id] = true
					ids = append(ids, id)
				}
			}
			slices.Sort(ids)
		}
		procs[pi] = &Proc{Set: strand.Set{IDs: ids, It: it}}
	}
	return procs
}

func checkIndex(t *testing.T, name string, e *Exe) {
	t.Helper()
	ids, start, posts := referenceIndex(e.Procs)
	if !slices.Equal(e.ids, ids) || !slices.Equal(e.start, start) || !slices.Equal(e.procs, posts) {
		t.Fatalf("%s: counting CSR differs from the sort-based reference:\nids   %v\nwant  %v\nstart %v\nwant  %v\nprocs %v\nwant  %v",
			name, e.ids, ids, e.start, start, e.procs, posts)
	}
}

func TestBuildIndexMatchesReference(t *testing.T) {
	it := newTestInterner()
	rng := rand.New(rand.NewSource(26))
	set := func(ids ...uint32) *Proc { return &Proc{Set: strand.Set{IDs: ids, It: it}} }
	cases := []struct {
		name  string
		procs []*Proc
	}{
		{"empty executable", nil},
		{"only empty procedures", []*Proc{set(), set(), set()}},
		{"one ID shared by every procedure", []*Proc{set(5), set(5), set(), set(5), set(5)}},
		{"shared and private IDs", []*Proc{set(0, 1, 2, 63, 64), set(), set(1, 64, 65), set(0, 2, 127, 128)}},
		// A query under an overlay: a few known IDs of a small vocabulary,
		// the rest private and far above it.
		{"overlay-private IDs above a small vocabulary", []*Proc{set(3, 17, 1_000_000, 1_000_001), set(17, 1_000_001, 3_000_000)}},
	}
	for i := 0; i < 200; i++ {
		bound := uint32(1) << (2 + rng.Intn(16))
		cases = append(cases, struct {
			name  string
			procs []*Proc
		}{"random", randomProcs(rng, it, rng.Intn(40), 1+rng.Intn(60), bound)})
	}
	for _, c := range cases {
		checkIndex(t, c.name, FromProcs("T", c.procs, it))
	}

	// One scratch through builds whose largest ID shrinks, then grows past
	// what the scratch holds: each build must leave it all zero, or the
	// next one counts from stale cells.
	sc := new(csrScratch)
	for _, bound := range []uint32{5000, 40, 7, 300, 100_000, 64, 1} {
		e := &Exe{Procs: randomProcs(rng, it, 30, 50, bound), it: it}
		sc.build(e)
		checkIndex(t, "reused scratch", e)
		if slices.ContainsFunc(sc.cnt, func(c int32) bool { return c != 0 }) ||
			slices.ContainsFunc(sc.seen, func(w uint64) bool { return w != 0 }) {
			t.Fatalf("scratch not zero after a build with IDs below %d", bound)
		}
	}
}

// TestBuildIndexConcurrent builds 64 executables at once through the
// pooled scratch; run under -race.
func TestBuildIndexConcurrent(t *testing.T) {
	it := newTestInterner()
	var wg sync.WaitGroup
	for w := 0; w < 64; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			e := FromProcs("T", randomProcs(rng, it, 25, 80, 1<<uint(4+seed%12)), it)
			ids, start, posts := referenceIndex(e.Procs)
			if !slices.Equal(e.ids, ids) || !slices.Equal(e.start, start) || !slices.Equal(e.procs, posts) {
				t.Errorf("seed %d: counting CSR differs from the reference", seed)
			}
		}(int64(w))
	}
	wg.Wait()
}
