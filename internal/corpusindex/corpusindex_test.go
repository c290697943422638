package corpusindex

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"firmup/internal/sim"
	"firmup/internal/strand"
)

func set(hashes ...uint64) strand.Set {
	s := append([]uint64(nil), hashes...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return strand.Set{Hashes: s}
}

func TestInternerDedup(t *testing.T) {
	it := NewInterner()
	a := it.Intern(42)
	b := it.Intern(77)
	if a == b {
		t.Fatalf("distinct hashes share ID %d", a)
	}
	if got := it.Intern(42); got != a {
		t.Errorf("re-intern(42) = %d, want %d", got, a)
	}
	if it.Size() != 2 {
		t.Errorf("Size = %d, want 2", it.Size())
	}
}

func TestInternerConcurrent(t *testing.T) {
	it := NewInterner()
	const goroutines, hashes = 8, 500
	var wg sync.WaitGroup
	ids := make([][]uint32, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ids[g] = make([]uint32, hashes)
			for h := 0; h < hashes; h++ {
				ids[g][h] = it.Intern(uint64(h))
			}
		}(g)
	}
	wg.Wait()
	if it.Size() != hashes {
		t.Fatalf("Size = %d, want %d", it.Size(), hashes)
	}
	for g := 1; g < goroutines; g++ {
		for h := 0; h < hashes; h++ {
			if ids[g][h] != ids[0][h] {
				t.Fatalf("goroutine %d saw ID %d for hash %d, goroutine 0 saw %d",
					g, ids[g][h], h, ids[0][h])
			}
		}
	}
}

// exes returns a small corpus built under one session plus its index.
func buildCorpus(t *testing.T) (*Interner, *Index, []*sim.Exe) {
	t.Helper()
	it := NewInterner()
	exes := []*sim.Exe{
		sim.FromProcsSession("a", []*sim.Proc{
			{Name: "a0", Set: set(1, 2, 3, 4, 5)},
			{Name: "a1", Set: set(4, 5, 6)},
		}, it),
		sim.FromProcsSession("b", []*sim.Proc{
			{Name: "b0", Set: set(1, 2)},
		}, it),
		sim.FromProcsSession("c", []*sim.Proc{
			{Name: "c0", Set: set(100, 101)},
		}, it),
	}
	x := NewIndex(it)
	for _, e := range exes {
		x.Add(e)
	}
	return it, x, exes
}

func TestCandidatesMatchBruteForce(t *testing.T) {
	it, x, exes := buildCorpus(t)
	q := set(1, 2, 3, 9).Interned(it)

	cands, ok := x.Candidates(q, 1, 0)
	if !ok {
		t.Fatal("same-session query must be filterable")
	}
	want := map[int]int{} // exe -> brute-force max Sim
	for ei, e := range exes {
		max := 0
		for i := range e.Procs {
			if s := e.Sim(q, i); s > max {
				max = s
			}
		}
		if max > 0 {
			want[ei] = max
		}
	}
	if len(cands) != len(want) {
		t.Fatalf("candidates = %+v, want exes %v", cands, want)
	}
	for _, c := range cands {
		if want[c.Exe] != c.MaxSim {
			t.Errorf("exe %d MaxSim = %d, want %d", c.Exe, c.MaxSim, want[c.Exe])
		}
	}
	// Ranking: MaxSim descending.
	for i := 1; i < len(cands); i++ {
		if cands[i].MaxSim > cands[i-1].MaxSim {
			t.Errorf("candidates out of order: %+v", cands)
		}
	}
}

func TestCandidatesFloors(t *testing.T) {
	it, x, _ := buildCorpus(t)
	q := set(1, 2, 3, 9).Interned(it)

	// minScore 3: only exe a (max Sim 3 via a0) survives.
	cands, ok := x.Candidates(q, 3, 0)
	if !ok || len(cands) != 1 || cands[0].Exe != 0 || cands[0].MaxSim != 3 {
		t.Errorf("minScore=3 candidates = %+v, ok=%v; want just exe 0 at MaxSim 3", cands, ok)
	}
	// ratio floor 0.9 with |q|=4: even 3/4 shared fails.
	cands, ok = x.Candidates(q, 1, 0.9)
	if !ok || len(cands) != 0 {
		t.Errorf("ratioFloor=0.9 candidates = %+v, want none", cands)
	}
}

func TestCandidatesCrossSession(t *testing.T) {
	_, x, _ := buildCorpus(t)
	other := NewInterner()
	q := set(1, 2, 3).Interned(other)
	if _, ok := x.Candidates(q, 1, 0); ok {
		t.Error("query from another session must report ok=false")
	}
	if _, ok := x.Candidates(set(1, 2, 3), 1, 0); ok {
		t.Error("un-interned query must report ok=false")
	}
}

func TestUninternedExeAlwaysCandidate(t *testing.T) {
	it, x, _ := buildCorpus(t)
	// An executable from outside the session carries no postings; the
	// index must keep it examinable rather than silently pruning it.
	foreign := sim.FromProcs("f", []*sim.Proc{{Name: "f0", Set: set(1, 2, 3)}})
	fi := x.Add(foreign)
	q := set(1, 2, 3).Interned(it)
	cands, ok := x.Candidates(q, 3, 0)
	if !ok {
		t.Fatal("expected filterable")
	}
	found := false
	for _, c := range cands {
		if c.Exe == fi {
			found = true
		}
	}
	if !found {
		t.Errorf("foreign exe %d missing from candidates %+v", fi, cands)
	}
}

// CandidateIndices must be exactly Candidates reduced to exe IDs, in
// ranking order, appended to the caller's buffer.
func TestCandidateIndicesMatchesCandidates(t *testing.T) {
	it, x, _ := buildCorpus(t)
	q := set(1, 2, 3, 9).Interned(it)
	cands, ok := x.Candidates(q, 1, 0)
	if !ok {
		t.Fatal("expected filterable")
	}
	ids, ok := x.CandidateIndices(q, 1, 0, []int{-7})
	if !ok {
		t.Fatal("expected filterable")
	}
	if len(ids) != len(cands)+1 || ids[0] != -7 {
		t.Fatalf("buffer append semantics broken: %v", ids)
	}
	for i, c := range cands {
		if ids[i+1] != c.Exe {
			t.Errorf("ids[%d] = %d, want %d", i+1, ids[i+1], c.Exe)
		}
	}
	other := NewInterner()
	if _, ok := x.CandidateIndices(set(1, 2).Interned(other), 1, 0, nil); ok {
		t.Error("cross-session query must report ok=false")
	}
}

// Repeated queries through the pooled scratch must be self-consistent:
// identical inputs give identical rankings, interleaved with different
// queries and index growth.
func TestCandidatesScratchReuse(t *testing.T) {
	it, x, _ := buildCorpus(t)
	qa := set(1, 2, 3, 9).Interned(it)
	qb := set(4, 5, 6).Interned(it)
	first, ok := x.Candidates(qa, 1, 0)
	if !ok {
		t.Fatal("expected filterable")
	}
	for i := 0; i < 20; i++ {
		if _, ok := x.Candidates(qb, 1, 0); !ok {
			t.Fatal("expected filterable")
		}
		again, ok := x.Candidates(qa, 1, 0)
		if !ok {
			t.Fatal("expected filterable")
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("iter %d: ranking drifted across scratch reuse:\nfirst: %+v\nagain: %+v", i, first, again)
		}
	}
	// Growing the index must invalidate nothing: the new exe appears,
	// previous ones keep their scores.
	ni := x.Add(sim.FromProcsSession("d", []*sim.Proc{
		{Name: "d0", Set: set(1, 2, 3, 9).Interned(it)},
	}, it))
	grown, ok := x.Candidates(qa, 1, 0)
	if !ok {
		t.Fatal("expected filterable")
	}
	if len(grown) != len(first)+1 {
		t.Fatalf("grown ranking = %+v", grown)
	}
	if grown[0].Exe != ni || grown[0].MaxSim != 4 {
		t.Fatalf("new exe should rank first with MaxSim 4: %+v", grown)
	}
}

// The scratch pool must hold up under concurrent queries (the search
// workers of parallel sessions share one index).
func TestCandidatesConcurrent(t *testing.T) {
	it, x, _ := buildCorpus(t)
	qa := set(1, 2, 3, 9).Interned(it)
	want, ok := x.Candidates(qa, 1, 0)
	if !ok {
		t.Fatal("expected filterable")
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				got, ok := x.Candidates(qa, 1, 0)
				if !ok || !reflect.DeepEqual(got, want) {
					errs <- "concurrent ranking diverged"
					return
				}
				if _, ok := x.CandidateIndices(qa, 1, 0, nil); !ok {
					errs <- "CandidateIndices failed"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// Add must stay correct while the posting table grows far beyond its
// previous bound one strand ID at a time (the capacity-doubling path).
func TestAddPostingGrowth(t *testing.T) {
	it := NewInterner()
	x := NewIndex(it)
	const exes = 40
	for e := 0; e < exes; e++ {
		// Each exe introduces fresh hashes, pushing the max dense ID up.
		hs := make([]uint64, 0, 8)
		for k := 0; k < 8; k++ {
			hs = append(hs, uint64(1000*e+k))
		}
		x.Add(sim.FromProcsSession("e", []*sim.Proc{{Name: "p", Set: set(hs...)}}, it))
	}
	if got := x.Postings(); got != exes*8 {
		t.Fatalf("Postings = %d, want %d", got, exes*8)
	}
	// Every exe must be retrievable by its own signature with a full max.
	for e := 0; e < exes; e++ {
		q := set(uint64(1000*e), uint64(1000*e+1), uint64(1000*e+2)).Interned(it)
		cands, ok := x.Candidates(q, 3, 0)
		if !ok || len(cands) != 1 || cands[0].Exe != e || cands[0].MaxSim != 3 {
			t.Fatalf("exe %d: candidates = %+v ok=%v", e, cands, ok)
		}
	}
}

// randCorpus builds a randomized session corpus: nexes executables with
// 1–4 procedures each, drawing strand hashes from a small universe so
// queries overlap targets at varied similarities.
func randCorpus(rng *rand.Rand, nexes int) (*Interner, *Index) {
	it := NewInterner()
	x := NewIndex(it)
	for e := 0; e < nexes; e++ {
		var procs []*sim.Proc
		for p := 0; p < 1+rng.Intn(4); p++ {
			n := rng.Intn(12)
			hs := map[uint64]bool{}
			for len(hs) < n {
				hs[uint64(1+rng.Intn(60))] = true
			}
			var hashes []uint64
			for h := range hs {
				hashes = append(hashes, h)
			}
			procs = append(procs, &sim.Proc{Name: fmt.Sprintf("p%d_%d", e, p), Set: set(hashes...)})
		}
		x.Add(sim.FromProcsSession(fmt.Sprintf("exe%d", e), procs, it))
	}
	return it, x
}

// frozenOf seals a live test index under the frozen vocabulary f both
// ways: built from the rebound executables, and over foreign slabs
// holding the live index's rows as a mapped shard would. The built
// index must hold exactly the live rows.
func frozenOf(t *testing.T, f *Frozen, x *Index) (built, foreign *FrozenIndex) {
	t.Helper()
	rebound := make([]*sim.Exe, len(x.exes))
	procCounts := make([]int32, len(x.exes))
	for i, e := range x.exes {
		rebound[i] = e.Rebound(f)
		procCounts[i] = int32(len(e.Procs))
	}
	rows := x.Rows()
	built = NewFrozenIndex(f, rebound)
	if !reflect.DeepEqual(built.Rows(), rows) {
		t.Fatalf("index built from executables holds rows %v, live index %v", built.Rows(), rows)
	}
	var rowIDs, rowEnds []uint32
	var posts []Posting
	for _, r := range rows {
		rowIDs = append(rowIDs, r.ID)
		posts = append(posts, r.Posts...)
		rowEnds = append(rowEnds, uint32(len(posts)))
	}
	foreign, err := NewFrozenIndexForeign(f, procCounts, rowIDs, rowEnds, posts)
	if err != nil {
		t.Fatal(err)
	}
	return built, foreign
}

// TestFrozenRanksLikeLive is the index-layer frozen ≡ live check, across
// randomized corpora, queries and floors: a frozen index — built or
// over foreign slabs — queried under an overlay interner ranks exactly as the
// live index it was sealed from.
func TestFrozenRanksLikeLive(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		it, x := randCorpus(rng, 2+rng.Intn(10))
		f := it.Freeze()
		built, foreign := frozenOf(t, f, x)
		for qi := 0; qi < 10; qi++ {
			n := rng.Intn(10)
			var hashes []uint64
			for len(hashes) < n {
				h := uint64(1 + rng.Intn(60))
				if !slices.Contains(hashes, h) {
					hashes = append(hashes, h)
				}
			}
			minScore, ratio := 1+rng.Intn(3), float64(rng.Intn(3))*0.2
			live := set(hashes...).Interned(it)
			frozen := strand.Set{Hashes: live.Hashes}.Interned(NewQueryInterner(f))
			want, ok := x.CandidateIndices(live, minScore, ratio, nil)
			if !ok {
				t.Fatalf("seed %d query %d: live index rejected a same-session query", seed, qi)
			}
			for name, fx := range map[string]*FrozenIndex{"built": built, "foreign": foreign} {
				var got Scans
				if !fx.Scan(frozen, minScore, ratio, nil, &got) {
					t.Fatalf("seed %d query %d: %s frozen index rejected an overlay query", seed, qi, name)
				}
				if !slices.Equal(got.Exes, want) {
					t.Fatalf("seed %d query %d: %s frozen ranking %v != live %v", seed, qi, name, got.Exes, want)
				}
			}
		}
	}
}

// TestScanVectorsEqualSimAll: what a scan hands the game engine is what
// the engine would have accumulated itself. For every candidate, the
// scan's vector equals the positive entries of the executable's SimAll
// for the query set, in procedure order — with overlay-private query
// IDs, under a scope filter, and with several queries appended to one
// Scans — and an executable below the floors gets no entry at all.
func TestScanVectorsEqualSimAll(t *testing.T) {
	vectors, below := 0, 0
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		it, x := randCorpus(rng, 2+rng.Intn(10))
		f := it.Freeze()
		built, foreign := frozenOf(t, f, x)
		exes := make([]*sim.Exe, len(x.exes))
		for i, e := range x.exes {
			exes[i] = e.Rebound(f)
		}
		for name, fx := range map[string]*FrozenIndex{"built": built, "foreign": foreign} {
			var scans Scans
			type scanned struct {
				q        strand.Set
				lo, hi   int
				minScore int
				ratio    float64
				inScope  []bool
			}
			var all []scanned
			for qi := 0; qi < 10; qi++ {
				// Hashes 1..60 are the corpus's universe; 1000+ are novel
				// and get overlay-private IDs above the vocabulary.
				var hashes []uint64
				for n := rng.Intn(12); len(hashes) < n; {
					h := uint64(1 + rng.Intn(60))
					if rng.Intn(4) == 0 {
						h = uint64(1000 + rng.Intn(50))
					}
					if !slices.Contains(hashes, h) {
						hashes = append(hashes, h)
					}
				}
				qit := NewQueryInterner(f)
				sc := scanned{
					q:        set(hashes...).Interned(qit),
					lo:       len(scans.Exes),
					minScore: 1 + rng.Intn(3),
					ratio:    float64(rng.Intn(3)) * 0.2,
				}
				if qi%3 == 2 {
					sc.inScope = make([]bool, len(exes))
					for i := range sc.inScope {
						sc.inScope[i] = rng.Intn(2) == 0
					}
				}
				if !fx.Scan(sc.q, sc.minScore, sc.ratio, sc.inScope, &scans) {
					t.Fatalf("seed %d %s query %d: overlay query rejected", seed, name, qi)
				}
				sc.hi = len(scans.Exes)
				all = append(all, sc)
			}
			if len(scans.Off) != len(scans.Exes)+1 {
				t.Fatalf("seed %d %s: %d offsets for %d candidates", seed, name, len(scans.Off), len(scans.Exes))
			}
			// Checked after every scan has appended: earlier ranges must
			// survive later appends.
			for qi, sc := range all {
				listed := map[int]bool{}
				for k := sc.lo; k < sc.hi; k++ {
					e := scans.Exes[k]
					listed[e] = true
					vectors++
					var want []sim.ProcScore
					for pi, c := range exes[e].SimAll(sc.q) {
						if c > 0 {
							want = append(want, sim.ProcScore{Proc: int32(pi), Score: int32(c)})
						}
					}
					if got := scans.Vecs[scans.Off[k]:scans.Off[k+1]]; !slices.Equal(got, want) {
						t.Fatalf("seed %d %s query %d exe %d: scan vector %v, SimAll positives %v", seed, name, qi, e, got, want)
					}
				}
				// Listed iff in scope and above the floors.
				for e := range exes {
					best := slices.Max(append(exes[e].SimAll(sc.q), 0))
					above := best >= sc.minScore && (sc.ratio == 0 || len(sc.q.IDs) == 0 ||
						float64(best)/float64(len(sc.q.IDs)) >= sc.ratio)
					want := above && (sc.inScope == nil || sc.inScope[e])
					if best > 0 && !above {
						below++
					}
					if listed[e] != want {
						t.Fatalf("seed %d %s query %d exe %d (best %d): listed=%v, want %v", seed, name, qi, e, best, listed[e], want)
					}
				}
			}
		}
	}
	if vectors < 100 || below < 100 {
		t.Fatalf("vacuous: %d vectors checked, %d executables sharing strands but below the floors", vectors, below)
	}
	// An incompatible query appends nothing.
	it, x := randCorpus(rand.New(rand.NewSource(1)), 4)
	built, _ := frozenOf(t, it.Freeze(), x)
	var scans Scans
	if built.Scan(set(1, 2, 3).Interned(NewInterner()), 1, 0, nil, &scans) || len(scans.Exes)+len(scans.Off)+len(scans.Vecs) != 0 {
		t.Fatalf("foreign-session query was scanned: %+v", scans)
	}
}
