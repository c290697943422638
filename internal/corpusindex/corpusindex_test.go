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

// buildCorpus returns a small corpus built under one session plus the
// index over it, keyed by the live interner.
func buildCorpus(t *testing.T) (*Interner, *FrozenIndex, []*sim.Exe) {
	t.Helper()
	it := NewInterner()
	exes := []*sim.Exe{
		sim.FromProcs("a", []*sim.Proc{
			{Name: "a0", Set: set(1, 2, 3, 4, 5)},
			{Name: "a1", Set: set(4, 5, 6)},
		}, it),
		sim.FromProcs("b", []*sim.Proc{
			{Name: "b0", Set: set(1, 2)},
		}, it),
		sim.FromProcs("c", []*sim.Proc{
			{Name: "c0", Set: set(100, 101)},
		}, it),
	}
	return it, indexOf(it.Size(), exes), exes
}

// ranked is one scanned candidate: the executable and the largest score
// of its similarity vector.
type ranked struct{ Exe, MaxSim int }

// candidates runs one unscoped Scan and reads the ranking back out of it.
func candidates(x *FrozenIndex, q strand.Set, minScore int, ratioFloor float64) []ranked {
	var sc Scans
	x.Scan(q, minScore, ratioFloor, nil, &sc)
	out := []ranked{}
	for k, e := range sc.Exes {
		r := ranked{Exe: e}
		for _, v := range sc.Vecs[sc.Off[k]:sc.Off[k+1]] {
			r.MaxSim = max(r.MaxSim, int(v.Score))
		}
		out = append(out, r)
	}
	return out
}

// The TestCandidates* tests pin what a search narrows by, asked through
// Scan: the index's ranking (here against brute force), its floors and
// the tie order among equal scores.
func TestCandidatesMatchBruteForce(t *testing.T) {
	it, x, exes := buildCorpus(t)
	q := set(1, 2, 3, 9).Interned(it)

	cands := candidates(x, q, 1, 0)
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
	cands := candidates(x, q, 3, 0)
	if len(cands) != 1 || cands[0].Exe != 0 || cands[0].MaxSim != 3 {
		t.Errorf("minScore=3 candidates = %+v; want just exe 0 at MaxSim 3", cands)
	}
	// ratio floor 0.9 with |q|=4: even 3/4 shared fails.
	cands = candidates(x, q, 1, 0.9)
	if len(cands) != 0 {
		t.Errorf("ratioFloor=0.9 candidates = %+v, want none", cands)
	}
}

// Repeated queries through the pooled scratch must be self-consistent:
// identical inputs give identical rankings, interleaved with different
// queries; and an index rebuilt over one more executable ranks the
// newcomer by the same rule, ahead of an equal score with a higher ID.
func TestCandidatesScratchReuse(t *testing.T) {
	it, x, exes := buildCorpus(t)
	qa := set(1, 2, 3, 9).Interned(it)
	qb := set(4, 5, 6).Interned(it)
	first := candidates(x, qa, 1, 0)
	for i := 0; i < 20; i++ {
		candidates(x, qb, 1, 0)
		again := candidates(x, qa, 1, 0)
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("iter %d: ranking drifted across scratch reuse:\nfirst: %+v\nagain: %+v", i, first, again)
		}
	}
	// The same executables plus a full match and a tie with exe 0: the
	// previous ones keep their scores, the full match ranks first and the
	// tie after the lower ID.
	exes = append(exes,
		sim.FromProcs("d", []*sim.Proc{{Name: "d0", Set: set(1, 2, 3, 9)}}, it),
		sim.FromProcs("e", []*sim.Proc{{Name: "e0", Set: set(1, 2, 3)}}, it))
	grown := candidates(indexOf(it.Size(), exes), qa, 1, 0)
	want := append([]ranked{{Exe: 3, MaxSim: 4}, first[0], {Exe: 4, MaxSim: 3}}, first[1:]...)
	if first[0] != (ranked{Exe: 0, MaxSim: 3}) || !reflect.DeepEqual(grown, want) {
		t.Fatalf("rebuilt ranking = %+v, want %+v", grown, want)
	}
}

// The scratch pool must hold up under concurrent queries (the search
// workers of parallel sessions share one index).
func TestCandidatesConcurrent(t *testing.T) {
	it, x, _ := buildCorpus(t)
	qa := set(1, 2, 3, 9).Interned(it)
	want := candidates(x, qa, 1, 0)
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if got := candidates(x, qa, 1, 0); !reflect.DeepEqual(got, want) {
					errs <- "concurrent ranking diverged"
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

// randCorpus builds a randomized session corpus: nexes executables with
// 1–4 procedures each, drawing strand hashes from a small universe so
// queries overlap targets at varied similarities.
func randCorpus(rng *rand.Rand, nexes int) (*Interner, []*sim.Exe) {
	it := NewInterner()
	var exes []*sim.Exe
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
		exes = append(exes, sim.FromProcs(fmt.Sprintf("exe%d", e), procs, it))
	}
	return it, exes
}

// indexOf builds the index over exes, each procedure's set in slot order.
func indexOf(bound int, exes []*sim.Exe) *FrozenIndex {
	counts := make([]int32, len(exes))
	var sets [][]uint32
	for i, e := range exes {
		counts[i] = int32(len(e.Procs))
		for _, p := range e.Procs {
			sets = append(sets, p.Set.IDs)
		}
	}
	return NewFrozenIndex(bound, counts, setTables(counts, sets, 1))
}

// frozenOf seals a session's executables under the frozen vocabulary f:
// each assembled, as a sealed corpus materializes it, from copies of its
// procedures whose sets are renumbered by f, as Seal renumbers them, and
// the index built from their sets, whose slabs it checks are exactly
// sized.
func frozenOf(t *testing.T, f *Frozen, live []*sim.Exe) (sealed []*sim.Exe, built *FrozenIndex) {
	t.Helper()
	sealed = make([]*sim.Exe, len(live))
	for i, e := range live {
		procs := make([]*sim.Proc, len(e.Procs))
		for k, p := range e.Procs {
			cp := *p
			procs[k] = &cp
		}
		sealed[i] = sim.FromProcs(e.Path, procs, f)
	}
	built = indexOf(f.Size(), sealed)
	if len(built.rows) != f.Size()+1 || cap(built.rows) != len(built.rows) || cap(built.posts) != len(built.posts) {
		t.Fatalf("index slabs hold %d/%d entries in %d/%d for a vocabulary of %d", len(built.rows), len(built.posts), cap(built.rows), cap(built.posts), f.Size())
	}
	return sealed, built
}

// TestScanVectorsEqualSimAll: what a scan hands the game engine is what
// the engine would have accumulated itself. For every candidate, the
// scan's vector equals the positive entries of the executable's SimAll
// for the query set, in procedure order — with query IDs the index has
// never seen (overlay-private ones above a frozen vocabulary; ones a live
// interner assigned after the index was built), under a scope filter, and
// with several queries appended to one Scans — the candidates come ranked
// best score first, lower executable first among equals, and an
// executable below the floors gets no entry at all.
func TestScanVectorsEqualSimAll(t *testing.T) {
	vectors, below, late := 0, 0, 0
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		it, live := randCorpus(rng, 2+rng.Intn(10))
		f := freeze(t, it)
		sealed, built := frozenOf(t, f, live)
		bound := it.Size()
		overlay := func(s strand.Set) strand.Set { return s.Interned(NewQueryInterner(f)) }
		for _, side := range []struct {
			name   string
			fx     *FrozenIndex
			exes   []*sim.Exe
			intern func(strand.Set) strand.Set
		}{
			{"built", built, sealed, overlay},
			// The live image's index: keyed by the session interner, which
			// keeps growing under the queries analysed after the build.
			{"live", indexOf(bound, live), live, func(s strand.Set) strand.Set { return s.Interned(it) }},
		} {
			name, fx, exes := side.name, side.fx, side.exes
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
				// and get IDs at or above the index's bound.
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
				sc := scanned{
					q:        side.intern(set(hashes...)),
					lo:       len(scans.Exes),
					minScore: 1 + rng.Intn(3),
					ratio:    float64(rng.Intn(3)) * 0.2,
				}
				if n := len(sc.q.IDs); name == "live" && n > 0 && int(sc.q.IDs[n-1]) >= bound {
					late++
				}
				if qi%3 == 2 {
					sc.inScope = make([]bool, len(exes))
					for i := range sc.inScope {
						sc.inScope[i] = rng.Intn(2) == 0
					}
				}
				fx.Scan(sc.q, sc.minScore, sc.ratio, sc.inScope, &scans)
				sc.hi = len(scans.Exes)
				all = append(all, sc)
			}
			if len(scans.Off) != len(scans.Exes)+1 {
				t.Fatalf("seed %d %s: %d offsets for %d candidates", seed, name, len(scans.Off), len(scans.Exes))
			}
			// Checked after every scan has appended: earlier ranges must
			// survive later appends.
			for qi, sc := range all {
				best := make([]int, len(exes))
				for e := range exes {
					best[e] = slices.Max(append(exes[e].SimAll(sc.q), 0))
				}
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
					if p := scans.Exes[max(k-1, sc.lo)]; best[p] < best[e] || best[p] == best[e] && p > e {
						t.Fatalf("seed %d %s query %d: exe %d (best %d) ranked before exe %d (best %d)", seed, name, qi, p, best[p], e, best[e])
					}
				}
				// Listed iff in scope and above the floors.
				for e := range exes {
					above := best[e] >= sc.minScore && (sc.ratio == 0 || len(sc.q.IDs) == 0 ||
						float64(best[e])/float64(len(sc.q.IDs)) >= sc.ratio)
					want := above && (sc.inScope == nil || sc.inScope[e])
					if best[e] > 0 && !above {
						below++
					}
					if listed[e] != want {
						t.Fatalf("seed %d %s query %d exe %d (best %d): listed=%v, want %v", seed, name, qi, e, best[e], listed[e], want)
					}
				}
			}
		}
	}
	if vectors < 100 || below < 100 || late < 20 {
		t.Fatalf("vacuous: %d vectors checked, %d executables sharing strands but below the floors, %d live queries with IDs interned after the build", vectors, below, late)
	}
}

// bruteScan is Scan's reference, from SimAll alone: every executable in
// scope whose best SimAll entry clears max(minScore, 1), best first and
// lower executable first among equals, each with the positive entries of
// its SimAll.
func bruteScan(exes []*sim.Exe, q strand.Set, minScore int, inScope []bool) Scans {
	type cand struct{ e, best int }
	var cs []cand
	for e, x := range exes {
		best := slices.Max(append(x.SimAll(q), 0))
		if best >= max(minScore, 1) && (inScope == nil || inScope[e]) {
			cs = append(cs, cand{e, best})
		}
	}
	slices.SortStableFunc(cs, func(a, b cand) int { return b.best - a.best })
	want := Scans{Off: []int32{0}}
	for _, c := range cs {
		for pi, n := range exes[c.e].SimAll(q) {
			if n > 0 {
				want.Vecs = append(want.Vecs, sim.ProcScore{Proc: int32(pi), Score: int32(n)})
			}
		}
		want.Exes = append(want.Exes, c.e)
		want.Off = append(want.Off, int32(len(want.Vecs)))
	}
	return want
}

// TestScanEdgeCases pins the count-only scan to bruteScan on the inputs a
// slot count can get wrong: executables with no procedures (empty slot
// ranges) first, between and last; a query of overlay-private IDs only; an
// empty query; a nil and an all-false scope; minScore 0. One index's
// pooled scratch serves every query, the sizes taking turns, and is
// all-zero again after each.
func TestScanEdgeCases(t *testing.T) {
	it := NewInterner()
	exes := []*sim.Exe{
		sim.FromProcs("none0", nil, it),
		sim.FromProcs("a", []*sim.Proc{{Name: "a0", Set: set(1, 2, 3)}, {Name: "a1", Set: set(3, 4)}}, it),
		sim.FromProcs("none2", nil, it),
		sim.FromProcs("b", []*sim.Proc{{Name: "b0", Set: set(2, 3, 4, 5)}, {Name: "b1"}}, it),
		sim.FromProcs("none4", nil, it),
	}
	f := freeze(t, it)
	sealed, built := frozenOf(t, f, exes)
	q := func(hashes ...uint64) strand.Set { return set(hashes...).Interned(NewQueryInterner(f)) }
	cases := []struct {
		name     string
		q        strand.Set
		minScore int
		inScope  []bool
	}{
		{"every-strand", q(1, 2, 3, 4, 5), 1, nil},
		{"min-score-0", q(1, 5), 0, nil},
		{"overlay-private-only", q(1000, 1001, 1002), 0, nil},
		{"empty", q(), 0, nil},
		{"all-false-scope", q(2, 3, 4), 0, make([]bool, len(exes))},
		{"one-strand", q(3), 1, nil},
		{"above-floor", q(2, 3, 4, 1000), 3, nil},
	}
	name, x := "built", built
	listed := 0
	for round := range 3 {
		for _, c := range cases {
			var got Scans
			x.Scan(c.q, c.minScore, 0, c.inScope, &got)
			want := bruteScan(sealed, c.q, c.minScore, c.inScope)
			if !slices.Equal(got.Exes, want.Exes) || !slices.Equal(got.Off, want.Off) || !slices.Equal(got.Vecs, want.Vecs) {
				t.Fatalf("%s round %d %s: scan %+v, brute force %+v", name, round, c.name, got, want)
			}
			listed += len(got.Exes)
		}
	}
	if listed == 0 {
		t.Fatalf("%s: no query listed a candidate; the comparison is vacuous", name)
	}
	counted := 0
	for _, c := range cases {
		s, _ := x.accumulate(c.q, c.minScore, 0, c.inScope)
		nonzero := func(n int32) bool { return n != 0 }
		if slices.ContainsFunc(s.counts, nonzero) {
			counted++
		}
		putScratch(&x.scratch, s)
		if k := slices.IndexFunc(s.counts, nonzero); k >= 0 {
			t.Fatalf("%s %s: set %d keeps count %d after the scratch was returned", name, c.name, k, s.counts[k])
		}
	}
	if counted == 0 {
		t.Fatalf("%s: no query counted anything; the all-zero check is vacuous", name)
	}
}
