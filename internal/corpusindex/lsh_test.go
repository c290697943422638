package corpusindex

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"firmup/internal/sim"
	"firmup/internal/strand"
)

// randCorpus builds a randomized session corpus: nexes executables with
// 1–4 procedures each, drawing strand hashes from a small universe so
// queries overlap targets at varied similarities.
func randCorpus(rng *rand.Rand, nexes int) (*Interner, *Index, []*sim.Exe) {
	it := NewInterner()
	x := NewIndex(it)
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
		exe := sim.FromProcsSession(fmt.Sprintf("exe%d", e), procs, it)
		exes = append(exes, exe)
		x.Add(exe)
	}
	return it, x, exes
}

// frozenOf seals a live test index under the frozen vocabulary f: the
// dense frozen index over the rebound executables.
func frozenOf(t *testing.T, f *Frozen, x *Index) *FrozenIndex {
	t.Helper()
	rebound := make([]*sim.Exe, len(x.exes))
	for i, e := range x.exes {
		rebound[i] = e.Rebound(f)
	}
	fx, err := NewFrozenIndex(f, rebound, x.Rows())
	if err != nil {
		t.Fatal(err)
	}
	return fx
}

// isSubsequence reports whether sub appears in full in order.
func isSubsequence(sub, full []int) bool {
	i := 0
	for _, v := range full {
		if i < len(sub) && sub[i] == v {
			i++
		}
	}
	return i == len(sub)
}

// TestLSHExactSetEquivalence is the index-layer soundness test of the
// two tiers, across randomized corpora, queries and floors. Exact: the
// frozen index under an overlay interner ranks exactly as the live one,
// and no number of exact queries builds a bucket structure. Approximate:
// the gated list is a subsequence of the exact ranking, and a frozen
// index deriving its signatures agrees with one that has the persisted
// slab attached.
func TestLSHExactSetEquivalence(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		it, x, _ := randCorpus(rng, 2+rng.Intn(10))
		f := it.Freeze()
		fx, fxSlab := frozenOf(t, f, x), frozenOf(t, f, x)
		if err := fxSlab.SetSignatures(deriveSigs(x.exes, nil, int(x.procOff[len(x.exes)]))); err != nil {
			t.Fatal(err)
		}
		type query struct {
			live, frozen strand.Set
			minScore     int
			ratio        float64
			exact        []int
		}
		var queries []query
		for qi := 0; qi < 10; qi++ {
			n := rng.Intn(10)
			var hashes []uint64
			for len(hashes) < n {
				h := uint64(1 + rng.Intn(60))
				if !slices.Contains(hashes, h) {
					hashes = append(hashes, h)
				}
			}
			q := query{minScore: 1 + rng.Intn(3), ratio: float64(rng.Intn(3)) * 0.2}
			q.live = set(hashes...).Interned(it)
			q.frozen = strand.Set{Hashes: q.live.Hashes}.Interned(NewQueryInterner(f))
			var ok1, ok2 bool
			q.exact, ok1 = x.CandidateIndices(q.live, q.minScore, q.ratio, nil)
			fexact, ok2 := fx.CandidateIndices(q.frozen, q.minScore, q.ratio, nil)
			if !ok1 || !ok2 {
				t.Fatalf("seed %d query %d: compatible query rejected (%v, %v)", seed, qi, ok1, ok2)
			}
			if !slices.Equal(fexact, q.exact) {
				t.Fatalf("seed %d query %d: frozen ranking %v != live %v", seed, qi, fexact, q.exact)
			}
			queries = append(queries, q)
		}
		if x.lsh != nil || fx.lsh != nil {
			t.Fatalf("seed %d: exact queries built the LSH buckets", seed)
		}
		for qi, q := range queries {
			approx, ok := x.CandidateIndicesLSH(q.live, strand.MinHash(q.live.IDs), q.minScore, q.ratio, nil)
			if !ok {
				t.Fatalf("seed %d query %d: compatible approx query rejected", seed, qi)
			}
			if !isSubsequence(approx, q.exact) {
				t.Fatalf("seed %d query %d: live approx %v is not a subsequence of exact %v", seed, qi, approx, q.exact)
			}
			// Strands the corpus never saw get different IDs under the
			// overlay than under the live interner, so the frozen gate is
			// compared with itself across the two signature sources.
			fsig := strand.MinHash(q.frozen.IDs)
			derived, _ := fx.CandidateIndicesLSH(q.frozen, fsig, q.minScore, q.ratio, nil)
			attached, _ := fxSlab.CandidateIndicesLSH(q.frozen, fsig, q.minScore, q.ratio, nil)
			if !isSubsequence(derived, q.exact) {
				t.Fatalf("seed %d query %d: frozen approx %v is not a subsequence of exact %v", seed, qi, derived, q.exact)
			}
			if !slices.Equal(derived, attached) {
				t.Fatalf("seed %d query %d: derived-signature approx %v != attached-slab approx %v", seed, qi, derived, attached)
			}
		}
		if x.lsh == nil || fx.lsh == nil {
			t.Fatalf("seed %d: approximate queries left the LSH buckets unbuilt", seed)
		}
	}
}

// TestLSHApproxProperties pins the approximate mode's guarantees: an
// executable containing the query set verbatim always survives the
// bounding (identical sets collide in every band), un-interned
// executables are always candidates, and repeat probes are
// deterministic.
func TestLSHApproxProperties(t *testing.T) {
	it := NewInterner()
	x := NewIndex(it)
	target := sim.FromProcsSession("target", []*sim.Proc{
		{Name: "hit", Set: set(1, 2, 3, 4, 5, 6, 7, 8)},
	}, it)
	x.Add(target)
	x.Add(sim.FromProcsSession("other", []*sim.Proc{
		{Name: "miss", Set: set(40, 41, 42)},
	}, it))
	foreign := sim.FromProcs("foreign", []*sim.Proc{{Name: "f0", Set: set(1, 2, 3)}})
	fi := x.Add(foreign)

	q := set(1, 2, 3, 4, 5, 6, 7, 8).Interned(it)
	cands, ok := x.CandidateIndicesLSH(q, strand.MinHash(q.IDs), 1, 0, nil)
	if !ok {
		t.Fatal("same-session query must be filterable")
	}
	if !slices.Contains(cands, 0) {
		t.Errorf("approx candidates %v miss the verbatim-identical executable", cands)
	}
	if !slices.Contains(cands, fi) {
		t.Errorf("approx candidates %v miss the un-interned executable", cands)
	}
	again, _ := x.CandidateIndicesLSH(q, strand.MinHash(q.IDs), 1, 0, nil)
	if !slices.Equal(again, cands) {
		t.Errorf("approx candidates not deterministic: %v vs %v", again, cands)
	}

	// An empty query signature probes nothing: only the un-interned
	// executable remains.
	empty := strand.Set{It: it}
	ecands, ok := x.CandidateIndicesLSH(empty, strand.MinHash(nil), 1, 0, nil)
	if !ok {
		t.Fatal("empty same-session query must be filterable")
	}
	if !slices.Equal(ecands, []int{fi}) {
		t.Errorf("empty-query approx candidates = %v, want just the un-interned %d", ecands, fi)
	}
}

// TestLSHFrozenFallback pins that a frozen index without signature data
// (foreign CSR slabs, no corpus-sigs section) serves approximate queries
// through the exact prefilter.
func TestLSHFrozenFallback(t *testing.T) {
	it, x, _ := randCorpus(rand.New(rand.NewSource(7)), 5)
	f := it.Freeze()
	rows := x.Rows()
	var rowIDs, rowEnds []uint32
	var posts []Posting
	for _, r := range rows {
		rowIDs = append(rowIDs, r.ID)
		posts = append(posts, r.Posts...)
		rowEnds = append(rowEnds, uint32(len(posts)))
	}
	procCounts := make([]int32, len(x.exes))
	for i, e := range x.exes {
		procCounts[i] = int32(len(e.Procs))
	}
	fx, err := NewFrozenIndexForeign(f, procCounts, rowIDs, rowEnds, posts)
	if err != nil {
		t.Fatal(err)
	}
	q := set(1, 2, 3).Interned(NewQueryInterner(f))
	plain, _ := fx.CandidateIndices(q, 1, 0, nil)
	got, ok := fx.CandidateIndicesLSH(q, strand.MinHash(q.IDs), 1, 0, nil)
	if !ok {
		t.Fatal("compatible query rejected")
	}
	if !slices.Equal(got, plain) {
		t.Errorf("fallback ranking %v != exact %v", got, plain)
	}
	if fx.lsh != nil {
		t.Error("foreign index without a slab built LSH buckets")
	}
}

// TestSetSignaturesValidation pins the slab length check.
func TestSetSignaturesValidation(t *testing.T) {
	it, x, _ := randCorpus(rand.New(rand.NewSource(3)), 3)
	fx := frozenOf(t, it.Freeze(), x)
	if err := fx.SetSignatures(make([]uint32, 7)); err == nil {
		t.Error("truncated signature slab accepted")
	}
	if err := fx.SetSignatures(deriveSigs(x.exes, nil, int(x.procOff[len(x.exes)]))); err != nil {
		t.Errorf("well-formed slab rejected: %v", err)
	}
}

// TestDeriveSigs pins the derived slab's layout: each executable's own
// signature block in dense-slot order, sentinel blocks for un-interned
// executables.
func TestDeriveSigs(t *testing.T) {
	it := NewInterner()
	x := NewIndex(it)
	e1 := sim.FromProcsSession("a", []*sim.Proc{{Name: "a0", Set: set(1, 2, 3)}}, it)
	x.Add(e1)
	foreign := sim.FromProcs("f", []*sim.Proc{{Name: "f0", Set: set(1, 2)}})
	x.Add(foreign)
	sigs := deriveSigs(x.exes, x.liveExtra(), int(x.procOff[len(x.exes)]))
	if want := 2 * strand.SigWords; len(sigs) != want {
		t.Fatalf("slab holds %d words, want %d", len(sigs), want)
	}
	if !slices.Equal(sigs[:strand.SigWords], e1.Signatures()) {
		t.Error("first block diverges from the executable's own signature")
	}
	if !strand.SigEmpty(sigs[strand.SigWords:]) {
		t.Error("un-interned executable's block is not the sentinel")
	}
}
