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
		checkIndex(t, c.name, FromProcsSession("T", c.procs, it))
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
			e := FromProcsSession("T", randomProcs(rng, it, 25, 80, 1<<uint(4+seed%12)), it)
			ids, start, posts := referenceIndex(e.Procs)
			if !slices.Equal(e.ids, ids) || !slices.Equal(e.start, start) || !slices.Equal(e.procs, posts) {
				t.Errorf("seed %d: counting CSR differs from the reference", seed)
			}
		}(int64(w))
	}
	wg.Wait()
}

// vocabInterner is a frozen vocabulary: dense ID i stands for hash
// vocab[i]. Interning an unknown hash is a test bug.
type vocabInterner struct{ vocab []uint64 }

func (v *vocabInterner) Intern(h uint64) uint32 { return uint32(slices.Index(v.vocab, h)) }
func (v *vocabInterner) Vocab() []uint64        { return v.vocab }

// TestHashesOnDemand builds one executable twice under a vocabulary — with
// hashes, as extraction leaves it, and from IDs alone, as a shard does —
// and checks that everything that reads hashes answers the same: Hashes,
// Size, and Sim and SimAll for a query from a foreign session.
func TestHashesOnDemand(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	voc := &vocabInterner{}
	for len(voc.vocab) < 500 {
		if h := rng.Uint64(); !slices.Contains(voc.vocab, h) {
			voc.vocab = append(voc.vocab, h)
		}
	}
	var full, bare []*Proc
	for _, p := range randomProcs(rng, voc, 30, 40, uint32(len(voc.vocab))) {
		hashes := make([]uint64, 0, len(p.Set.IDs))
		for _, id := range p.Set.IDs {
			hashes = append(hashes, voc.vocab[id])
		}
		slices.Sort(hashes)
		full = append(full, &Proc{Set: strand.Set{Hashes: hashes, IDs: p.Set.IDs, It: voc}})
		bare = append(bare, p)
	}
	live, stored := FromProcsSession("T", full, voc), FromProcsSession("T", bare, voc)

	// The foreign query: the strands of the first procedure that has any,
	// and some unknown ones, interned under another session.
	other := newTestInterner()
	src := slices.IndexFunc(full, func(p *Proc) bool { return len(p.Set.IDs) > 0 })
	qh := append([]uint64{1, 2, 3}, live.Hashes(src)...)
	slices.Sort(qh)
	foreign := strand.Set{Hashes: qh}.Interned(other)

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range stored.Procs {
				if got, want := stored.Hashes(i), live.Hashes(i); !slices.Equal(got, want) {
					t.Errorf("Hashes(%d) = %v, want %v", i, got, want)
				}
			}
		}()
	}
	wg.Wait()
	for i := range stored.Procs {
		if stored.Procs[i].Set.Hashes != nil {
			t.Fatalf("Hashes wrote into the shared set of procedure %d", i)
		}
		if got, want := stored.Procs[i].Set.Size(), len(live.Procs[i].Set.Hashes); got != want {
			t.Errorf("Size(%d) = %d, want %d", i, got, want)
		}
		if got, want := stored.Sim(foreign, i), live.Sim(foreign, i); got != want {
			t.Errorf("Sim(foreign, %d) = %d, want %d", i, got, want)
		}
		// The reverse direction a game asks: the stored procedure's set
		// against a foreign executable.
		q := FromProcsSession("Q", []*Proc{{Set: foreign}}, other)
		if got, want := q.SimAll(stored.Procs[i].Set), q.SimAll(live.Procs[i].Set); !slices.Equal(got, want) {
			t.Errorf("foreign SimAll(procedure %d) = %v, want %v", i, got, want)
		}
		if got, want := q.Sim(stored.Procs[i].Set, 0), q.Sim(live.Procs[i].Set, 0); got != want {
			t.Errorf("foreign Sim(procedure %d) = %d, want %d", i, got, want)
		}
	}
	if got, want := stored.SimAll(foreign), live.SimAll(foreign); !slices.Equal(got, want) || got[src] == 0 {
		t.Errorf("SimAll(foreign) = %v, want %v with a positive entry %d", got, want, src)
	}
}
