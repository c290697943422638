package sim

import (
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"firmup/internal/strand"
)

// referenceIndex is the comparison-sort CSR builder the counting build replaced,
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

// checkIndex compares c, the index built from procs, with the reference,
// and checks its directory: at most one bucket per distinct ID (and one
// bucket when there are none), and every row in its ID's bucket.
func checkIndex(t *testing.T, name string, procs []*Proc, c *csr) {
	t.Helper()
	ids, start, posts := referenceIndex(procs)
	if !slices.Equal(c.ids, ids) || !slices.Equal(c.start, start) || !slices.Equal(c.procs, posts) {
		t.Fatalf("%s: counting CSR differs from the sort-based reference:\nids   %v\nwant  %v\nstart %v\nwant  %v\nprocs %v\nwant  %v",
			name, c.ids, ids, c.start, start, c.procs, posts)
	}
	if len(c.dir)-1 > max(1, len(ids)) {
		t.Fatalf("%s: %d directory buckets for %d IDs", name, len(c.dir)-1, len(ids))
	}
	for r, id := range c.ids {
		if j := int(id >> c.shift); j >= len(c.dir)-1 || int(c.dir[j]) > r || r >= int(c.dir[j+1]) {
			t.Fatalf("%s: row %d (ID %d) lies outside its directory bucket", name, r, id)
		}
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
		e := FromProcs("T", c.procs, it)
		checkIndex(t, c.name, e.Procs, e.index.get(e.Procs))
	}

	// One scratch through builds whose largest ID shrinks, then grows past
	// what the scratch holds: each build must leave it all zero, or the
	// next one counts from stale cells.
	sc := new(csrScratch)
	for _, bound := range []uint32{5000, 40, 7, 300, 100_000, 64, 1} {
		procs := randomProcs(rng, it, 30, 50, bound)
		checkIndex(t, "reused scratch", procs, sc.build(procs))
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
			c := e.index.get(e.Procs)
			if !slices.Equal(c.ids, ids) || !slices.Equal(c.start, start) || !slices.Equal(c.procs, posts) {
				t.Errorf("seed %d: counting CSR differs from the reference", seed)
			}
		}(int64(w))
	}
	wg.Wait()
}

// bruteSims counts Sim(q, p) for every procedure by set intersection,
// with no index.
func bruteSims(procs []*Proc, q strand.Set) []int {
	want := make([]int, len(procs))
	for pi, p := range procs {
		want[pi] = q.Intersect(p.Set)
	}
	return want
}

// An executable's index is built on its first similarity query, once,
// whoever asks: neither BuildWith nor FromProcs builds it, 64 goroutines
// racing the first SimAll (run under -race) all read one build equal to
// the reference. An executable assembled by FromProcs from the same
// procedures, their sets already bound to its interner — as a sealed
// corpus materializes one from the IDs its shard stores — keeps their IDs
// and builds an index of its own.
func TestIndexBuiltOnFirstQuery(t *testing.T) {
	it := newTestInterner()
	if built := BuildWith("T", recoverFixture(t), it, nil); len(built.Procs) == 0 || built.index.built.Load() != nil {
		t.Fatalf("BuildWith built %d procedures and the index", len(built.Procs))
	}
	rng := rand.New(rand.NewSource(45))
	e := FromProcs("T", randomProcs(rng, it, 40, 80, 1<<10), it)
	if e.index.built.Load() != nil {
		t.Fatal("FromProcs built the index")
	}
	queries := randomProcs(rng, it, 64, 120, 1<<10)
	var wg sync.WaitGroup
	for _, qp := range queries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got, want := e.SimAll(qp.Set), bruteSims(e.Procs, qp.Set); !slices.Equal(got, want) {
				t.Errorf("SimAll = %v, want %v", got, want)
			}
		}()
	}
	wg.Wait()
	built := e.index.built.Load()
	if built == nil {
		t.Fatal("no index published after the first queries")
	}
	checkIndex(t, "raced first query", e.Procs, built)

	fresh := FromProcs("T", randomProcs(rng, it, 20, 60, 1<<8), it)
	q := queries[0].Set
	if got, want := fresh.SimAll(q), bruteSims(fresh.Procs, q); !slices.Equal(got, want) {
		t.Errorf("SimAll = %v, want %v", got, want)
	}
	c := fresh.index.built.Load()
	if c == nil {
		t.Fatal("a query did not build the index")
	}

	procs := make([]*Proc, len(fresh.Procs))
	for i, p := range fresh.Procs {
		cp := *p
		procs[i] = &cp
	}
	sealed := FromProcs("", procs, it)
	for i, p := range sealed.Procs {
		if len(p.Set.IDs) > 0 && &p.Set.IDs[0] != &fresh.Procs[i].Set.IDs[0] {
			t.Fatalf("procedure %d: FromProcs re-interned a set already bound to its interner", i)
		}
	}
	if sealed.index.built.Load() != nil {
		t.Fatal("FromProcs over bound sets built the index")
	}
	if got, want := sealed.SimAll(q), bruteSims(fresh.Procs, q); !slices.Equal(got, want) {
		t.Errorf("executable over bound sets: SimAll = %v, want %v", got, want)
	}
	if own := sealed.index.built.Load(); own == nil || own == c || fresh.index.built.Load() != c {
		t.Error("the executable over bound sets did not build an index of its own")
	}
	checkIndex(t, "over bound sets", sealed.Procs, sealed.index.built.Load())
}

// A build that panics publishes nothing, so the next query builds again
// and panics again rather than reading an empty index and scoring zero;
// once the set reads cleanly, a query builds and answers. The set's IDs
// are out of order, so the counting build indexes past the scratch its
// last ID sized.
func TestIndexBuildPanicPublishesNothing(t *testing.T) {
	it := newTestInterner()
	bad := &Proc{Set: strand.Set{IDs: []uint32{100_000, 5}, It: it}}
	e := FromProcs("T", []*Proc{{Set: strand.Set{IDs: []uint32{1, 2}, It: it}}, bad}, it)
	q := strand.Set{IDs: []uint32{1, 2, 5}, It: it}
	for try := range 2 {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("query %d: the build did not panic", try)
				}
			}()
			counts := e.SimAll(q)
			t.Errorf("query %d returned %v", try, counts)
		}()
		if e.index.built.Load() != nil {
			t.Fatalf("query %d: a panicking build published an index", try)
		}
	}
	bad.Set.IDs = []uint32{5, 100_000}
	if got := e.SimAll(q); !slices.Equal(got, []int{2, 1}) {
		t.Errorf("after the set reads cleanly, SimAll = %v, want [2 1]", got)
	}
}
