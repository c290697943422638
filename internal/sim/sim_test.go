package sim

import (
	"errors"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"firmup/internal/cfg"
	"firmup/internal/compiler"
	"firmup/internal/isa"
	"firmup/internal/isa/isatest"
	_ "firmup/internal/isa/mips"
	"firmup/internal/obj"
	"firmup/internal/strand"
	"firmup/internal/uir"
)

func mk(name string, hashes ...uint64) *Proc {
	s := append([]uint64(nil), hashes...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return &Proc{Name: name, Set: strand.Set{Hashes: s}}
}

// set returns the sorted hashes interned under it: a query set of the
// session every executable under test is built in.
func set(it strand.Interner, hashes ...uint64) strand.Set {
	return mk("", hashes...).Set.Interned(it)
}

func TestSimAllMatchesDirectIntersect(t *testing.T) {
	it := newTestInterner()
	e := FromProcs("T", []*Proc{
		mk("a", 1, 2, 3),
		mk("b", 3, 4),
		mk("c", 9),
	}, it)
	q := set(it, 2, 3, 4)
	counts := e.SimAll(q)
	want := []int{2, 2, 0}
	for i := range counts {
		if counts[i] != want[i] {
			t.Errorf("SimAll[%d] = %d, want %d", i, counts[i], want[i])
		}
		if got := e.Sim(q, i); got != want[i] {
			t.Errorf("Sim(%d) = %d, want %d", i, got, want[i])
		}
	}
}

// Property: the index-accelerated SimAll always equals the direct sorted
// intersection for random sets.
func TestSimAllProperty(t *testing.T) {
	f := func(qraw, araw, braw []uint8) bool {
		toSet := func(raw []uint8) strand.Set {
			seen := map[uint64]bool{}
			var out []uint64
			for _, x := range raw {
				h := uint64(x % 32)
				if !seen[h] {
					seen[h] = true
					out = append(out, h)
				}
			}
			for i := 1; i < len(out); i++ {
				for j := i; j > 0 && out[j] < out[j-1]; j-- {
					out[j], out[j-1] = out[j-1], out[j]
				}
			}
			return strand.Set{Hashes: out}
		}
		it := newTestInterner()
		q := toSet(qraw).Interned(it)
		pa := &Proc{Name: "a", Set: toSet(araw)}
		pb := &Proc{Name: "b", Set: toSet(braw)}
		e := FromProcs("T", []*Proc{pa, pb}, it)
		counts := e.SimAll(q)
		return counts[0] == q.Intersect(pa.Set) && counts[1] == q.Intersect(pb.Set)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBestMatchExclusionAndTies(t *testing.T) {
	it := newTestInterner()
	e := FromProcs("T", []*Proc{
		mk("a", 1, 2),
		mk("b", 1, 2),
		mk("c", 1),
	}, it)
	q := set(it, 1, 2)
	best, score := e.BestMatch(q, nil)
	if best != 0 || score != 2 {
		t.Errorf("tie must break to the lower index: got %d (%d)", best, score)
	}
	best, _ = e.BestMatch(q, func(i int) bool { return i == 0 })
	if best != 1 {
		t.Errorf("exclusion ignored: got %d", best)
	}
	best, _ = e.BestMatch(set(it, 77), nil)
	if best != -1 {
		t.Errorf("no shared strands must yield -1, got %d", best)
	}
}

// recoverFixture recovers isatest's program compiled for MIPS.
func recoverFixture(t *testing.T) *cfg.Recovered {
	t.Helper()
	pkg, err := compiler.CompileToMIR(isatest.Source, compiler.Profile{OptLevel: 1})
	if err != nil {
		t.Fatal(err)
	}
	be, _ := isa.ByArch(uir.ArchMIPS32)
	art, err := be.Generate(pkg, isa.Options{TextBase: 0x400000})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := cfg.Recover(obj.FromArtifact(art))
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestBuildPopulatesCallGraph(t *testing.T) {
	e := BuildWith("t", recoverFixture(t), newTestInterner(), nil)
	di := e.ProcByName("deep")
	if di < 0 {
		t.Fatal("deep missing")
	}
	d := e.Procs[di]
	if len(d.Calls) < 3 {
		t.Errorf("deep has %d callees, want >= 3", len(d.Calls))
	}
	for _, c := range d.Calls {
		found := false
		for _, cb := range e.Procs[c].CalledBy {
			if cb == di {
				found = true
			}
		}
		if !found {
			t.Errorf("callee %s lacks back edge", e.Procs[c].Name)
		}
	}
	if d.BlockCount == 0 || d.EdgeCount == 0 || d.InstCount == 0 {
		t.Errorf("shape metadata empty: %+v", d)
	}
}

func TestProcByName(t *testing.T) {
	e := FromProcs("T", []*Proc{mk("x", 1)}, newTestInterner())
	if e.ProcByName("x") != 0 || e.ProcByName("y") != -1 {
		t.Error("ProcByName lookup broken")
	}
}

// testInterner is a minimal session interner for the interned-path
// tests (the real one lives in corpusindex, which sim cannot import).
type testInterner struct {
	mu  sync.Mutex
	ids map[uint64]uint32
}

func newTestInterner() *testInterner { return &testInterner{ids: map[uint64]uint32{}} }

func (it *testInterner) Intern(h uint64) uint32 {
	it.mu.Lock()
	defer it.mu.Unlock()
	id, ok := it.ids[h]
	if !ok {
		id = uint32(len(it.ids))
		it.ids[h] = id
	}
	return id
}

// The binary-search path of simIDs triggers when the query is much
// smaller than the executable's vocabulary; pin its correctness.
func TestInternedSimAllSmallQueryLargeExe(t *testing.T) {
	it := newTestInterner()
	var big []uint64
	for h := uint64(0); h < 4096; h++ {
		big = append(big, h)
	}
	e := FromProcs("S", []*Proc{
		{Name: "big", Set: strand.Set{Hashes: big}},
		{Name: "small", Set: strand.Set{Hashes: []uint64{5, 4095}}},
	}, it)
	q := strand.Set{Hashes: []uint64{5, 1000, 4095, 9999999}}.Interned(it)
	counts := e.SimAll(q)
	if counts[0] != 3 || counts[1] != 2 {
		t.Errorf("counts = %v, want [3 2]", counts)
	}
}

// TestSimIDsMatchesHashPath pins simIDs' directory lookup against a
// brute-force count of the hashes each procedure shares with the query, on
// random executables: queries small and large against the executable
// (both sides of len(qids)*8 < len(ids), counted below), with clustered
// IDs (long directory buckets) and scattered ones, IDs below, between and
// above the executable's rows, and in both game directions (a small set
// against a large executable and the reverse).
func TestSimIDsMatchesHashPath(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	randSet := func(n, universe int) []uint64 {
		seen := map[uint64]bool{}
		base := uint64(rng.Intn(universe))
		for len(seen) < n {
			h := uint64(rng.Intn(universe))
			if rng.Intn(3) == 0 { // a cluster: consecutive rows, short gaps
				h = (base + uint64(rng.Intn(2*n+1))) % uint64(universe)
			}
			seen[h] = true
		}
		out := make([]uint64, 0, n)
		for h := range seen {
			out = append(out, h)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	small, large := 0, 0
	for trial := 0; trial < 300; trial++ {
		it := newTestInterner()
		universe := 64 + rng.Intn(4000)
		// Intern the universe in a shuffled order so dense IDs are not the
		// hashes themselves.
		for _, h := range rng.Perm(universe) {
			it.Intern(uint64(h))
		}
		var procs []*Proc
		for pi := 0; pi < 1+rng.Intn(12); pi++ {
			hs := randSet(1+rng.Intn(min(universe/2, 400)), universe)
			procs = append(procs, &Proc{Name: "p", Set: strand.Set{Hashes: hs}})
		}
		e := FromProcs("S", procs, it)
		for k := 0; k < 8; k++ {
			// Half the queries are sized around the switch point.
			n := 1 + rng.Intn(min(universe/2, 300))
			if k%2 == 0 {
				n = max(1, len(e.index.get(e.Procs).ids)/8-2+rng.Intn(5))
			}
			qh := randSet(min(n, universe/2), universe)
			q := strand.Set{Hashes: qh}.Interned(it)
			if len(q.IDs)*8 < len(e.index.get(e.Procs).ids) {
				small++
			} else {
				large++
			}
			got := e.SimAllInto(q, nil)
			want := make([]int, len(procs))
			for pi, p := range procs {
				for _, h := range p.Set.Hashes {
					if _, ok := slices.BinarySearch(qh, h); ok {
						want[pi]++
					}
				}
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d: |q|=%d |ids|=%d: counts[%d] = %d, want %d",
						trial, len(q.IDs), len(e.index.get(e.Procs).ids), i, got[i], want[i])
				}
			}
			// The reverse direction of a game: each procedure of e
			// against the one-procedure executable made of the query.
			qe := FromProcs("Q", []*Proc{{Name: "q", Set: strand.Set{Hashes: qh}}}, it)
			for pi, p := range e.Procs {
				if got, want := qe.SimAllInto(p.Set, nil)[0], want[pi]; got != want {
					t.Fatalf("trial %d: reverse Sim(proc %d) = %d, want %d", trial, pi, got, want)
				}
			}
		}
	}
	if small < 100 || large < 100 {
		t.Fatalf("lopsided coverage: %d small, %d large queries", small, large)
	}
}

func TestProcByNameFirstMatch(t *testing.T) {
	e := FromProcs("T", []*Proc{
		mk("dup", 1),
		mk("solo", 2),
		mk("dup", 3),
	}, newTestInterner())
	if i := e.ProcByName("dup"); i != 0 {
		t.Errorf("ProcByName(dup) = %d, want the first occurrence 0", i)
	}
	if i := e.ProcByName("solo"); i != 1 {
		t.Errorf("ProcByName(solo) = %d, want 1", i)
	}
	if i := e.ProcByName("absent"); i != -1 {
		t.Errorf("ProcByName(absent) = %d, want -1", i)
	}
}

// SimAllInto must equal SimAll whatever buffer it is handed: nil, dirty
// and oversized, or too small.
func TestSimAllIntoBufferReuse(t *testing.T) {
	it := newTestInterner()
	e := FromProcs("T", []*Proc{
		mk("a", 1, 2, 3),
		mk("b", 3, 4),
		mk("c", 9),
	}, it)
	q := set(it, 2, 3, 4, 9)
	want := e.SimAll(q)

	dirty := []int{7, 7, 7, 7, 7, 7}
	got := e.SimAllInto(q, dirty)
	if len(got) != len(e.Procs) {
		t.Fatalf("len = %d, want %d", len(got), len(e.Procs))
	}
	if &got[0] != &dirty[0] {
		t.Error("oversized buffer was not reused")
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("dirty-buffer counts[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	small := make([]int, 1)
	got = e.SimAllInto(q, small)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("grown-buffer counts[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if got = e.SimAllInto(q, nil); len(got) != len(want) {
		t.Errorf("nil-buffer len = %d", len(got))
	}
}

// BestMatch must equal a brute-force argmax of Sim over the procedures
// not excluded, ties toward the lower index, for any exclusion set.
func TestBestMatchFromEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(10)
		procs := make([]*Proc, n)
		for i := range procs {
			var hs []uint64
			seen := map[uint64]bool{}
			for k := 0; k < 1+rng.Intn(6); k++ {
				h := uint64(1 + rng.Intn(12))
				if !seen[h] {
					seen[h] = true
					hs = append(hs, h)
				}
			}
			procs[i] = mk("p", hs...)
		}
		it := newTestInterner()
		e := FromProcs("T", procs, it)
		var qh []uint64
		for h := uint64(1); h <= 12; h++ {
			if rng.Intn(2) == 0 {
				qh = append(qh, h)
			}
		}
		q := set(it, qh...)
		ex := map[int]bool{}
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				ex[i] = true
			}
		}
		excluded := func(i int) bool { return ex[i] }
		wb, ws := -1, 0
		for i := range e.Procs {
			if c := e.Sim(q, i); c > ws && !excluded(i) {
				wb, ws = i, c
			}
		}
		if gb, gs := e.BestMatch(q, excluded); gb != wb || gs != ws {
			t.Fatalf("trial %d: BestMatch = (%d, %d), brute-force argmax = (%d, %d)", trial, gb, gs, wb, ws)
		}
	}
}

// panicAtBarrier is an interner whose every Intern panics with
// errPanicAtBarrier, once n callers are inside one: each of a build's n
// workers then holds a procedure when it panics, so the panics are the
// workers' and not only the caller's.
type panicAtBarrier struct {
	n       int
	mu      sync.Mutex
	arrived int
	all     chan struct{}
}

var errPanicAtBarrier = errors.New("interner panicked")

func (b *panicAtBarrier) Intern(uint64) uint32 {
	b.mu.Lock()
	if b.arrived++; b.arrived == b.n {
		close(b.all)
	}
	b.mu.Unlock()
	select {
	case <-b.all:
	case <-time.After(10 * time.Second):
	}
	panic(errPanicAtBarrier)
}

// TestBuildReRaisesWorkerPanic: a panic on a build's workers — here every
// one of them, the caller's goroutine among them — reaches the caller,
// once, after the workers have stopped, instead of killing the process.
func TestBuildReRaisesWorkerPanic(t *testing.T) {
	const workers = 4
	rec := recoverFixture(t)
	if len(rec.Procs) < workers {
		t.Fatalf("the fixture has %d procedures, want at least %d", len(rec.Procs), workers)
	}
	it := &panicAtBarrier{n: workers, all: make(chan struct{})}
	got := func() (r any) {
		defer func() { r = recover() }()
		BuildWith("t", rec, it, &BuildConfig{Workers: workers})
		return nil
	}()
	if got != errPanicAtBarrier {
		t.Errorf("BuildWith raised %v, want %v", got, errPanicAtBarrier)
	}
	if it.arrived != workers {
		t.Errorf("%d of %d workers panicked", it.arrived, workers)
	}
}
