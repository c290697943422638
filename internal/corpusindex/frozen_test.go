package corpusindex

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"firmup/internal/cfg"
	"firmup/internal/corpus"
	_ "firmup/internal/isa/arm"
	_ "firmup/internal/isa/mips"
	_ "firmup/internal/isa/ppc"
	_ "firmup/internal/isa/x86"
	"firmup/internal/obj"
	"firmup/internal/sim"
	"firmup/internal/strand"
	"firmup/internal/telemetry"
)

// vocabBytes encodes hashes as a FuzzFrozenLookup input.
func vocabBytes(hashes []uint64) []byte {
	var b []byte
	for _, h := range hashes {
		b = binary.LittleEndian.AppendUint64(b, h)
	}
	return b
}

// defaultCorpusVocab returns the vocabulary of the default corpus: every
// distinct executable analysed under one session, one worker each, as
// Seal freezes it.
func defaultCorpusVocab(tb testing.TB) []uint64 {
	tb.Helper()
	c, err := corpus.Build(corpus.DefaultScale())
	if err != nil {
		tb.Fatal(err)
	}
	it := NewInterner()
	seen := map[*obj.File]bool{}
	for _, img := range c.Images {
		for _, e := range img.Exes {
			if seen[e.File] {
				continue
			}
			seen[e.File] = true
			plan, err := cfg.Plan(e.File, telemetry.Span{})
			if err != nil {
				tb.Fatal(err)
			}
			sim.BuildWith(e.Path, plan, it, &sim.BuildConfig{Workers: 1})
		}
	}
	vocab, _ := it.Sorted()
	return vocab
}

// freeze seals the interner's current vocabulary the way a shard stores
// and opens it: Sorted's hashes, handed to NewFrozen.
func freeze(tb testing.TB, it *Interner) *Frozen {
	tb.Helper()
	vocab, _ := it.Sorted()
	f, err := NewFrozen(vocab)
	if err != nil {
		tb.Fatal(err)
	}
	return f
}

// TestNewFrozenRejectsUnsorted: NewFrozen opens only a vocabulary whose
// hashes strictly increase, and FrozenFromSlabs only one given with
// itself as its sorted copy and the identity as its IDs.
func TestNewFrozenRejectsUnsorted(t *testing.T) {
	for _, hashes := range [][]uint64{{20, 10}, {10, 10}, {1, 2, 3, 2}} {
		if _, err := NewFrozen(hashes); err == nil {
			t.Errorf("NewFrozen accepted %v", hashes)
		}
	}
	vocab := []uint64{10, 20, 30}
	if _, err := FrozenFromSlabs(vocab, vocab, []uint32{0, 1, 2}); err != nil {
		t.Errorf("FrozenFromSlabs rejected a sorted vocabulary with identity IDs: %v", err)
	}
	for name, c := range map[string]struct {
		sorted []uint64
		ids    []uint32
	}{
		"short":        {vocab[:2], []uint32{0, 1}},
		"permuted-ids": {vocab, []uint32{1, 0, 2}},
		"other-hashes": {[]uint64{10, 20, 31}, []uint32{0, 1, 2}},
	} {
		if _, err := FrozenFromSlabs(vocab, c.sorted, c.ids); err == nil {
			t.Errorf("%s: FrozenFromSlabs accepted %v %v for %v", name, c.sorted, c.ids, vocab)
		}
	}
	if _, err := FrozenFromSlabs([]uint64{20, 10}, []uint64{20, 10}, []uint32{0, 1}); err == nil {
		t.Error("FrozenFromSlabs accepted an unsorted vocabulary")
	}
}

// FuzzFrozenLookup checks a frozen vocabulary — Sorted sorting a live
// interner's and ranking its IDs, and NewFrozen opening the sorted hashes
// — against a map oracle. The input is a run of 8-byte little-endian
// hashes interned first come, first served (a repeat keeps its first ID).
// Sorted's hashes must be the oracle's, ascending, and its rank of each
// live ID the position of that ID's hash; every member must resolve to
// its rank, and each member's neighbours h-1, h+1 and h with its top bit
// flipped must miss unless they are members too; every rank must map back
// to its hash.
func FuzzFrozenLookup(f *testing.F) {
	f.Add([]byte{})
	f.Add(vocabBytes([]uint64{0x9E3779B97F4A7C15}))
	f.Add(vocabBytes([]uint64{0, math.MaxUint64}))
	f.Add(vocabBytes([]uint64{math.MaxUint64, 1, 0, math.MaxUint64 - 1}))
	shared := make([]uint64, 100) // every hash in one top-16-bit bucket
	for i := range shared {
		shared[i] = 0xF00D<<48 | (uint64(i)*0x9E3779B97F4A7C15)>>16
	}
	f.Add(vocabBytes(shared))
	f.Add(vocabBytes(defaultCorpusVocab(f)))
	f.Fuzz(func(t *testing.T, data []byte) {
		it := NewInterner()
		oracle := map[uint64]uint32{}
		for ; len(data) >= 8; data = data[8:] {
			h := binary.LittleEndian.Uint64(data)
			id := it.Intern(h)
			if want, ok := oracle[h]; ok && id != want {
				t.Fatalf("hash %#x interned as %d, then as %d", h, want, id)
			}
			oracle[h] = id
		}
		sorted, rank := it.Sorted()
		want := make([]uint64, 0, len(oracle))
		for h := range oracle {
			want = append(want, h)
		}
		sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
		if !slices.Equal(sorted, want) || len(rank) != len(want) {
			t.Fatalf("Sorted gave %v ranked %v, a sort of the vocabulary %v", sorted, rank, want)
		}
		for h, id := range oracle {
			if sorted[rank[id]] != h {
				t.Fatalf("Sorted ranks ID %d of hash %#x at %d, which holds %#x", id, h, rank[id], sorted[rank[id]])
			}
		}
		fz, err := NewFrozen(sorted)
		if err != nil {
			t.Fatalf("NewFrozen rejected the sorted vocabulary: %v", err)
		}
		if fz.Size() != len(oracle) {
			t.Fatalf("size %d, oracle %d", fz.Size(), len(oracle))
		}
		if len(fz.dir) > max(2, fz.Size()) {
			t.Fatalf("%d directory offsets for %d entries", len(fz.dir), fz.Size())
		}
		for h, live := range oracle {
			if id, ok := fz.Lookup(h); !ok || id != rank[live] {
				t.Fatalf("Lookup(%#x) = %d, %v; oracle rank %d", h, id, ok, rank[live])
			}
			for _, n := range []uint64{h - 1, h + 1, h ^ 1<<63} {
				if _, member := oracle[n]; member {
					continue
				}
				if id, ok := fz.Lookup(n); ok {
					t.Fatalf("Lookup(%#x) = %d for a hash outside the vocabulary", n, id)
				}
			}
		}
		ids := make([]uint32, len(sorted))
		for i := range ids {
			ids[i] = uint32(i)
		}
		if got := fz.AppendHashes(nil, ids); !slices.Equal(got, sorted) {
			t.Fatalf("AppendHashes maps IDs to %v, want %v", got, sorted)
		}
	})
}

// slotIndex is the reference FrozenIndex: every procedure slot posted
// under each of its strand IDs, equal sets or not, and a scan that
// counts per slot, ranks every executable and drops the ones out of
// scope afterwards.
type slotIndex struct {
	rows, posts []uint32
	procOff     []int32
}

func newSlotIndex(bound int, procCounts []int32, sets [][]uint32) *slotIndex {
	x := &slotIndex{procOff: make([]int32, len(procCounts)+1)}
	for i, n := range procCounts {
		x.procOff[i+1] = x.procOff[i] + n
	}
	rows := make([]uint32, bound+1)
	for _, ids := range sets {
		for _, id := range ids {
			rows[id]++
		}
	}
	for id := 1; id <= bound; id++ {
		rows[id] += rows[id-1]
	}
	x.rows, x.posts = rows, make([]uint32, rows[bound])
	for slot := len(sets) - 1; slot >= 0; slot-- {
		for _, id := range sets[slot] {
			rows[id]--
			x.posts[rows[id]] = uint32(slot)
		}
	}
	return x
}

func (x *slotIndex) scan(q []uint32, minScore int, ratioFloor float64, inScope []bool) Scans {
	counts := make([]int32, x.procOff[len(x.procOff)-1])
	bound := uint32(len(x.rows) - 1)
	for _, id := range q {
		if id >= bound {
			break
		}
		for _, slot := range x.posts[x.rows[id]:x.rows[id+1]] {
			counts[slot]++
		}
	}
	var cands []candidate
	for e := range len(x.procOff) - 1 {
		c := int(slices.Max(append(counts[x.procOff[e]:x.procOff[e+1]:x.procOff[e+1]], 0)))
		if c < max(minScore, 1) || ratioFloor > 0 && len(q) > 0 && float64(c)/float64(len(q)) < ratioFloor {
			continue
		}
		cands = append(cands, candidate{Exe: e, MaxSim: c})
	}
	slices.SortStableFunc(cands, func(a, b candidate) int { return b.MaxSim - a.MaxSim })
	out := Scans{Off: []int32{0}}
	for _, c := range cands {
		if inScope != nil && !inScope[c.Exe] {
			continue
		}
		for pi, n := range counts[x.procOff[c.Exe]:x.procOff[c.Exe+1]] {
			if n > 0 {
				out.Vecs = append(out.Vecs, sim.ProcScore{Proc: int32(pi), Score: n})
			}
		}
		out.Exes = append(out.Exes, c.Exe)
		out.Off = append(out.Off, int32(len(out.Vecs)))
	}
	return out
}

// family is an index input decoded from bytes: executables' procedure
// counts, their slots' strand sets below bound, the number of shards the
// executables are split into, and queries whose IDs reach past the bound.
type family struct {
	bound   int
	counts  []int32
	sets    [][]uint32
	shards  int
	queries [][]uint32
	scope   []bool
}

// shardOf is the shard of executable e of n split into shards contiguous
// ranges, some empty when there are more shards than executables.
func shardOf(e, n, shards int) int { return e * shards / n }

// setTables is the index input of executables given by procedure counts
// and slot sets, split into shards contiguous ranges: each shard's
// distinct sets, numbered in reverse order of first appearance — so the
// index's numbering cannot lean on the shard's — and each of its slots'
// set number.
func setTables(counts []int32, sets [][]uint32, shards int) []SetTable {
	tables := make([]SetTable, shards)
	slot := 0
	for e, n := range counts {
		t := &tables[shardOf(e, len(counts), shards)]
		for range n {
			k := slices.IndexFunc(t.Sets, func(ids []uint32) bool { return slices.Equal(ids, sets[slot]) })
			if k < 0 {
				t.Sets = slices.Insert(t.Sets, 0, sets[slot])
				for i := range t.SetOf {
					t.SetOf[i]++
				}
				k = 0
			}
			t.SetOf = append(t.SetOf, uint32(k))
			slot++
		}
	}
	return tables
}

// Decoding draws set elements below familyBound and query IDs below
// familyQueryIDs, so a query can hold IDs the index has no row for.
const familyBound, familyQueryIDs = 24, 32

// decodeFamily reads a family from data, zero past its end: one to three
// shards, one to eight executables of zero to four procedures each split
// among them; a procedure either repeats
// an earlier slot's set (op%4 == 0, then the slot) or draws op/4%8
// elements; then a byte whose bit e clear puts executable e in scope, and
// queries of up to nine IDs, each a length byte and the IDs.
func decodeFamily(data []byte) family {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	ids := func(n, below int) []uint32 {
		var s []uint32
		for range n {
			if id := uint32(next() % below); !slices.Contains(s, id) {
				s = append(s, id)
			}
		}
		slices.Sort(s)
		return s
	}
	f := family{bound: familyBound, shards: 1 + next()%3}
	f.counts = make([]int32, 1+next()%8)
	for e := range f.counts {
		f.counts[e] = int32(next() % 5)
		for range f.counts[e] {
			if op := next(); op%4 == 0 && len(f.sets) > 0 {
				f.sets = append(f.sets, f.sets[next()%len(f.sets)])
			} else {
				f.sets = append(f.sets, ids(op/4%8, familyBound))
			}
		}
	}
	f.scope = make([]bool, len(f.counts))
	mask := next()
	for e := range f.scope {
		f.scope[e] = mask>>e&1 == 0
	}
	for len(data) > 0 {
		f.queries = append(f.queries, ids(next()%10, familyQueryIDs))
	}
	return f
}

// checkFamily builds the index over f's set tables and the slot
// reference over its slots, and
// requires identical Scans for every query, floor and scope, and
// postings exactly as long as the distinct sets are.
func checkFamily(t *testing.T, f family) {
	t.Helper()
	x := NewFrozenIndex(f.bound, f.counts, setTables(f.counts, f.sets, f.shards))
	ref := newSlotIndex(f.bound, f.counts, f.sets)
	distinct, posted := map[string]bool{}, 0
	for _, s := range f.sets {
		if key := fmt.Sprint(s); !distinct[key] {
			distinct[key] = true
			posted += len(s)
		}
	}
	if x.nsets != len(distinct) || len(x.posts) != posted {
		t.Fatalf("%d sets and %d postings for %d distinct sets of %d strands in all", x.nsets, len(x.posts), len(distinct), posted)
	}
	for qi, q := range f.queries {
		for minScore := range 4 {
			for _, ratio := range []float64{0, 0.25, 0.5} {
				for _, scope := range [][]bool{nil, f.scope} {
					var got Scans
					x.Scan(strand.Set{IDs: q}, minScore, ratio, scope, &got)
					want := ref.scan(q, minScore, ratio, scope)
					if !slices.Equal(got.Exes, want.Exes) || !slices.Equal(got.Off, want.Off) || !slices.Equal(got.Vecs, want.Vecs) {
						t.Fatalf("query %d %v, minScore %d, ratio %v, scope %v over %v by %v:\nscan %+v\nslot reference %+v", qi, q, minScore, ratio, scope, f.sets, f.counts, got, want)
					}
				}
			}
		}
	}
}

// TestFrozenIndexMatchesSlotReference: posting each distinct set once,
// from per-shard set tables, changes no scan. The families are random and
// must include the same set in several executables and in several shards,
// a set repeated inside one executable, empty sets and query IDs at or
// above the bound.
func TestFrozenIndexMatchesSlotReference(t *testing.T) {
	across, shards, within, empty, above := 0, 0, 0, 0, 0
	rng := rand.New(rand.NewSource(7))
	for range 300 {
		data := make([]byte, 40+rng.Intn(80))
		rng.Read(data)
		f := decodeFamily(data)
		checkFamily(t, f)
		first := map[string]int{} // set -> executable of its first slot
		slot := 0
		for e, n := range f.counts {
			for range n {
				key := fmt.Sprint(f.sets[slot])
				if len(f.sets[slot]) == 0 {
					empty++
				}
				if fe, ok := first[key]; !ok {
					first[key] = e
				} else if fe == e {
					within++
				} else {
					across++
					if shardOf(fe, len(f.counts), f.shards) != shardOf(e, len(f.counts), f.shards) {
						shards++
					}
				}
				slot++
			}
		}
		for _, q := range f.queries {
			if len(q) > 0 && q[len(q)-1] >= familyBound {
				above++
			}
		}
	}
	if across < 50 || shards < 50 || within < 50 || empty < 50 || above < 50 {
		t.Fatalf("vacuous: %d sets repeated across executables, %d across shards, %d within one, %d empty sets, %d queries with IDs at or above the bound", across, shards, within, empty, above)
	}
}

// FuzzFrozenIndex is TestFrozenIndexMatchesSlotReference over fuzzed
// families (decodeFamily).
func FuzzFrozenIndex(f *testing.F) {
	f.Add([]byte{})
	// One shard of one executable holding {1,2} twice and an empty set;
	// the query {1,2,30} reaches past the bound.
	f.Add([]byte{0, 0, 3, 9, 1, 2, 0, 0, 1, 0, 3, 1, 2, 30})
	// Four executables in three shards: the first, third and fourth, one
	// in each shard, share {4,5}; the second holds no procedures; the
	// third is out of scope.
	f.Add([]byte{2, 3, 1, 9, 4, 5, 0, 2, 0, 0, 5, 7, 1, 0, 0, 4, 3, 4, 5, 26, 2, 7, 31})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFamily(t, decodeFamily(data))
	})
}

// TestScanObservesPostingsWalked: index.postings records, per scan, the
// length of every row the query's IDs below the bound select — the
// distinct sets holding each of those strands.
func TestScanObservesPostingsWalked(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	walked := 0
	for range 50 {
		data := make([]byte, 60)
		rng.Read(data)
		f := decodeFamily(data)
		x := NewFrozenIndex(f.bound, f.counts, setTables(f.counts, f.sets, f.shards))
		holding := map[uint32]map[string]bool{} // strand -> distinct sets holding it
		for _, s := range f.sets {
			for _, id := range s {
				if holding[id] == nil {
					holding[id] = map[string]bool{}
				}
				holding[id][fmt.Sprint(s)] = true
			}
		}
		for _, q := range f.queries {
			want := 0
			for _, id := range q {
				want += len(holding[id])
			}
			reg := telemetry.New()
			var sc Scans
			sc.Reset(telemetry.Root(reg, nil))
			x.Scan(strand.Set{IDs: q}, 0, 0, nil, &sc)
			h := reg.Histogram("index.postings")
			if h.Count() != 1 || h.Sum() != int64(want) {
				t.Fatalf("query %v over %v: index.postings holds %d observations summing to %d, want one of %d", q, f.sets, h.Count(), h.Sum(), want)
			}
			walked += want
		}
	}
	if walked == 0 {
		t.Fatal("vacuous: no scan walked a posting")
	}
}
