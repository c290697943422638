package corpusindex

import (
	"encoding/binary"
	"math"
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
// and opens it: Sorted's order, handed to FrozenFromSlabs.
func freeze(tb testing.TB, it *Interner) *Frozen {
	tb.Helper()
	vocab, order := it.Sorted()
	sortedHashes := make([]uint64, len(order))
	for i, id := range order {
		sortedHashes[i] = vocab[id]
	}
	f, err := FrozenFromSlabs(vocab, sortedHashes, order)
	if err != nil {
		tb.Fatal(err)
	}
	return f
}

// FuzzFrozenLookup checks a frozen vocabulary — Sorted ordering a live
// interner's, and FrozenFromSlabs opening the slabs sorted that way —
// against a map oracle. The
// input is a run of 8-byte little-endian hashes interned first come,
// first served (a repeat keeps its first ID). Every member must resolve
// to its ID, and each member's neighbours h-1, h+1 and h with its top bit
// flipped must miss unless they are members too; Sorted's order must be
// the one a plain sort by hash gives, and every ID must map back to its
// hash.
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
		vocab, sorted := it.Sorted()
		order := make([]uint32, len(vocab))
		for i := range order {
			order[i] = uint32(i)
		}
		sort.Slice(order, func(a, b int) bool { return vocab[order[a]] < vocab[order[b]] })
		if !slices.Equal(sorted, order) {
			t.Fatalf("Sorted ordered the vocabulary as %v, a sort by hash as %v", sorted, order)
		}
		sortedHashes := make([]uint64, len(order))
		for i, id := range order {
			sortedHashes[i] = vocab[id]
		}
		fz, err := FrozenFromSlabs(vocab, sortedHashes, order)
		if err != nil {
			t.Fatalf("FrozenFromSlabs rejected the sorted vocabulary: %v", err)
		}
		if fz.Size() != len(oracle) {
			t.Fatalf("size %d, oracle %d", fz.Size(), len(oracle))
		}
		if len(fz.dir) > max(2, fz.Size()) {
			t.Fatalf("%d directory offsets for %d entries", len(fz.dir), fz.Size())
		}
		for h, want := range oracle {
			if id, ok := fz.Lookup(h); !ok || id != want {
				t.Fatalf("Lookup(%#x) = %d, %v; oracle %d", h, id, ok, want)
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
		if got := fz.AppendHashes(nil, order); !slices.Equal(got, sortedHashes) {
			t.Fatalf("AppendHashes maps IDs to %v, want %v", got, sortedHashes)
		}
	})
}
