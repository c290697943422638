package snapshot

import (
	"errors"
	"math/rand"
	"testing"
)

// FuzzSnapshotDecode hammers the decoder with arbitrary bytes, seeded
// with valid snapshots of representative models. The contract under
// fuzzing: Decode either returns a structurally valid image or an error
// wrapping ErrCorrupt — it never panics, and declared counts never
// drive allocations beyond the input's own size (the decoder caps every
// pre-allocation by the bytes remaining).
func FuzzSnapshotDecode(f *testing.F) {
	seeds := []*Image{
		testModel(),
		{},
		randomModel(rand.New(rand.NewSource(1))),
		randomModel(rand.New(rand.NewSource(2))),
		randomModel(rand.New(rand.NewSource(3))),
	}
	for _, m := range seeds {
		data, err := Encode(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte(magic))
	// Seed the shard opener with valid shards so mutations reach deep
	// into the section layout, and with one shard per occurrence-table
	// fault so they start from damage behind valid checksums.
	tc := testCorpus()
	for _, hdr := range []ShardHeader{
		{ShardCount: 1, TotalImages: len(tc.Images)},
		{ShardIndex: 1, ShardCount: 3, ImageBase: 4, TotalImages: 9},
	} {
		data, err := EncodeCorpusShard(tc, hdr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, fault := range occurrenceFaults {
		f.Add(faultyOccurrenceShard(f, fault))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		img, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decoder error does not wrap ErrCorrupt: %v", err)
			}
		} else if _, err := Encode(img); err != nil {
			// Accepted input must be a valid model: re-encoding applies
			// the full validation pass and must succeed.
			t.Fatalf("decoded image fails re-encoding: %v", err)
		}
		// The shard opener must uphold the same contract over the same
		// bytes: open-plus-walk either succeeds or fails wrapping
		// ErrCorrupt, and never panics — every accessor is the decode
		// surface here, since slabs validate lazily on first touch.
		s, err := OpenCorpusShardBytes(data)
		if err == nil {
			err = touchShard(s)
		}
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("shard opener error does not wrap ErrCorrupt: %v", err)
		}
	})
}
