package snapshot

import (
	"errors"
	"math/rand"
	"testing"
)

// FuzzShardOpen hammers the shard opener with arbitrary bytes. The
// contract under fuzzing: open-plus-walk either succeeds or fails
// wrapping ErrCorrupt, and never panics — every accessor is the decode
// surface here, since slabs validate lazily on first touch — and declared
// counts never drive allocations beyond the input's own size.
func FuzzShardOpen(f *testing.F) {
	// Valid shards of representative models, so mutations reach deep into
	// the section layout.
	tc := testCorpus()
	for _, c := range []*Corpus{
		{Index: []IndexRow{}},
		randomCorpusModel(rand.New(rand.NewSource(1))),
		randomCorpusModel(rand.New(rand.NewSource(2))),
		randomCorpusModel(rand.New(rand.NewSource(3))),
	} {
		f.Add(mustEncodeShard(f, c, ShardHeader{ShardCount: 1, TotalImages: len(c.Images)}))
	}
	f.Add(unindexedShard(f)) // rejected: every shard carries an index
	f.Add([]byte{})
	f.Add([]byte(corpusMagic))
	for _, hdr := range []ShardHeader{
		{ShardCount: 1, TotalImages: len(tc.Images)},
		{ShardIndex: 1, ShardCount: 3, ImageBase: 4, TotalImages: 9},
	} {
		f.Add(mustEncodeShard(f, tc, hdr))
	}
	// One shard per occurrence-table fault, so mutations also start from
	// damage behind valid checksums.
	for _, fault := range occurrenceFaults {
		f.Add(faultyOccurrenceShard(f, fault))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := OpenCorpusShardBytes(data)
		if err == nil {
			err = touchShard(s)
		}
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("shard opener error does not wrap ErrCorrupt: %v", err)
		}
	})
}
