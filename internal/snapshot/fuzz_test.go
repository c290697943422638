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
	tc, tvocab := testCorpus()
	f.Add(mustEncodeShard(f, &Corpus{}, nil, soleShard(&Corpus{})))
	for seed := int64(1); seed <= 3; seed++ {
		c, vocab := randomCorpusModel(rand.New(rand.NewSource(seed)))
		f.Add(mustEncodeShard(f, c, vocab, soleShard(c)))
	}
	f.Add([]byte{})
	f.Add([]byte(corpusMagic))
	// Alone, first of a set (the vocabulary's home) and later in a set (no
	// vocabulary, executables from ExeBase).
	for _, hdr := range []ShardHeader{
		soleShard(tc),
		{ShardCount: 2, TotalImages: 3, TotalExes: 4},
		{ShardIndex: 1, ShardCount: 3, ImageBase: 4, TotalImages: 9, ExeBase: 3, TotalExes: 7},
	} {
		f.Add(mustEncodeShard(f, tc, tvocab, hdr))
	}
	// One shard per occurrence-table, strand-set and set-table fault and one recording a
	// vocabulary checksum its own section does not carry, so mutations
	// also start from damage behind valid checksums.
	for _, fault := range append(occurrenceFaults, idsFaults...) {
		f.Add(faultyShard(f, fault))
	}
	for _, fault := range setFaults {
		f.Add(faultyShard(f, fault.name))
	}
	lie := mustEncodeShard(f, tc, tvocab, soleShard(tc))
	vocabChecksumLie(f, lie)
	f.Add(lie)
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
