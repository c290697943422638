package snapshot

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"firmup/internal/corpusindex"
)

// testCorpus is a small but fully featured sealed-corpus shard: one
// shared vocabulary, two distinct executables, and two images of
// differing shapes (skips, the same executable under a second path).
func testCorpus() *Corpus {
	return &Corpus{
		Interner: []uint64{0xdeadbeef, 0x1122334455667788, 0xcafebabe, 42, 7},
		Exes: []Exe{
			{
				Arch: 1, Stripped: true,
				Procs: []Proc{
					{
						Name: "sub_400100", Addr: 0x400100,
						IDs: []uint32{0, 2, 4}, Markers: []uint32{0x1f},
						BlockCount: 7, EdgeCount: 9, InstCount: 55, Calls: []int32{1},
					},
					{
						Name: "sub_400200", Addr: 0x400200, Exported: true,
						IDs: []uint32{1, 3}, BlockCount: 2, EdgeCount: 1, InstCount: 12,
					},
				},
			},
			{
				Arch: 2,
				Procs: []Proc{
					{Name: "main", Addr: 0x10000, IDs: []uint32{2}, BlockCount: 1, InstCount: 3},
				},
			},
		},
		Index: []IndexRow{
			{ID: 0, Posts: []uint32{0}},
			{ID: 2, Posts: []uint32{0, 2}},
			{ID: 3, Posts: []uint32{1}},
		},
		Images: []CorpusImage{
			{
				Vendor: "netgear", Device: "R6250", Version: "1.0.4",
				Skipped: []Skip{{Path: "bin/busybox", Err: "unsupported arch 0xC8"}},
				Occs:    []Occurrence{{Path: "bin/wget", Exe: 0}},
			},
			{
				Vendor: "dlink", Device: "DIR-850", Version: "2.07",
				Occs: []Occurrence{{Path: "sbin/httpd", Exe: 1}, {Path: "usr/bin/wget", Exe: 0}},
			},
		},
	}
}

// roundTripCorpus encodes the model as a one-shard corpus, opens it and
// reads the model back through every accessor.
func roundTripCorpus(t *testing.T, c *Corpus) *Corpus {
	t.Helper()
	s, err := OpenCorpusShardBytes(mustEncodeShard(t, c, soleShard(c)))
	if err != nil {
		t.Fatal(err)
	}
	if err := touchShard(s); err != nil {
		t.Fatal(err)
	}
	return shardToCorpus(t, s)
}

func TestCorpusRoundTrip(t *testing.T) {
	want := testCorpus()
	if got := roundTripCorpus(t, want); !reflect.DeepEqual(got, want) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestCorpusRoundTripEmptyIndex(t *testing.T) {
	// An empty index ("indexed, nothing qualified") round-trips; "never
	// indexed" is not a state a shard can be in: the encoder refuses a nil
	// index.
	c := testCorpus()
	c.Index = []IndexRow{}
	if got := roundTripCorpus(t, c); got.Index == nil || len(got.Index) != 0 {
		t.Errorf("empty index decoded as %v", got.Index)
	}
	c.Index = nil
	if _, err := encodeCorpusShard(c, soleShard(c)); err == nil {
		t.Error("a corpus without an index encoded successfully")
	}
}

func TestCorpusRoundTripEmpty(t *testing.T) {
	got := roundTripCorpus(t, &Corpus{Index: []IndexRow{}})
	if len(got.Interner) != 0 || len(got.Exes) != 0 || len(got.Images) != 0 {
		t.Errorf("empty corpus round trip: %+v", got)
	}
}

func TestCorpusEncodeRejectsInvalid(t *testing.T) {
	hdr := ShardHeader{ShardCount: 1, TotalImages: 2, TotalExes: 2}
	for name, damage := range map[string]func(*Corpus){
		"out-of-vocabulary strand ID": func(c *Corpus) { c.Exes[0].Procs[0].IDs = []uint32{99} },
		"out-of-range index posting":  func(c *Corpus) { c.Index[0].Posts[0] = 3 },
		"out-of-range occurrence":     func(c *Corpus) { c.Images[0].Occs[0].Exe = 2 },
		"negative occurrence":         func(c *Corpus) { c.Images[0].Occs[0].Exe = -1 },
	} {
		c := testCorpus()
		damage(c)
		if _, err := encodeCorpusShard(c, hdr); err == nil {
			t.Errorf("%s encoded successfully", name)
		}
	}
}

// TestCorpusDecodeCorruption flips one bit at every offset of a shard.
// Section payloads are checksummed, the table and meta are
// cross-checked, so every flip outside the alignment padding must
// surface — at open or on first touch — as ErrCorrupt.
func TestCorpusDecodeCorruption(t *testing.T) {
	c := testCorpus()
	blob := mustEncodeShard(t, c, soleShard(c))
	table, err := parseCorpusV2Table(blob)
	if err != nil {
		t.Fatal(err)
	}
	covered := make([]bool, len(blob))
	for i := 0; i < headerSize+len(table)*tableEntrySize; i++ {
		covered[i] = true
	}
	for _, e := range table {
		for i := e.off; i < e.off+e.length; i++ {
			covered[i] = true
		}
	}
	for off := range blob {
		if !covered[off] {
			continue
		}
		bad := append([]byte(nil), blob...)
		bad[off] ^= 0x01
		s, err := OpenCorpusShardBytes(bad)
		if err == nil {
			err = touchShard(s)
		}
		if err == nil {
			// An empty section's offset is never dereferenced.
			if off >= headerSize && off < headerSize+len(table)*tableEntrySize && table[(off-headerSize)/tableEntrySize].length == 0 {
				continue
			}
			t.Errorf("bit flip at offset %d went undetected", off)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Errorf("bit flip at offset %d: error does not wrap ErrCorrupt: %v", off, err)
		}
	}
}

func TestCorpusDecodeTruncation(t *testing.T) {
	c := testCorpus()
	blob := mustEncodeShard(t, c, soleShard(c))
	for n := 0; n < len(blob); n += 17 {
		s, err := OpenCorpusShardBytes(blob[:n])
		if err == nil {
			err = touchShard(s)
		}
		if err == nil {
			t.Errorf("truncation to %d bytes opened successfully", n)
		}
	}
}

// TestCorpusOccurrenceTableHardening damages the occurrence table four
// ways behind valid checksums: each must fail with ErrCorrupt naming
// corpus-occurrences — at open or on first touch — never a panic or an
// out-of-range index at search time.
func TestCorpusOccurrenceTableHardening(t *testing.T) {
	for _, name := range occurrenceFaults {
		s, err := OpenCorpusShardBytes(faultyShard(t, name))
		if err == nil {
			err = touchShard(s)
		}
		var ce *CorruptError
		if !errors.As(err, &ce) || ce.Section != "corpus-occurrences" {
			t.Errorf("%s: err = %v, want ErrCorrupt naming corpus-occurrences", name, err)
		}
	}
}

// TestCorpusIndexSlotHardening: a posting slot at or past the shard's
// procedure total passes the shard's own checks — slots are the index's
// to check, in one pass at its build — and the index built over the
// shard's slabs rejects it, naming the slot.
func TestCorpusIndexSlotHardening(t *testing.T) {
	for _, name := range indexFaults {
		s, err := OpenCorpusShardBytes(faultyShard(t, name))
		if err == nil {
			err = touchShard(s)
		}
		if err != nil {
			t.Fatalf("%s: the shard rejects what its index should: %v", name, err)
		}
		vocab, _ := s.Vocab()
		hashes, ids, _ := s.SortedVocab()
		frozen, err := corpusindex.FrozenFromSlabs(vocab, hashes, ids)
		if err != nil {
			t.Fatal(err)
		}
		counts, _ := s.ProcCounts()
		slabs, _ := s.Index()
		if _, err := corpusindex.NewFrozenIndexForeign(frozen, counts, slabs.RowIDs, slabs.RowEnds, slabs.Posts); err == nil || !strings.Contains(err.Error(), "slot") {
			t.Errorf("%s: index over the shard: err = %v, want the slot named", name, err)
		}
	}
}
