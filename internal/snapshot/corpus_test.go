package snapshot

import (
	"encoding/binary"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// testCorpus is a small but fully featured sealed-corpus shard and its
// vocabulary, ascending: two distinct executables sharing strands, and two
// images of differing shapes (skips, the same executable under a second
// path).
func testCorpus() (*Corpus, []uint64) {
	return &Corpus{
		Exes: []Exe{
			{
				Arch: 1, Stripped: true,
				Procs: []Proc{
					{
						Name: "sub_400100", Addr: 0x400100,
						IDs: []uint32{0, 2, 4}, Markers: []uint32{0x1f},
						BlockCount: 7, EdgeCount: 9, InstCount: 55, Calls: []uint32{1},
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
	}, []uint64{7, 42, 0xcafebabe, 0xdeadbeef, 0x1122334455667788}
}

// roundTripCorpus encodes the model under vocab as a one-shard corpus,
// opens it and reads the model and vocabulary back through every
// accessor.
func roundTripCorpus(t *testing.T, c *Corpus, vocab []uint64) (*Corpus, []uint64) {
	t.Helper()
	s, err := OpenCorpusShardBytes(mustEncodeShard(t, c, vocab, soleShard(c)))
	if err != nil {
		t.Fatal(err)
	}
	if err := touchShard(s); err != nil {
		t.Fatal(err)
	}
	return shardToCorpus(t, s)
}

func TestCorpusRoundTrip(t *testing.T) {
	want, wantVocab := testCorpus()
	if got, vocab := roundTripCorpus(t, want, wantVocab); !reflect.DeepEqual(got, want) || !slices.Equal(vocab, wantVocab) {
		t.Errorf("round trip mismatch:\n got %+v %x\nwant %+v %x", got, vocab, want, wantVocab)
	}
}

// TestCorpusRoundTripEmptyIndex: a corpus whose procedures hold no
// strands, and so no markers, round-trips, and its index is derived from
// one stored set, the empty one, which every procedure holds: an index of
// no rows.
func TestCorpusRoundTripEmptyIndex(t *testing.T) {
	c, vocab := testCorpus()
	for _, e := range c.Exes {
		for pi := range e.Procs {
			e.Procs[pi].IDs, e.Procs[pi].Markers = nil, nil
		}
	}
	if got, _ := roundTripCorpus(t, c, vocab); !reflect.DeepEqual(got, c) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, c)
	}
	s, err := OpenCorpusShardBytes(mustEncodeShard(t, c, vocab, soleShard(c)))
	if err != nil {
		t.Fatal(err)
	}
	counts, sets, setOf, err := s.ProcSets()
	if err != nil || !slices.Equal(counts, []int32{2, 1}) || len(sets) != 1 || len(sets[0]) != 0 || !slices.Equal(setOf, []uint32{0, 0, 0}) {
		t.Errorf("ProcSets of a corpus without strands: %v %v %v, %v", counts, sets, setOf, err)
	}
}

func TestCorpusRoundTripEmpty(t *testing.T) {
	got, vocab := roundTripCorpus(t, &Corpus{}, nil)
	if len(vocab) != 0 || len(got.Exes) != 0 || len(got.Images) != 0 {
		t.Errorf("empty corpus round trip: %+v", got)
	}
}

func TestCorpusEncodeRejectsInvalid(t *testing.T) {
	hdr := ShardHeader{ShardCount: 1, TotalImages: 2, TotalExes: 2}
	for name, damage := range map[string]func(*Corpus){
		"out-of-vocabulary strand ID": func(c *Corpus) { c.Exes[0].Procs[0].IDs = []uint32{99} },
		"out-of-range occurrence":     func(c *Corpus) { c.Images[0].Occs[0].Exe = 2 },
		"negative occurrence":         func(c *Corpus) { c.Images[0].Occs[0].Exe = -1 },
	} {
		c, vocab := testCorpus()
		damage(c)
		if _, err := encodeCorpusShard(c, vocab, hdr); err == nil {
			t.Errorf("%s encoded successfully", name)
		}
	}
}

// TestEncodeRejectsMarkersDisagreeingWithSet: a shard stores markers once
// per distinct strand set, so a model in which two procedures hold one set
// but not the same markers — in one executable or two, one with none — is
// rejected at encode time, and one in which they agree is stored with the
// set's markers once.
func TestEncodeRejectsMarkersDisagreeingWithSet(t *testing.T) {
	for name, damage := range map[string]func(*Corpus){
		"within an executable": func(c *Corpus) {
			c.Exes[0].Procs[1].IDs = []uint32{0, 2, 4}
			c.Exes[0].Procs[1].Markers = []uint32{0x20}
		},
		"across executables": func(c *Corpus) { c.Exes[1].Procs[0].IDs = []uint32{0, 2, 4} },
		"one more marker": func(c *Corpus) {
			c.Exes[1].Procs[0].IDs = []uint32{0, 2, 4}
			c.Exes[1].Procs[0].Markers = []uint32{0x1f, 0x20}
		},
	} {
		c, vocab := testCorpus()
		damage(c)
		if _, err := encodeCorpusShard(c, vocab, soleShard(c)); err == nil || !strings.Contains(err.Error(), "markers") {
			t.Errorf("%s: err = %v, want markers disagreeing with the set's rejected", name, err)
		}
	}
	c, vocab := testCorpus()
	c.Exes[1].Procs[0].IDs = []uint32{0, 2, 4}
	c.Exes[1].Procs[0].Markers = []uint32{0x1f}
	s, err := OpenCorpusShardBytes(mustEncodeShard(t, c, vocab, soleShard(c)))
	if err != nil {
		t.Fatal(err)
	}
	if s.totals.markers != 1 {
		t.Errorf("two procedures holding one set store %d markers, want its 1", s.totals.markers)
	}
	if got, _ := shardToCorpus(t, s); !reflect.DeepEqual(got, c) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, c)
	}
}

// TestCorpusDecodeCorruption flips one bit at every offset of a shard.
// Section payloads are checksummed, the table and meta are
// cross-checked, so every flip outside the alignment padding must
// surface — at open or on first touch — as ErrCorrupt.
func TestCorpusDecodeCorruption(t *testing.T) {
	c, vocab := testCorpus()
	blob := mustEncodeShard(t, c, vocab, soleShard(c))
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
	c, vocab := testCorpus()
	blob := mustEncodeShard(t, c, vocab, soleShard(c))
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

// TestCorpusProcSetsHardening: a strand ID outside the vocabulary, in
// the sets of the last executable, passes the opener and every read but
// those of that executable's sets — materializing it, and the walk over
// every set the shard's index is derived from — which both reject it,
// naming corpus-ids.
func TestCorpusProcSetsHardening(t *testing.T) {
	for _, name := range idsFaults {
		s, err := OpenCorpusShardBytes(faultyShard(t, name))
		if err != nil {
			t.Fatalf("%s: the opener rejects what only the sets' readers should: %v", name, err)
		}
		if _, err := s.Exe(0); err != nil {
			t.Fatalf("%s: an undamaged executable: %v", name, err)
		}
		_, err = s.Exe(s.NumExes() - 1)
		_, _, _, setsErr := s.ProcSets()
		for what, err := range map[string]error{"Exe": err, "ProcSets": setsErr} {
			var ce *CorruptError
			if !errors.As(err, &ce) || ce.Section != "corpus-ids" || !strings.Contains(ce.Reason, "outside") {
				t.Errorf("%s: %s: err = %v, want ErrCorrupt naming corpus-ids", name, what, err)
			}
		}
	}
}

// TestCorpusSetTableHardening: a set number past the set table, offsets
// that decrease, do not start at 0 or do not end at the slab's length, and
// a stored set that is not strictly increasing each pass the opener and
// fail the first read of the sets — the walk the shard's index is derived
// from, and materializing — with ErrCorrupt naming the damaged section.
func TestCorpusSetTableHardening(t *testing.T) {
	for _, f := range setFaults {
		s, err := OpenCorpusShardBytes(faultyShard(t, f.name))
		if err != nil {
			t.Fatalf("%s: the opener rejects what only the sets' readers should: %v", f.name, err)
		}
		_, _, _, setsErr := s.ProcSets()
		for what, err := range map[string]error{"ProcSets": setsErr, "touch": touchShard(s)} {
			var ce *CorruptError
			if !errors.As(err, &ce) || ce.Section != f.section {
				t.Errorf("%s: %s: err = %v, want ErrCorrupt naming %s", f.name, what, err, f.section)
			}
		}
	}
}

// TestCorpusProcSetsBounded: executables whose procedure ranges overlap
// each pass materialization, but together declare more procedures than
// the table holds, which the walk the index is derived from rejects: the
// index a shard yields is bounded by the shard's bytes.
func TestCorpusProcSetsBounded(t *testing.T) {
	c, vocab := testCorpus()
	blob := mustEncodeShard(t, c, vocab, soleShard(c))
	// Executable 1 claims procedures [0, 3), all three of the table, and
	// every slab from its start, as executable 0's record does.
	patchSection(t, blob, secV2ExeTab, func(b []byte) {
		copy(b[v2ExeRecSize:], b[:v2ExeRecSize])
		binary.LittleEndian.PutUint32(b[v2ExeRecSize+4:], 3)
	})
	s, err := OpenCorpusShardBytes(blob)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exe(1); err != nil {
		t.Fatalf("the overlapping executable on its own: %v", err)
	}
	var ce *CorruptError
	if _, _, _, err := s.ProcSets(); !errors.As(err, &ce) || ce.Section != "corpus-exe-table" {
		t.Errorf("ProcSets over overlapping executables: err = %v, want ErrCorrupt naming corpus-exe-table", err)
	}
}
