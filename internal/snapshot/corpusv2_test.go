package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"
)

// encodeCorpusShard encodes one shard of c under vocab.
func encodeCorpusShard(c *Corpus, vocab []uint64, hdr ShardHeader) ([]byte, error) {
	v, err := EncodeVocab(vocab)
	if err != nil {
		return nil, err
	}
	return v.EncodeShard(c, hdr)
}

// TestEncodeVocabRejectsBadOrder: EncodeVocab trusts no order it is handed
// — a vocabulary whose hashes do not strictly increase, out of order or
// holding a hash twice, fails at encode time.
func TestEncodeVocabRejectsBadOrder(t *testing.T) {
	for _, vocab := range [][]uint64{nil, {7}, {10, 20, 30}, {0, math.MaxUint64}} {
		if _, err := EncodeVocab(vocab); err != nil {
			t.Errorf("the sorted vocabulary %v was rejected: %v", vocab, err)
		}
	}
	for name, vocab := range map[string][]uint64{
		"unsorted":   {30, 10, 20},
		"descending": {30, 20, 10},
		"duplicate":  {10, 20, 20, 30},
		"last-low":   {10, 20, 5},
	} {
		if _, err := EncodeVocab(vocab); err == nil {
			t.Errorf("%s: vocabulary %v was accepted", name, vocab)
		}
	}
}

// soleShard is the header of a corpus stored as one shard.
func soleShard(c *Corpus) ShardHeader {
	return ShardHeader{ShardCount: 1, TotalImages: len(c.Images), TotalExes: len(c.Exes)}
}

func mustEncodeShard(t testing.TB, c *Corpus, vocab []uint64, hdr ShardHeader) []byte {
	t.Helper()
	b, err := encodeCorpusShard(c, vocab, hdr)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// touchShard walks every accessor of an open shard — the complete
// first-touch surface — returning the first error. Every byte the
// shard can ever serve is CRC-verified by the end of a clean walk.
func touchShard(s *CorpusShard) error {
	if _, err := s.Vocab(); err != nil {
		return err
	}
	if _, _, err := s.SortedVocab(); err != nil {
		return err
	}
	for i := 0; i < s.NumImages(); i++ {
		if _, err := s.Occurrences(i); err != nil {
			return err
		}
	}
	if _, _, _, err := s.ProcSets(); err != nil {
		return err
	}
	for e := 0; e < s.NumExes(); e++ {
		if _, err := s.Exe(e); err != nil {
			return err
		}
	}
	return nil
}

// shardToCorpus reconstructs the encoder-side model from an open
// shard, canonicalizing empty slices to nil to match model form, and
// copies out its vocabulary.
func shardToCorpus(t *testing.T, s *CorpusShard) (*Corpus, []uint64) {
	t.Helper()
	vocab, err := s.Vocab()
	if err != nil {
		t.Fatal(err)
	}
	c := &Corpus{}
	for e := 0; e < s.NumExes(); e++ {
		ed, err := s.Exe(e)
		if err != nil {
			t.Fatal(err)
		}
		se := Exe{Arch: ed.Arch, Stripped: ed.Stripped}
		for _, pd := range ed.Procs {
			pd.IDs = append([]uint32(nil), pd.IDs...)
			pd.Markers = append([]uint32(nil), pd.Markers...)
			pd.Calls = append([]uint32(nil), pd.Calls...)
			se.Procs = append(se.Procs, pd)
		}
		c.Exes = append(c.Exes, se)
	}
	for i := 0; i < s.NumImages(); i++ {
		info := s.Image(i)
		ci := CorpusImage{Vendor: info.Vendor, Device: info.Device, Version: info.Version, Skipped: info.Skipped}
		occs, err := s.Occurrences(i)
		if err != nil {
			t.Fatal(err)
		}
		if len(occs) != info.Executables {
			t.Fatalf("image %d lists %d occurrences, meta declares %d", i, len(occs), info.Executables)
		}
		if len(occs) > 0 {
			ci.Occs = append([]Occurrence(nil), occs...)
		}
		c.Images = append(c.Images, ci)
	}
	return c, slices.Clone(vocab)
}

// randomCorpusModel generates a structurally valid shard model and its
// vocabulary, ascending: every executable occurs at least once, and some
// occur again under other paths and in other images.
func randomCorpusModel(rng *rand.Rand) (*Corpus, []uint64) {
	c := &Corpus{}
	var vocab []uint64
	seen := map[uint64]bool{}
	for n := 1 + rng.Intn(250); len(vocab) < n; {
		h := rng.Uint64()
		if !seen[h] {
			seen[h] = true
			vocab = append(vocab, h)
		}
	}
	slices.Sort(vocab)
	nimg := 1 + rng.Intn(4)
	for i := 0; i < nimg; i++ {
		ci := CorpusImage{Vendor: randWord(rng), Device: randWord(rng), Version: randWord(rng)}
		for k := rng.Intn(3); k > 0; k-- {
			ci.Skipped = append(ci.Skipped, Skip{Path: randWord(rng), Err: randWord(rng)})
		}
		c.Images = append(c.Images, ci)
		for _, e := range randomExes(rng, len(vocab)) {
			ci := &c.Images[rng.Intn(len(c.Images))]
			ci.Occs = append(ci.Occs, Occurrence{Path: randWord(rng), Exe: len(c.Exes)})
			c.Exes = append(c.Exes, e)
		}
	}
	for k := rng.Intn(6); k > 0 && len(c.Exes) > 0; k-- {
		ci := &c.Images[rng.Intn(len(c.Images))]
		ci.Occs = append(ci.Occs, Occurrence{Path: randWord(rng), Exe: rng.Intn(len(c.Exes))})
	}
	return c, vocab
}

// patchSection rewrites one section's payload in place and re-stamps
// its checksum, so the damage reaches the validation behind the CRC.
func patchSection(t testing.TB, blob []byte, tag uint32, patch func(payload []byte)) {
	t.Helper()
	table, err := parseCorpusV2Table(blob)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range table {
		if e.tag == tag {
			payload := blob[e.off : e.off+e.length]
			patch(payload)
			binary.LittleEndian.PutUint32(blob[headerSize+i*tableEntrySize+20:], crc32.Checksum(payload, castagnoli))
			return
		}
	}
	t.Fatalf("no section %s", v2SectionName(tag))
}

// occurrenceFaults names the ways faultyShard damages testCorpus's
// occurrence table. (An executable no occurrence names is a fault of the
// shard set, not of one shard: its images may live in another.)
var occurrenceFaults = []string{"ref-out-of-range", "path-out-of-range", "count-sum"}

// idsFaults names the ways faultyShard damages testCorpus's strand sets
// that pass the opener and every read but those of the damaged
// executable's sets: materializing it, and deriving the shard's index.
var idsFaults = []string{"id-outside-vocabulary"}

// setFaults names the ways faultyShard damages testCorpus's set table —
// its sets {0,2,4}, {1,3} and {2}, at ID offsets 0, 3, 5 and 6, with
// markers {0x1f}, {} and {} at marker offsets 0, 1, 1 and 1 — and the
// section each fault is blamed on. Each passes the opener: the set table
// is read, and checked, on first touch.
var setFaults = []struct{ name, section string }{
	{"set-number-out-of-range", "corpus-proc-table"},
	{"set-offsets-decrease", "corpus-sets"},
	{"set-offsets-not-from-zero", "corpus-sets"},
	{"set-offsets-short-of-slab", "corpus-sets"},
	{"set-not-increasing", "corpus-ids"},
	{"set-markers-decrease", "corpus-sets"},
	{"set-markers-past-slab", "corpus-sets"},
	{"set-markers-short-of-total", "corpus-sets"},
}

// faultyShard encodes testCorpus as one shard and applies the named fault
// behind valid checksums.
func faultyShard(t testing.TB, fault string) []byte {
	t.Helper()
	c, vocab := testCorpus()
	blob := mustEncodeShard(t, c, vocab, soleShard(c))
	le := binary.LittleEndian
	switch fault {
	case "ref-out-of-range":
		patchSection(t, blob, secV2Occs, func(b []byte) { le.PutUint32(b[8:], uint32(len(c.Exes))) })
	case "path-out-of-range":
		patchSection(t, blob, secV2Occs, func(b []byte) { le.PutUint32(b[0:], 0xfffffff0) })
	case "count-sum":
		// The meta section ends with the last image's occurrence count.
		patchSection(t, blob, secV2Meta, func(b []byte) { b[len(b)-1]-- })
	case "id-outside-vocabulary":
		// The last ID is executable 1's, the largest of its one procedure:
		// rewritten as the vocabulary size, the set still increases.
		patchSection(t, blob, secV2IDs, func(b []byte) { le.PutUint32(b[len(b)-4:], uint32(len(vocab))) })
	case "set-number-out-of-range":
		// Executable 1's one procedure, the last record, names set 3 of 3.
		patchSection(t, blob, secV2ProcTab, func(b []byte) { le.PutUint32(b[len(b)-v2ProcRecSize+16:], 3) })
	case "set-offsets-decrease":
		patchSection(t, blob, secV2Sets, func(b []byte) { le.PutUint32(b[8:], 6) })
	case "set-offsets-not-from-zero":
		patchSection(t, blob, secV2Sets, func(b []byte) { le.PutUint32(b[0:], 1) })
	case "set-offsets-short-of-slab":
		patchSection(t, blob, secV2Sets, func(b []byte) { le.PutUint32(b[len(b)-8:], 5) })
	case "set-markers-decrease":
		// Set 2's markers start at 0, before set 1's end at 1.
		patchSection(t, blob, secV2Sets, func(b []byte) { le.PutUint32(b[20:], 0) })
	case "set-markers-past-slab":
		// The last row ends the markers at 2, past the 1-entry slab.
		patchSection(t, blob, secV2Sets, func(b []byte) { le.PutUint32(b[len(b)-4:], 2) })
	case "set-markers-short-of-total":
		// Set 0 holds no markers: every later row ends them at 0, not at
		// the meta section's total of 1.
		patchSection(t, blob, secV2Sets, func(b []byte) {
			for k := 1; k < len(b)/8; k++ {
				le.PutUint32(b[8*k+4:], 0)
			}
		})
	case "set-not-increasing":
		// Set 1, {1,3}, becomes {1,1}.
		patchSection(t, blob, secV2IDs, func(b []byte) { le.PutUint32(b[16:], 1) })
	default:
		t.Fatalf("unknown shard fault %q", fault)
	}
	return blob
}

func TestCorpusShardRoundTrip(t *testing.T) {
	type model struct {
		c     *Corpus
		vocab []uint64
	}
	c, vocab := testCorpus()
	models := []model{{c, vocab}}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 8; i++ {
		c, vocab := randomCorpusModel(rng)
		models = append(models, model{c, vocab})
	}
	for mi, m := range models {
		want := m.c
		data := mustEncodeShard(t, want, m.vocab, soleShard(want))
		s, err := OpenCorpusShardBytes(data)
		if err != nil {
			t.Fatalf("model %d: open: %v", mi, err)
		}
		if err := touchShard(s); err != nil {
			t.Fatalf("model %d: touch: %v", mi, err)
		}
		got, vocab := shardToCorpus(t, s)
		if !reflect.DeepEqual(got, want) || !slices.Equal(vocab, m.vocab) {
			t.Errorf("model %d: round trip mismatch:\n got %+v %x\nwant %+v %x", mi, got, vocab, want, m.vocab)
		}
		counts, sets, setOf, err := s.ProcSets()
		if err != nil {
			t.Fatalf("model %d: %v", mi, err)
		}
		// The sets are the model's distinct ones in order of first
		// appearance, and each slot names its own.
		var wantCounts []int32
		var wantSets, slotSets [][]uint32
		for _, e := range want.Exes {
			wantCounts = append(wantCounts, int32(len(e.Procs)))
			for _, p := range e.Procs {
				if !slices.ContainsFunc(wantSets, func(ids []uint32) bool { return slices.Equal(ids, p.IDs) }) {
					wantSets = append(wantSets, p.IDs)
				}
				slotSets = append(slotSets, p.IDs)
			}
		}
		if !slices.Equal(counts, wantCounts) || !slices.EqualFunc(sets, wantSets, slices.Equal) || len(setOf) != len(slotSets) {
			t.Fatalf("model %d: ProcSets %v %v %v, want %v %v", mi, counts, sets, setOf, wantCounts, wantSets)
		}
		for slot, k := range setOf {
			if !slices.Equal(sets[k], slotSets[slot]) {
				t.Errorf("model %d: slot %d names set %d %v, holds %v", mi, slot, k, sets[k], slotSets[slot])
			}
		}
	}
}

// TestCorpusShardSetsStoredOnce: a model whose procedures repeat strand
// sets, within an executable and across executables, stores each distinct
// set once — the set table holds one entry per set, and corpus-ids the
// distinct sets' IDs alone — and decodes procedures sharing a set to IDs
// aliasing one range of the slab.
func TestCorpusShardSetsStoredOnce(t *testing.T) {
	c, vocab := testCorpus()
	// Executable 0's two procedures both hold {1,3}; executable 1's holds
	// executable 0's first set, {0,2,4}.
	c.Exes[0].Procs[1].IDs = []uint32{0, 2, 4}
	c.Exes[0].Procs = append(c.Exes[0].Procs, Proc{Name: "sub_400300", Addr: 0x400300, IDs: []uint32{1, 3}, Markers: []uint32{0x1f}, BlockCount: 1, InstCount: 4})
	c.Exes[0].Procs[0].IDs = []uint32{1, 3}
	c.Exes[1].Procs[0].IDs = []uint32{0, 2, 4}
	s, err := OpenCorpusShardBytes(mustEncodeShard(t, c, vocab, soleShard(c)))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := shardToCorpus(t, s); !reflect.DeepEqual(got, c) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, c)
	}
	if s.totals.sets != 2 || s.totals.ids != 5 || s.totals.markers != 1 {
		t.Errorf("the shard stores %d sets of %d IDs and %d markers in all, want 2 of 5 and 1", s.totals.sets, s.totals.ids, s.totals.markers)
	}
	_, sets, setOf, err := s.ProcSets()
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]uint32{{1, 3}, {0, 2, 4}}; !slices.EqualFunc(sets, want, slices.Equal) || !slices.Equal(setOf, []uint32{0, 1, 0, 1}) {
		t.Errorf("ProcSets: sets %v numbered %v, want %v numbered [0 1 0 1]", sets, setOf, want)
	}
	e0, err := s.Exe(0)
	if err != nil {
		t.Fatal(err)
	}
	e1, err := s.Exe(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2][]uint32{
		{e0.Procs[0].IDs, e0.Procs[2].IDs},         // within executable 0
		{e0.Procs[0].Markers, e0.Procs[2].Markers}, // and their markers
		{e0.Procs[1].IDs, e1.Procs[0].IDs},         // across executables
		{e1.Procs[0].IDs, sets[1]},                 // materialized and indexed
	} {
		if &pair[0][0] != &pair[1][0] || len(pair[0]) != len(pair[1]) {
			t.Errorf("procedures sharing set %v decode to separate memory", pair[0])
		}
	}
}

// TestCorpusShardHeaderRoundTrip pins the header and where the
// vocabulary lives: shard 0 stores it, any other shard stores none but
// records the same checksum and length.
func TestCorpusShardHeaderRoundTrip(t *testing.T) {
	c, vocab := testCorpus()
	first, err := OpenCorpusShardBytes(mustEncodeShard(t, c, vocab, ShardHeader{ShardCount: 7, TotalImages: 40, TotalExes: 30}))
	if err != nil {
		t.Fatal(err)
	}
	hdr := ShardHeader{ShardIndex: 3, ShardCount: 7, ImageBase: 12, TotalImages: 40, ExeBase: 9, TotalExes: 30}
	s, err := OpenCorpusShardBytes(mustEncodeShard(t, c, vocab, hdr))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Header(); got != hdr {
		t.Errorf("header round trip: got %+v want %+v", got, hdr)
	}
	if v := binary.LittleEndian.Uint32(s.data[len(corpusMagic):]); v != CorpusFormatVersion {
		t.Errorf("version word = %d, want %d", v, CorpusFormatVersion)
	}
	if err := touchShard(s); err != nil {
		t.Fatal(err)
	}
	stored, _ := s.Vocab()
	hashes, ids, _ := s.SortedVocab()
	if len(stored) != 0 || len(hashes) != 0 || len(ids) != 0 {
		t.Errorf("shard 3 stores a vocabulary of %d/%d/%d entries; only shard 0 stores one", len(stored), len(hashes), len(ids))
	}
	if got, _ := first.Vocab(); !reflect.DeepEqual(got, vocab) {
		t.Errorf("shard 0 vocabulary %v, want %v", got, vocab)
	}
	crc0, len0 := first.VocabChecksum()
	if crc, l := s.VocabChecksum(); crc != crc0 || l != len0 || l != uint64(8*len(vocab)) {
		t.Errorf("shard 3 records vocabulary checksum %08x/%d, shard 0 %08x/%d", crc, l, crc0, len0)
	}
}

func TestCorpusShardBadHeader(t *testing.T) {
	c, vocab := testCorpus()
	for _, hdr := range []ShardHeader{
		{ShardIndex: -1, ShardCount: 1, TotalImages: 2, TotalExes: 2},
		{ShardIndex: 1, ShardCount: 1, TotalImages: 2, TotalExes: 2},
		{ShardCount: 0, TotalImages: 2, TotalExes: 2},
		{ShardCount: 1, ImageBase: 1, TotalImages: 2, TotalExes: 2},
		{ShardCount: 1, TotalImages: 1, TotalExes: 2},
		{ShardCount: 1, TotalImages: 2, ExeBase: -1, TotalExes: 2},
		{ShardCount: 1, TotalImages: 2, ExeBase: 1, TotalExes: 2},
		{ShardCount: 1, TotalImages: 2, TotalExes: 1},
	} {
		if _, err := encodeCorpusShard(c, vocab, hdr); err == nil {
			t.Errorf("encodeCorpusShard accepted invalid header %+v", hdr)
		}
	}
}

func TestCorpusShardSectionAlignment(t *testing.T) {
	c, vocab := randomCorpusModel(rand.New(rand.NewSource(11)))
	data := mustEncodeShard(t, c, vocab, soleShard(c))
	table, err := parseCorpusV2Table(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(table) != v2NumSections {
		t.Fatalf("section count = %d, want %d", len(table), v2NumSections)
	}
	for _, e := range table {
		if e.length > 0 && e.off%v2Align != 0 {
			t.Errorf("section %s at offset %d is not %d-byte aligned", v2SectionName(e.tag), e.off, v2Align)
		}
	}
}

// TestCorpusShardBoundaryCorruption flips one byte at the first and
// last byte of every section (the section-alignment boundaries of the
// container) and requires the open-plus-walk sequence to surface an
// error wrapping ErrCorrupt — the per-section CRC must catch every
// flip on first touch, and nothing may panic.
func TestCorpusShardBoundaryCorruption(t *testing.T) {
	c, vocab := testCorpus()
	orig := mustEncodeShard(t, c, vocab, soleShard(c))
	table, err := parseCorpusV2Table(orig)
	if err != nil {
		t.Fatal(err)
	}
	flip := func(name string, pos uint64) {
		data := append([]byte(nil), orig...)
		data[pos] ^= 0x5a
		s, err := OpenCorpusShardBytes(data)
		if err == nil {
			err = touchShard(s)
		}
		if err == nil {
			t.Errorf("%s: flipped byte at %d went undetected", name, pos)
			return
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: error does not wrap ErrCorrupt: %v", name, err)
		}
	}
	for _, e := range table {
		if e.length == 0 {
			continue
		}
		name := v2SectionName(e.tag)
		flip(name+"/first", e.off)
		flip(name+"/last", e.off+e.length-1)
	}
	// And the header itself.
	flip("header/version", 8)
}

// TestCorpusShardTruncation opens every prefix of a valid shard: each
// must fail with ErrCorrupt (or, for accessor-time failures, surface
// it on first touch) and never panic — mapped files can be truncated
// underneath the reader.
func TestCorpusShardTruncation(t *testing.T) {
	c, vocab := testCorpus()
	data := mustEncodeShard(t, c, vocab, soleShard(c))
	for k := 0; k < len(data); k++ {
		s, err := OpenCorpusShardBytes(data[:k])
		if err == nil {
			err = touchShard(s)
		}
		if err == nil {
			t.Fatalf("truncation to %d/%d bytes went undetected", k, len(data))
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %d: error does not wrap ErrCorrupt: %v", k, err)
		}
	}
}

// TestCorpusShardSlabCopyFallback pins the copy path (hosts without
// unsafe zero-copy casts) to the zero-copy result.
func TestCorpusShardSlabCopyFallback(t *testing.T) {
	c, vocab := randomCorpusModel(rand.New(rand.NewSource(23)))
	data := mustEncodeShard(t, c, vocab, soleShard(c))
	open := func() *Corpus {
		s, err := OpenCorpusShardBytes(data)
		if err != nil {
			t.Fatal(err)
		}
		got, stored := shardToCorpus(t, s)
		if !slices.Equal(stored, vocab) {
			t.Errorf("vocabulary %x, want %x", stored, vocab)
		}
		return got
	}
	fast := open()
	forceSlabCopy = true
	defer func() { forceSlabCopy = false }()
	slow := open()
	if !reflect.DeepEqual(fast, slow) {
		t.Error("slab copy fallback decodes differently from zero-copy")
	}
}

func TestOpenCorpusShardFile(t *testing.T) {
	c, vocab := testCorpus()
	data := mustEncodeShard(t, c, vocab, soleShard(c))
	path := filepath.Join(t.TempDir(), "shard-0000.fwcorp")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenCorpusShardFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := touchShard(s); err != nil {
		t.Fatal(err)
	}
	if got, stored := shardToCorpus(t, s); !reflect.DeepEqual(got, c) || !slices.Equal(stored, vocab) {
		t.Error("file-backed shard decodes differently from the model")
	}
	if s.SizeBytes() != int64(len(data)) {
		t.Errorf("SizeBytes = %d, want %d", s.SizeBytes(), len(data))
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestEncodeShardAllocBudget: the encoder writes every fixed-width section
// in place into the one buffer it returns, so encoding a multi-megabyte
// shard allocates little beyond the shard itself — the string blob, its
// offsets and the meta section. A shard encoded from sections grown by
// append and then copied allocates several times its size.
func TestEncodeShardAllocBudget(t *testing.T) {
	const budget = 1.25
	rng := rand.New(rand.NewSource(46))
	c := &Corpus{}
	var vocab []uint64
	seen := map[uint64]bool{}
	for len(vocab) < 1<<16 {
		if h := rng.Uint64(); !seen[h] {
			seen[h] = true
			vocab = append(vocab, h)
		}
	}
	// Executables of one family share their procedure names, as the
	// versions of a package do, and a third of their strand sets, as
	// unchanged library code does; every one ships in one of 16 images.
	c.Images = make([]CorpusImage, 16)
	for ei := range 440 {
		e := Exe{Arch: uint8(ei % 4)}
		for pi := range 40 {
			p := Proc{Name: fmt.Sprintf("proc_%d_%d", ei%10, pi), Addr: uint32(pi * 64), BlockCount: 4, EdgeCount: 5, InstCount: 30}
			if ei >= 10 && pi%3 == 0 {
				p.IDs = c.Exes[ei-10].Procs[pi].IDs
			} else {
				for id := rng.Intn(64); id < len(vocab) && len(p.IDs) < 60; id += 1 + rng.Intn(1<<10) {
					p.IDs = append(p.IDs, uint32(id))
				}
			}
			if ei >= 10 && pi%3 == 0 {
				p.Markers = c.Exes[ei-10].Procs[pi].Markers
			} else {
				p.Markers = []uint32{rng.Uint32(), rng.Uint32()}
			}
			p.Calls = []uint32{uint32((pi + 1) % 40)}
			e.Procs = append(e.Procs, p)
		}
		c.Exes = append(c.Exes, e)
		im := &c.Images[ei%16]
		im.Occs = append(im.Occs, Occurrence{Path: fmt.Sprintf("bin/exe_%d", ei%25), Exe: ei})
	}
	slices.Sort(vocab)
	v, err := EncodeVocab(vocab)
	if err != nil {
		t.Fatal(err)
	}
	hdr := soleShard(c)
	var out []byte
	ratio := math.Inf(1)
	for range 3 { // the least of three: another goroutine may allocate meanwhile
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		out, err = v.EncodeShard(c, hdr)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		ratio = min(ratio, float64(after.TotalAlloc-before.TotalAlloc)/float64(len(out)))
	}
	t.Logf("a %d-byte shard: %.3f bytes allocated per output byte", len(out), ratio)
	if len(out) < 4<<20 {
		t.Fatalf("the synthetic shard is %d bytes, want a multi-megabyte one", len(out))
	}
	if ratio > budget {
		t.Errorf("EncodeShard allocates %.2f bytes per output byte, budget %.2f", ratio, budget)
	}
}
