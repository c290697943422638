package snapshot

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// TestEncodeRejectsInvalid: an invalid model must fail at encode time,
// not produce an unopenable shard.
func TestEncodeRejectsInvalid(t *testing.T) {
	for name, mutate := range map[string]func(*Corpus){
		"unsorted-ids":      func(c *Corpus) { c.Exes[0].Procs[0].IDs = []uint32{2, 0} },
		"id-out-of-vocab":   func(c *Corpus) { c.Exes[0].Procs[0].IDs = []uint32{99} },
		"call-out-of-range": func(c *Corpus) { c.Exes[0].Procs[0].Calls = []uint32{7} },
		"negative-count":    func(c *Corpus) { c.Exes[0].Procs[0].BlockCount = -1 },
	} {
		c, vocab := testCorpus()
		mutate(c)
		if _, err := encodeCorpusShard(c, vocab, soleShard(c)); err == nil {
			t.Errorf("%s: encodeCorpusShard accepted an invalid model", name)
		}
	}
}

// faultSections are the sections the fault matrix damages one by one,
// under the short names its cases carry: the eagerly decoded skeleton,
// the vocabulary, a fixed-record table, and the set table and slab
// holding the strand sets a search derives the shard's index from.
var faultSections = []struct {
	name string
	tag  uint32
}{
	{"meta", secV2Meta},
	{"interner", secV2Vocab},
	{"exes", secV2ExeTab},
	{"sets", secV2Sets},
	{"index", secV2IDs},
}

// tableRow finds the section-table row of a tag in a well-formed shard.
func tableRow(t *testing.T, data []byte, tag uint32) (row []byte, e tableEntry) {
	t.Helper()
	entries, err := parseCorpusV2Table(data)
	if err != nil {
		t.Fatal(err)
	}
	for i, en := range entries {
		if en.tag == tag {
			return data[headerSize+i*tableEntrySize:][:tableEntrySize], en
		}
	}
	t.Fatalf("no section %s", v2SectionName(tag))
	return nil, tableEntry{}
}

// TestDecodeFaultInjection drives the shard opener through the
// corruption matrix: truncation at section boundaries, bit flips in
// header, table and payloads, wrong magic, other versions, declared
// ranges that exceed the file, and counts that lie behind valid
// checksums. Every case must fail with ErrCorrupt — at open or on first
// touch, never a panic — and name the offending section where one is
// known.
func TestDecodeFaultInjection(t *testing.T) {
	c, vocab := testCorpus()
	base := mustEncodeShard(t, c, vocab, soleShard(c))
	le := binary.LittleEndian
	nsec := len(corpusMagic) + 4 // offset of the section count

	type tc struct {
		name        string
		mutate      func(t *testing.T, d []byte) []byte
		wantSection string // "" = any
	}
	cases := []tc{
		{"empty", func(t *testing.T, d []byte) []byte { return nil }, "header"},
		{"truncated-header", func(t *testing.T, d []byte) []byte { return d[:headerSize-3] }, "header"},
		{"wrong-magic", func(t *testing.T, d []byte) []byte { d[0] = 'X'; return d }, "header"},
		{"magic-bit-flip", func(t *testing.T, d []byte) []byte { d[3] ^= 0x20; return d }, "header"},
		{"future-version", func(t *testing.T, d []byte) []byte {
			le.PutUint32(d[len(corpusMagic):], CorpusFormatVersion+1)
			return d
		}, "header"},
		{"previous-version", func(t *testing.T, d []byte) []byte {
			le.PutUint32(d[len(corpusMagic):], CorpusFormatVersion-1)
			return d
		}, "header"},
		{"version-bit-flip", func(t *testing.T, d []byte) []byte { d[len(corpusMagic)] ^= 0x80; return d }, "header"},
		{"zero-sections", func(t *testing.T, d []byte) []byte { le.PutUint32(d[nsec:], 0); return d }, "header"},
		{"absurd-section-count", func(t *testing.T, d []byte) []byte { le.PutUint32(d[nsec:], 1<<30); return d }, "header"},
		{"truncated-table", func(t *testing.T, d []byte) []byte { return d[:headerSize+tableEntrySize/2] }, "table"},
		{"unknown-section-tag", func(t *testing.T, d []byte) []byte { le.PutUint32(d[headerSize:], 99); return d }, "table"},
		{"duplicate-section", func(t *testing.T, d []byte) []byte {
			// Retag the occurrence section as a second meta section.
			row, _ := tableRow(t, d, secV2Occs)
			le.PutUint32(row, secV2Meta)
			return d
		}, "table"},
		{"missing-required-section", func(t *testing.T, d []byte) []byte {
			// Shrink the table so its last section disappears.
			le.PutUint32(d[nsec:], v2NumSections-1)
			return d
		}, "table"},
		{"length-exceeds-file", func(t *testing.T, d []byte) []byte {
			row, _ := tableRow(t, d, secV2Vocab)
			le.PutUint64(row[12:], uint64(len(d))*4)
			return d
		}, "corpus-vocab"},
		{"offset-exceeds-file", func(t *testing.T, d []byte) []byte {
			row, _ := tableRow(t, d, secV2ExeTab)
			le.PutUint64(row[4:], uint64(len(d))+1)
			return d
		}, "corpus-exe-table"},
		{"overflowing-offset", func(t *testing.T, d []byte) []byte {
			// offset+length would wrap uint64: must be rejected, not wrapped.
			row, _ := tableRow(t, d, secV2ExeTab)
			le.PutUint64(row[4:], ^uint64(0)-8)
			return d
		}, "corpus-exe-table"},
	}
	for _, sec := range faultSections {
		_, e := tableRow(t, base, sec.tag)
		if e.length == 0 {
			t.Fatalf("testCorpus has an empty %s section", v2SectionName(sec.tag))
		}
		cases = append(cases,
			// Truncation at (and just inside) the section's boundaries.
			tc{"truncate-before-" + sec.name, func(t *testing.T, d []byte) []byte { return d[:e.off] }, ""},
			tc{"truncate-inside-" + sec.name, func(t *testing.T, d []byte) []byte { return d[:e.off+e.length-1] }, ""},
			// A single-bit flip inside the payload: the checksum must
			// catch what the structural checks cannot.
			tc{"bit-flip-in-" + sec.name, func(t *testing.T, d []byte) []byte {
				d[e.off+e.length/2] ^= 1
				return d
			}, v2SectionName(sec.tag)},
		)
	}
	// Lies inside payloads, with checksums repaired so the structural
	// checks themselves are exercised. The meta section opens with
	// single-byte varints: shard index, shard count, image base, total
	// images, executable base, total executables, then the vocabulary
	// size, the string blob size and the executable count.
	// Set rows whose markers offsets decrease, run past the markers slab,
	// or end short of the total the meta section declares (setFaults).
	for _, f := range setFaults[len(setFaults)-3:] {
		cases = append(cases, tc{f.name, func(t *testing.T, d []byte) []byte { return faultyShard(t, f.name) }, f.section})
	}
	cases = append(cases,
		tc{"interner-count-lie", func(t *testing.T, d []byte) []byte {
			patchSection(t, d, secV2Meta, func(b []byte) { b[6] = 0x7f })
			return d
		}, "corpus-vocab"},
		tc{"exes-count-lie", func(t *testing.T, d []byte) []byte {
			// Within the corpus total, lied about to match.
			patchSection(t, d, secV2Meta, func(b []byte) { b[5], b[8] = 0x7f, 0x7f })
			return d
		}, "corpus-exe-table"},
		tc{"exes-beyond-corpus-total", func(t *testing.T, d []byte) []byte {
			patchSection(t, d, secV2Meta, func(b []byte) { b[4] = 1 })
			return d
		}, "corpus-meta"},
		tc{"vocab-checksum-lie", func(t *testing.T, d []byte) []byte {
			vocabChecksumLie(t, d)
			return d
		}, "corpus-meta"},
		tc{"strand-id-out-of-vocabulary", func(t *testing.T, d []byte) []byte {
			patchSection(t, d, secV2IDs, func(b []byte) { le.PutUint32(b[len(b)-4:], uint32(len(vocab))) })
			return d
		}, "corpus-ids"},
		tc{"trailing-payload-bytes", func(t *testing.T, d []byte) []byte {
			// Grow the meta section's declared length into its alignment
			// padding: the opener must reject the leftover byte.
			row, e := tableRow(t, d, secV2Meta)
			le.PutUint64(row[12:], e.length+1)
			le.PutUint32(row[20:], crc32.Checksum(d[e.off:e.off+e.length+1], castagnoli))
			return d
		}, "corpus-meta"},
	)

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, err := OpenCorpusShardBytes(c.mutate(t, append([]byte(nil), base...)))
			if err == nil {
				err = touchShard(s)
			}
			if err == nil {
				t.Fatal("opener accepted corrupt input")
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error %v does not wrap ErrCorrupt", err)
			}
			var ce *CorruptError
			if !errors.As(err, &ce) || ce.Section == "" {
				t.Fatalf("error %v does not name a section", err)
			}
			if c.wantSection != "" && ce.Section != c.wantSection {
				t.Errorf("offending section = %q, want %q (err: %v)", ce.Section, c.wantSection, err)
			}
			if c.name == "previous-version" && !strings.Contains(err.Error(), "re-seal with `fwcrawl -sealed -shards N`") {
				t.Errorf("a previous version's error %v does not point at re-sealing", err)
			}
		})
	}
}

// vocabChecksumLie flips a bit of the vocabulary checksum shard 0's meta
// section records, behind a valid checksum of the meta section itself.
func vocabChecksumLie(t testing.TB, blob []byte) {
	t.Helper()
	table, err := parseCorpusV2Table(blob)
	if err != nil {
		t.Fatal(err)
	}
	var crc uint32
	for _, e := range table {
		if e.tag == secV2Vocab {
			crc = e.crc
		}
	}
	patchSection(t, blob, secV2Meta, func(b []byte) {
		off := 0
		for i := 0; i < 15; i++ { // the header and total varints
			_, n := binary.Uvarint(b[off:])
			off += n
		}
		if v, _ := binary.Uvarint(b[off:]); v != uint64(crc) {
			t.Fatalf("meta varint at %d is %x, not the vocabulary checksum %x", off, v, crc)
		}
		b[off] ^= 1
	})
}

// randomExes generates structurally valid executables in canonical form
// (nil for empty slices, sorted ID runs below vocab) for codec
// round-trips. About one procedure in four repeats the strand set of an
// earlier one, in its own executable or another; markers are drawn per
// set (setMarkers).
func randomExes(rng *rand.Rand, vocab int) []Exe {
	var exes []Exe
	var drawn [][]uint32
	for ei := rng.Intn(5); ei > 0; ei-- {
		e := Exe{Arch: uint8(rng.Intn(5)), Stripped: rng.Intn(2) == 0}
		nprocs := rng.Intn(6)
		for pi := 0; pi < nprocs; pi++ {
			p := Proc{
				Name:       randWord(rng),
				Addr:       rng.Uint32(),
				Exported:   rng.Intn(2) == 0,
				IDs:        randIDSet(rng, vocab, 30),
				BlockCount: rng.Intn(50),
				EdgeCount:  rng.Intn(80),
				InstCount:  rng.Intn(500),
			}
			if len(drawn) > 0 && rng.Intn(4) == 0 {
				p.IDs = slices.Clone(drawn[rng.Intn(len(drawn))])
			}
			drawn = append(drawn, p.IDs)
			p.Markers = setMarkers(p.IDs)
			for k := rng.Intn(3); k > 0; k-- {
				p.Calls = append(p.Calls, uint32(rng.Intn(nprocs)))
			}
			e.Procs = append(e.Procs, p)
		}
		exes = append(exes, e)
	}
	return exes
}

// setMarkers draws the markers of a strand set from the set itself, so
// every procedure holding one set holds the same markers, as analysis
// gives them: none for the empty set, up to three otherwise; nil when
// none.
func setMarkers(ids []uint32) []uint32 {
	if len(ids) == 0 {
		return nil
	}
	seed := int64(len(ids))
	for _, id := range ids {
		seed = seed*1000003 + int64(id)
	}
	r := rand.New(rand.NewSource(seed))
	var out []uint32
	for k := r.Intn(4); k > 0; k-- {
		out = append(out, r.Uint32())
	}
	return out
}

// randIDSet returns up to max strictly increasing IDs below vocab, nil
// when empty.
func randIDSet(rng *rand.Rand, vocab, max int) []uint32 {
	if vocab == 0 {
		return nil
	}
	n := rng.Intn(max + 1)
	seen := map[uint32]bool{}
	for i := 0; i < n; i++ {
		seen[uint32(rng.Intn(vocab))] = true
	}
	if len(seen) == 0 {
		return nil
	}
	out := make([]uint32, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func randWord(rng *rand.Rand) string {
	const letters = "abcdefghijklmnopqrstuvwxyz_/."
	n := rng.Intn(12)
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[rng.Intn(len(letters))]
	}
	return string(b)
}
