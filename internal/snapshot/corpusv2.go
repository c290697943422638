package snapshot

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"
	"sync"
)

// The FWCORP shard container is the one persisted form of a sealed
// corpus. It optimizes for retrieval: every bulk payload is a
// fixed-width little-endian slab in a 64-byte-aligned section, so a
// mapped shard is usable without a decode pass — the executable,
// occurrence and procedure tables, the set table and the strand-ID /
// marker / call slabs are all read directly from the mapped bytes. Integrity is checked on
// first touch: only the small meta section is CRC-verified at open; every
// other section is verified once, the first time an accessor needs it, so
// opening a multi-gigabyte shard costs O(pages touched), not O(bytes).
//
// A file is one SHARD of a sealed corpus. The same executable ships in
// image after image, so the corpus stores each distinct executable once —
// two are the same when everything but their path is equal — under a
// corpus-wide executable ID, and an image is a list of occurrences (path,
// executable ID). A shard holds a contiguous range of the images and,
// independently, a contiguous range of the executable IDs; its images may
// name executables any shard stores. The vocabulary is stored once, in
// shard 0; every other shard records its checksum. The shard header
// (inside the meta section) records the position — shard index/count,
// first image and image total, first executable ID and executable total —
// so a directory of shards can be validated as one coherent corpus at
// open.
//
// Layout:
//
//	magic "FWCORP\r\n" | version=10 (u32) | section count (u32)
//	section table: tag (u32) | offset (u64) | length (u64) | CRC32-C (u32)
//	64-byte-aligned section payloads (zero padding between)
//
// Sections (all ten always present; bulk ones may be empty):
//
//	corpus-meta         varint: shard header, slab totals, vocabulary CRC, per-image identity
//	corpus-vocab        vocabLen x u64        strand hashes ascending: dense ID = rank (shard 0; empty elsewhere)
//	corpus-strs         string blob (paths, procedure names; deduplicated)
//	corpus-exe-table    shardExes x 24 B fixed records (no path)
//	corpus-proc-table   totalProcs x 36 B fixed records, each naming its strand set
//	corpus-sets         (nsets+1) x (u32 IDs offset, u32 markers offset)
//	corpus-ids          idsLen x u32          the shard's distinct sorted strand-ID sets
//	corpus-markers      markersLen x u32      each distinct set's markers
//	corpus-calls        callsLen x u32
//	corpus-occurrences  totalOccs x 12 B      image by image: path, corpus-wide executable ID
//
// Each distinct strand set is stored once per shard: the same library
// code ships in executable after executable, so procedures repeat their
// sets, and a procedure record names its set by number. Sets are
// numbered in order of first appearance; row k of corpus-sets and row
// k+1 bound set k's IDs in corpus-ids and, because a procedure's markers
// are the marker constants of its strands, the markers every procedure
// holding the set has, in corpus-markers. A dense ID is the rank of its
// hash in the vocabulary, so a shard's bytes do not depend on the order
// analysis met the strands in, and the vocabulary is its own lookup
// table (the directory corpusindex.NewFrozen builds over it). A shard
// stores no inverted index either: the index a search scans is derived
// from the sets (ProcSets) the first time the shard is searched.

// CorpusFormatVersion is the shard layout version — the only one this
// package writes or opens. Versions 1 to 5 were earlier layouts (a
// monolithic stream, per-image indexes, a signature section, each shard
// storing its own images' executables and a copy of the vocabulary,
// postings as (executable, procedure) pairs). Version 6 held version
// 7's sections over strands canonicalized with stack-frame offsets kept
// as literals: every strand hash has moved since, so its vocabulary
// would answer wrongly. Version 7 was this layout plus two sections
// holding the inverted index (corpus-index-rows and corpus-index-posts),
// each posting a second copy of one procedure's membership in
// corpus-ids. Version 8 was version 9 without corpus-sets: corpus-ids
// held every procedure's set in full, repeats included, and each
// executable record its first ID's offset. Version 9 was this layout
// with a second, hash-ordered copy of the vocabulary and its ID
// permutation (corpus-vocab-sorted; IDs were numbered first-seen), and
// markers stored per procedure: each procedure record held its marker
// count and each executable record its first marker's offset. A file
// carrying any other version fails to open with a pointer to re-sealing.
const CorpusFormatVersion = 10

// v2Align is the section payload alignment: one cache line, and enough
// for any slab element type, so zero-copy casts are always aligned.
const v2Align = 64

// maxSectionsV2 bounds the section table of a shard.
const maxSectionsV2 = 32

// Shard section tags.
const (
	secV2Meta    = 16
	secV2Vocab   = 17
	secV2Strs    = 18
	secV2ExeTab  = 19
	secV2ProcTab = 20
	secV2Sets    = 21
	secV2IDs     = 22
	secV2Markers = 23
	secV2Calls   = 24
	secV2Occs    = 25
)

// Fixed record sizes.
const (
	v2ExeRecSize  = 24 // procStart u32, procCount u32, callsStart u64, arch u8, stripped u8, pad[6]
	v2ProcRecSize = 36 // nameOff u32, nameLen u32, addr u32, flags u32, set u32, nCalls u32, blocks u32, edges u32, insts u32
	v2OccRecSize  = 12 // pathOff u32, pathLen u32, exeRef u32
)

// v2MaxSlabElems caps every declared slab element count before it is
// multiplied by an element size, so total-length arithmetic stays in
// uint64 without overflow. Far above any real corpus (the paper-scale
// target is ~40M procedures).
const v2MaxSlabElems = 1 << 56

func v2SectionName(tag uint32) string {
	switch tag {
	case secV2Meta:
		return "corpus-meta"
	case secV2Vocab:
		return "corpus-vocab"
	case secV2Strs:
		return "corpus-strs"
	case secV2ExeTab:
		return "corpus-exe-table"
	case secV2ProcTab:
		return "corpus-proc-table"
	case secV2Sets:
		return "corpus-sets"
	case secV2IDs:
		return "corpus-ids"
	case secV2Markers:
		return "corpus-markers"
	case secV2Calls:
		return "corpus-calls"
	case secV2Occs:
		return "corpus-occurrences"
	}
	return fmt.Sprintf("unknown(%d)", tag)
}

// v2NumSections is the section count of a shard: the contiguous tag
// range [secV2Meta, secV2Occs], every one required exactly once.
const v2NumSections = secV2Occs - secV2Meta + 1

// ShardHeader locates one shard inside a sharded sealed corpus.
type ShardHeader struct {
	// ShardIndex is this shard's position in [0, ShardCount).
	ShardIndex int
	// ShardCount is the number of shards the corpus was split into.
	ShardCount int
	// ImageBase is the global index of this shard's first image.
	ImageBase int
	// TotalImages is the image count across all shards.
	TotalImages int
	// ExeBase is the corpus-wide ID of this shard's first executable.
	ExeBase int
	// TotalExes is the distinct executable count across all shards: every
	// occurrence names an ID below it.
	TotalExes int
}

func alignUp(x, a uint64) uint64 { return (x + a - 1) &^ (a - 1) }

// Vocab is a corpus vocabulary encoded once for every shard of the
// corpus: the corpus-vocab section shard 0 stores, and the checksum every
// shard records.
type Vocab struct {
	n     int
	vocab []byte
	crc   uint32
}

// EncodeVocab encodes a frozen vocabulary: its hashes ascending, each
// strand's dense ID its rank (corpusindex.Frozen.Vocab). It rejects
// hashes that do not strictly increase, which a duplicate hash cannot.
func EncodeVocab(sorted []uint64) (*Vocab, error) {
	le := binary.LittleEndian
	vocabB := make([]byte, 0, 8*len(sorted))
	for i, h := range sorted {
		if i > 0 && h <= sorted[i-1] {
			return nil, fmt.Errorf("snapshot: encode: vocabulary does not strictly increase at strand hash %016x (a duplicate hash, or an unsorted vocabulary)", h)
		}
		vocabB = le.AppendUint64(vocabB, h)
	}
	return &Vocab{n: len(sorted), vocab: vocabB, crc: crc32.Checksum(vocabB, castagnoli)}, nil
}

// EncodeShard serializes one shard of a sealed corpus whose vocabulary
// is the one v encodes: shard 0 stores it, every shard its checksum, and
// c's strand IDs index it. c.Exes are the executables with IDs [hdr.ExeBase,
// hdr.ExeBase+len(c.Exes)). The model is validated first so a successful
// encode always produces a shard OpenCorpusShardBytes accepts.
//
// The encode is two passes. The first, after validating the model, which
// numbers the distinct strand sets, counts the slabs and builds the two
// variable-width sections, the string blob and the meta section; the
// second writes every fixed-width section in place into the one output
// buffer, sized exactly, so the encoder allocates little beyond the shard
// it returns.
func (v *Vocab) EncodeShard(c *Corpus, hdr ShardHeader) ([]byte, error) {
	if hdr.ShardCount < 1 || hdr.ShardIndex < 0 || hdr.ShardIndex >= hdr.ShardCount {
		return nil, fmt.Errorf("snapshot: encode: shard index %d out of range for %d shards", hdr.ShardIndex, hdr.ShardCount)
	}
	if hdr.ImageBase < 0 || hdr.TotalImages < hdr.ImageBase+len(c.Images) {
		return nil, fmt.Errorf("snapshot: encode: shard images [%d, %d) exceed declared corpus total %d", hdr.ImageBase, hdr.ImageBase+len(c.Images), hdr.TotalImages)
	}
	if hdr.ExeBase < 0 || hdr.TotalExes < hdr.ExeBase+len(c.Exes) {
		return nil, fmt.Errorf("snapshot: encode: shard executables [%d, %d) exceed declared corpus total %d", hdr.ExeBase, hdr.ExeBase+len(c.Exes), hdr.TotalExes)
	}
	st, err := validateCorpus(c, v.n, hdr.TotalExes)
	if err != nil {
		return nil, err
	}

	// Pass 1. The string blob is deduplicated: paths and procedure names
	// repeat heavily across versions of the same device.
	var strs []byte
	strOffs := map[string]uint32{}
	intern := func(s string) error {
		if _, ok := strOffs[s]; ok {
			return nil
		}
		if uint64(len(strs))+uint64(len(s)) > math.MaxUint32 {
			return fmt.Errorf("snapshot: encode: string blob exceeds the 32-bit offset space")
		}
		strOffs[s] = uint32(len(strs))
		strs = append(strs, s...)
		return nil
	}
	var nCalls, nOccs uint64
	for _, e := range c.Exes {
		for _, p := range e.Procs {
			if err := intern(p.Name); err != nil {
				return nil, err
			}
			if p.BlockCount > math.MaxUint32 || p.EdgeCount > math.MaxUint32 || p.InstCount > math.MaxUint32 {
				return nil, fmt.Errorf("snapshot: encode: procedure shape count exceeds 32 bits")
			}
			nCalls += uint64(len(p.Calls))
		}
	}
	for ii := range c.Images {
		for _, oc := range c.Images[ii].Occs {
			if err := intern(oc.Path); err != nil {
				return nil, err
			}
		}
		nOccs += uint64(len(c.Images[ii].Occs))
	}
	nProcs, nSets, nIDs, nMarkers := uint64(len(st.setOf)), uint64(len(st.first)), st.nIDs, st.nMarkers

	// Meta: shard header, slab totals (the open-time structural
	// cross-check against section lengths), per-image identity.
	var meta []byte
	for _, n := range []uint64{
		uint64(hdr.ShardIndex), uint64(hdr.ShardCount), uint64(hdr.ImageBase), uint64(hdr.TotalImages),
		uint64(hdr.ExeBase), uint64(hdr.TotalExes), uint64(v.n), uint64(len(strs)),
		uint64(len(c.Exes)), nOccs, nProcs, nSets, nIDs, nMarkers, nCalls, uint64(v.crc), uint64(len(c.Images)),
	} {
		meta = appendUvarint(meta, n)
	}
	for i := range c.Images {
		img := &c.Images[i]
		meta = appendString(meta, img.Vendor)
		meta = appendString(meta, img.Device)
		meta = appendString(meta, img.Version)
		meta = appendUvarint(meta, uint64(len(img.Skipped)))
		for _, s := range img.Skipped {
			meta = appendString(meta, s.Path)
			meta = appendString(meta, s.Err)
		}
		meta = appendUvarint(meta, uint64(len(img.Occs)))
	}

	// Pass 2: lay the sections out in tag order and allocate the shard.
	var vocabB []byte
	if hdr.ShardIndex == 0 {
		vocabB = v.vocab
	}
	sizes := [v2NumSections]uint64{
		uint64(len(meta)), uint64(len(vocabB)), uint64(len(strs)),
		uint64(len(c.Exes)) * v2ExeRecSize, nProcs * v2ProcRecSize, (nSets + 1) * 8,
		nIDs * 4, nMarkers * 4, nCalls * 4, nOccs * v2OccRecSize,
	}
	var offs [v2NumSections]uint64
	off := alignUp(uint64(headerSize+v2NumSections*tableEntrySize), v2Align)
	for i, n := range sizes {
		offs[i] = off
		off = alignUp(off+n, v2Align)
	}
	out := make([]byte, offs[v2NumSections-1]+sizes[v2NumSections-1])
	sec := func(tag uint32) []byte {
		i := tag - secV2Meta
		return out[offs[i] : offs[i]+sizes[i]]
	}
	copy(sec(secV2Meta), meta)
	copy(sec(secV2Vocab), vocabB)
	copy(sec(secV2Strs), strs)

	// Every fixed-width section is written in place, each record at its
	// slot and each slab element at its cursor.
	le := binary.LittleEndian
	setsB, idsB, markB := sec(secV2Sets), sec(secV2IDs), sec(secV2Markers)
	var ids, marks uint64
	for k, p := range st.first {
		le.PutUint32(setsB[8*k:], uint32(ids))
		le.PutUint32(setsB[8*k+4:], uint32(marks))
		for _, id := range p.IDs {
			le.PutUint32(idsB[4*ids:], id)
			ids++
		}
		for _, m := range p.Markers {
			le.PutUint32(markB[4*marks:], m)
			marks++
		}
	}
	le.PutUint32(setsB[8*nSets:], uint32(ids))
	le.PutUint32(setsB[8*nSets+4:], uint32(marks))
	exeTab, procTab, callB := sec(secV2ExeTab), sec(secV2ProcTab), sec(secV2Calls)
	var pi, calls uint64
	for ei, e := range c.Exes {
		rec := exeTab[ei*v2ExeRecSize:][:v2ExeRecSize]
		le.PutUint32(rec[0:], uint32(pi))
		le.PutUint32(rec[4:], uint32(len(e.Procs)))
		le.PutUint64(rec[8:], calls)
		rec[16] = e.Arch
		if e.Stripped {
			rec[17] = 1
		}
		for _, p := range e.Procs {
			var flags uint32
			if p.Exported {
				flags |= 1
			}
			prec := procTab[pi*v2ProcRecSize:][:v2ProcRecSize]
			le.PutUint32(prec[0:], strOffs[p.Name])
			le.PutUint32(prec[4:], uint32(len(p.Name)))
			le.PutUint32(prec[8:], p.Addr)
			le.PutUint32(prec[12:], flags)
			le.PutUint32(prec[16:], st.setOf[pi])
			le.PutUint32(prec[20:], uint32(len(p.Calls)))
			le.PutUint32(prec[24:], uint32(p.BlockCount))
			le.PutUint32(prec[28:], uint32(p.EdgeCount))
			le.PutUint32(prec[32:], uint32(p.InstCount))
			pi++
			for _, cc := range p.Calls {
				le.PutUint32(callB[4*calls:], cc)
				calls++
			}
		}
	}
	// Occurrence table, image by image in image order.
	occTab := sec(secV2Occs)
	for ii := range c.Images {
		for _, oc := range c.Images[ii].Occs {
			le.PutUint32(occTab[0:], strOffs[oc.Path])
			le.PutUint32(occTab[4:], uint32(len(oc.Path)))
			le.PutUint32(occTab[8:], uint32(oc.Exe))
			occTab = occTab[v2OccRecSize:]
		}
	}

	copy(out, corpusMagic)
	le.PutUint32(out[len(corpusMagic):], CorpusFormatVersion)
	le.PutUint32(out[len(corpusMagic)+4:], v2NumSections)
	for i := range sizes {
		tag := uint32(secV2Meta + i)
		row := out[headerSize+i*tableEntrySize:]
		le.PutUint32(row, tag)
		le.PutUint64(row[4:], offs[i])
		le.PutUint64(row[12:], sizes[i])
		le.PutUint32(row[20:], crc32.Checksum(sec(tag), castagnoli))
	}
	return out, nil
}

// parseCorpusV2Table validates the shard header and section table:
// magic, version, exactly the ten sections present exactly once,
// every declared range inside the input, 64-byte aligned and overlapping
// no other. Checksums are NOT verified here — that is per-section, on
// first touch.
func parseCorpusV2Table(data []byte) ([]tableEntry, error) {
	if len(data) < headerSize {
		return nil, corrupt("header", "truncated: %d bytes, need at least %d", len(data), headerSize)
	}
	if string(data[:len(corpusMagic)]) != corpusMagic {
		return nil, corrupt("header", "bad corpus magic")
	}
	version := binary.LittleEndian.Uint32(data[len(corpusMagic):])
	if version != CorpusFormatVersion {
		return nil, corrupt("header", "unsupported corpus format version %d (this opener reads version %d; re-seal with `fwcrawl -sealed -shards N`)", version, CorpusFormatVersion)
	}
	n := binary.LittleEndian.Uint32(data[len(corpusMagic)+4:])
	if n == 0 || n > maxSectionsV2 {
		return nil, corrupt("header", "unreasonable section count %d", n)
	}
	if uint64(len(data)) < uint64(headerSize)+uint64(n)*tableEntrySize {
		return nil, corrupt("table", "truncated: %d sections declared but table does not fit in %d bytes", n, len(data))
	}
	entries := make([]tableEntry, n)
	var seen [v2NumSections]bool
	for i := range entries {
		row := data[headerSize+i*tableEntrySize:]
		e := tableEntry{
			tag:    binary.LittleEndian.Uint32(row),
			off:    binary.LittleEndian.Uint64(row[4:]),
			length: binary.LittleEndian.Uint64(row[12:]),
			crc:    binary.LittleEndian.Uint32(row[20:]),
		}
		if e.tag < secV2Meta || e.tag > secV2Occs {
			return nil, corrupt("table", "unknown section tag %d", e.tag)
		}
		name := v2SectionName(e.tag)
		if seen[e.tag-secV2Meta] {
			return nil, corrupt("table", "duplicate %s section", name)
		}
		seen[e.tag-secV2Meta] = true
		if e.off > uint64(len(data)) || e.length > uint64(len(data))-e.off {
			return nil, corrupt(name, "declared range [%d, %d+%d) exceeds the %d-byte input", e.off, e.off, e.length, len(data))
		}
		if e.length > 0 && e.off%v2Align != 0 {
			return nil, corrupt(name, "section offset %d is not %d-byte aligned", e.off, v2Align)
		}
		entries[i] = e
	}
	for i, ok := range seen {
		if !ok {
			return nil, corrupt("table", "missing required %s section", v2SectionName(uint32(secV2Meta+i)))
		}
	}
	// A row pointed into another section's bytes could pass its checksum
	// by coincidence, so sections may not overlap.
	byOff := slices.Clone(entries)
	slices.SortFunc(byOff, func(a, b tableEntry) int { return cmp.Compare(a.off, b.off) })
	var prev tableEntry
	for _, e := range byOff {
		if e.length == 0 {
			continue
		}
		if prev.length > 0 && e.off < prev.off+prev.length {
			return nil, corrupt("table", "%s section [%d, %d+%d) overlaps the %s section [%d, %d+%d)", v2SectionName(e.tag), e.off, e.off, e.length, v2SectionName(prev.tag), prev.off, prev.off, prev.length)
		}
		prev = e
	}
	return entries, nil
}

// shardSection is one section of an open shard: CRC-verified at most
// once, on first access.
type shardSection struct {
	entry tableEntry
	once  sync.Once
	err   error
	b     []byte
}

// lazySlab memoizes a typed view over a section, built on first use.
type lazySlab[T any] struct {
	once sync.Once
	v    T
	err  error
}

func (l *lazySlab[T]) get(f func() (T, error)) (T, error) {
	l.once.Do(func() { l.v, l.err = f() })
	return l.v, l.err
}

// v2Image is the per-image identity decoded from the meta section.
type v2Image struct {
	vendor, device, version string
	skipped                 []Skip
	noccs                   int
}

// v2Totals are the slab element counts declared by the meta section and
// cross-checked against section byte lengths at open.
type v2Totals struct {
	vocab, strs, exes, occs, procs, sets, ids, markers, calls uint64
}

// ImageInfo describes one image of an open shard without materializing
// any of its content. Executables counts the image's occurrences.
type ImageInfo struct {
	Vendor      string
	Device      string
	Version     string
	Skipped     []Skip
	Executables int
}

// CorpusShard is one open shard. All accessors are safe for
// concurrent use; slices they return alias the underlying mapping and
// are invalid after Close.
type CorpusShard struct {
	data      []byte
	closer    func() error
	mapped    bool
	closeOnce sync.Once

	hdr      ShardHeader
	totals   v2Totals
	vocabCRC uint32 // the checksum of shard 0's corpus-vocab section
	images   []v2Image
	occStart []uint32 // per-image prefix sums into the occurrence table, len(images)+1

	secs [v2NumSections]shardSection

	vocabSlab lazySlab[[]uint64]
	setRowsL  lazySlab[[]uint32]
	idsSlabL  lazySlab[[]uint32]
	markSlabL lazySlab[[]uint32]
	callSlabL lazySlab[[]uint32]
	occsL     lazySlab[[]Occurrence]
}

// OpenCorpusShardBytes opens a shard over caller-provided bytes
// (already-read file, test buffer). The bytes must stay valid and
// unmodified for the shard's lifetime.
func OpenCorpusShardBytes(data []byte) (*CorpusShard, error) {
	return openCorpusShard(data, nil, false)
}

// OpenCorpusShardFile memory-maps (or, off Linux, reads) a shard
// file. The returned shard owns the mapping; Close releases it.
func OpenCorpusShardFile(path string) (*CorpusShard, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data, closer, mapped, err := mapFile(f, st.Size())
	if err != nil {
		return nil, err
	}
	return openCorpusShard(data, closer, mapped)
}

// readAllFile is the portable mapFile fallback: one read, no mapping.
func readAllFile(f *os.File, size int64) ([]byte, func() error, bool, error) {
	if size < 0 || int64(int(size)) != size {
		return nil, nil, false, fmt.Errorf("snapshot: unreasonable file size %d", size)
	}
	b := make([]byte, size)
	if _, err := io.ReadFull(f, b); err != nil {
		return nil, nil, false, err
	}
	return b, nil, false, nil
}

func openCorpusShard(data []byte, closer func() error, mapped bool) (*CorpusShard, error) {
	fail := func(err error) (*CorpusShard, error) {
		if closer != nil {
			closer()
		}
		return nil, err
	}
	entries, err := parseCorpusV2Table(data)
	if err != nil {
		return fail(err)
	}
	s := &CorpusShard{data: data, closer: closer, mapped: mapped}
	for _, e := range entries {
		s.secs[e.tag-secV2Meta].entry = e
	}
	// Only the meta section is verified and decoded eagerly: it is the
	// structural skeleton every other check hangs off, and it is small.
	metaB, err := s.section(secV2Meta)
	if err != nil {
		return fail(err)
	}
	if err := s.decodeMeta(metaB); err != nil {
		return fail(err)
	}
	if err := s.checkLengths(); err != nil {
		return fail(err)
	}
	return s, nil
}

func (s *CorpusShard) section(tag uint32) ([]byte, error) {
	sec := &s.secs[tag-secV2Meta]
	sec.once.Do(func() {
		e := sec.entry
		b := s.data[e.off : e.off+e.length]
		if got := crc32.Checksum(b, castagnoli); got != e.crc {
			sec.err = corrupt(v2SectionName(tag), "checksum mismatch: stored %08x, computed %08x", e.crc, got)
			return
		}
		sec.b = b
	})
	return sec.b, sec.err
}

func (s *CorpusShard) decodeMeta(b []byte) error {
	r := &reader{b: b, section: "corpus-meta"}
	read := func(what string, max uint64) (uint64, error) {
		v, err := r.uvarint()
		if err != nil {
			return 0, err
		}
		if v > max {
			return 0, r.corrupt("%s %d is unreasonably large", what, v)
		}
		return v, nil
	}
	shardIndex, err := read("shard index", math.MaxInt32)
	if err != nil {
		return err
	}
	shardCount, err := read("shard count", math.MaxInt32)
	if err != nil {
		return err
	}
	imageBase, err := read("image base", math.MaxInt32)
	if err != nil {
		return err
	}
	totalImages, err := read("total image count", math.MaxInt32)
	if err != nil {
		return err
	}
	exeBase, err := read("executable base", math.MaxInt32)
	if err != nil {
		return err
	}
	totalExes, err := read("total executable count", math.MaxInt32)
	if err != nil {
		return err
	}
	if shardCount == 0 || shardIndex >= shardCount {
		return r.corrupt("shard index %d out of range for %d shards", shardIndex, shardCount)
	}
	s.hdr = ShardHeader{
		ShardIndex:  int(shardIndex),
		ShardCount:  int(shardCount),
		ImageBase:   int(imageBase),
		TotalImages: int(totalImages),
		ExeBase:     int(exeBase),
		TotalExes:   int(totalExes),
	}
	t := &s.totals
	for _, f := range []struct {
		dst  *uint64
		what string
		max  uint64
	}{
		{&t.vocab, "vocabulary size", math.MaxUint32},
		{&t.strs, "string blob size", math.MaxUint32},
		{&t.exes, "executable count", math.MaxUint32},
		{&t.occs, "occurrence count", math.MaxUint32},
		{&t.procs, "procedure count", math.MaxUint32},
		{&t.sets, "strand set count", math.MaxUint32},
		{&t.ids, "strand ID count", math.MaxUint32},
		{&t.markers, "marker count", math.MaxUint32},
		{&t.calls, "call count", v2MaxSlabElems},
	} {
		if *f.dst, err = read(f.what, f.max); err != nil {
			return err
		}
	}
	if exeBase+t.exes > totalExes {
		return r.corrupt("shard executables [%d, %d) exceed declared corpus total %d", exeBase, exeBase+t.exes, totalExes)
	}
	crc, err := read("vocabulary checksum", math.MaxUint32)
	if err != nil {
		return err
	}
	s.vocabCRC = uint32(crc)
	nImages, err := r.count("image", 5)
	if err != nil {
		return err
	}
	if s.hdr.ImageBase+nImages > s.hdr.TotalImages {
		return r.corrupt("shard images [%d, %d) exceed declared corpus total %d", s.hdr.ImageBase, s.hdr.ImageBase+nImages, s.hdr.TotalImages)
	}
	s.images = make([]v2Image, nImages)
	s.occStart = make([]uint32, nImages+1)
	sumOccs := uint64(0)
	for i := 0; i < nImages; i++ {
		img := &s.images[i]
		if img.vendor, err = r.str(); err != nil {
			return err
		}
		if img.device, err = r.str(); err != nil {
			return err
		}
		if img.version, err = r.str(); err != nil {
			return err
		}
		nskips, err := r.count("skip", 2)
		if err != nil {
			return err
		}
		for k := 0; k < nskips; k++ {
			var sk Skip
			if sk.Path, err = r.str(); err != nil {
				return err
			}
			if sk.Err, err = r.str(); err != nil {
				return err
			}
			img.skipped = append(img.skipped, sk)
		}
		if img.noccs, err = r.uvarintInt("image occurrence count"); err != nil {
			return err
		}
		sumOccs += uint64(img.noccs)
		if sumOccs > t.occs {
			return corrupt("corpus-occurrences", "per-image occurrence counts exceed the %d-entry table", t.occs)
		}
		s.occStart[i+1] = uint32(sumOccs)
	}
	if len(r.b) != 0 {
		return r.corrupt("%d trailing bytes after payload", len(r.b))
	}
	if sumOccs != t.occs {
		return corrupt("corpus-occurrences", "per-image occurrence counts sum to %d, the table holds %d", sumOccs, t.occs)
	}
	return nil
}

// checkLengths cross-checks every bulk section's byte length against
// the totals the meta section declared, so slab views never need
// per-access length recomputation and a truncated or padded section is
// rejected at open without reading its payload. Shard 0 must also record
// the checksum its vocabulary section carries: the one every other shard
// is compared by.
func (s *CorpusShard) checkLengths() error {
	t := &s.totals
	vocabBytes := uint64(0)
	if s.holdsVocab() {
		vocabBytes = t.vocab
		if e := s.secs[secV2Vocab-secV2Meta].entry; e.crc != s.vocabCRC {
			return corrupt("corpus-meta", "records vocabulary checksum %08x, the corpus-vocab section carries %08x", s.vocabCRC, e.crc)
		}
	}
	for _, c := range []struct {
		tag  uint32
		want uint64
	}{
		{secV2Vocab, vocabBytes * 8},
		{secV2Strs, t.strs},
		{secV2ExeTab, t.exes * v2ExeRecSize},
		{secV2ProcTab, t.procs * v2ProcRecSize},
		{secV2Sets, (t.sets + 1) * 8},
		{secV2IDs, t.ids * 4},
		{secV2Markers, t.markers * 4},
		{secV2Calls, t.calls * 4},
		{secV2Occs, t.occs * v2OccRecSize},
	} {
		if got := s.secs[c.tag-secV2Meta].entry.length; got != c.want {
			return corrupt(v2SectionName(c.tag), "section holds %d bytes, meta requires %d", got, c.want)
		}
	}
	return nil
}

// Header returns the shard's position within its corpus.
func (s *CorpusShard) Header() ShardHeader { return s.hdr }

// NumImages returns the number of images stored in this shard.
func (s *CorpusShard) NumImages() int { return len(s.images) }

// NumExes returns the number of distinct executables stored in this
// shard: corpus-wide IDs [Header().ExeBase, Header().ExeBase+NumExes()).
func (s *CorpusShard) NumExes() int { return int(s.totals.exes) }

// StoredCounts returns how many procedures, distinct strand sets, strand
// IDs and markers the shard stores, as its meta section declares them and
// the open checked against the section lengths: no section is read.
func (s *CorpusShard) StoredCounts() (procs, sets, ids, markers int) {
	return int(s.totals.procs), int(s.totals.sets), int(s.totals.ids), int(s.totals.markers)
}

// holdsVocab reports whether the shard stores the vocabulary section:
// shard 0 does, every other shard records only its checksum.
func (s *CorpusShard) holdsVocab() bool { return s.hdr.ShardIndex == 0 }

// SizeBytes returns the shard file's size.
func (s *CorpusShard) SizeBytes() int64 { return int64(len(s.data)) }

// Mapped reports whether the shard is memory-mapped (vs read into
// heap memory by the portable fallback).
func (s *CorpusShard) Mapped() bool { return s.mapped }

// VocabChecksum returns the CRC32-C and byte length of the corpus
// vocabulary section as this shard records them, the cheap cross-shard
// identity check: shards of one sealed corpus share one frozen
// vocabulary, which shard 0 stores.
func (s *CorpusShard) VocabChecksum() (crc uint32, length uint64) {
	return s.vocabCRC, s.totals.vocab * 8
}

// Image describes image i without touching any bulk section.
func (s *CorpusShard) Image(i int) ImageInfo {
	img := &s.images[i]
	return ImageInfo{
		Vendor:      img.vendor,
		Device:      img.device,
		Version:     img.version,
		Skipped:     img.skipped,
		Executables: img.noccs,
	}
}

// Vocab returns the frozen vocabulary (dense ID -> hash, ascending),
// aliasing the mapping where possible; nil on a shard other than 0, which
// stores none. Whoever builds a lookup over it checks that it ascends
// (corpusindex.NewFrozen).
func (s *CorpusShard) Vocab() ([]uint64, error) {
	if !s.holdsVocab() {
		return nil, nil
	}
	return s.vocabSlab.get(func() ([]uint64, error) {
		b, err := s.section(secV2Vocab)
		if err != nil {
			return nil, err
		}
		return castU64(b), nil
	})
}

// SortedVocab returns the vocabulary, which is sorted, with its dense IDs,
// which are the identity; nil on a shard other than 0. It is kept for
// bench/'s replay, which hands both to corpusindex.FrozenFromSlabs.
func (s *CorpusShard) SortedVocab() ([]uint64, []uint32, error) {
	vocab, err := s.Vocab()
	if err != nil || vocab == nil {
		return nil, nil, err
	}
	ids := make([]uint32, len(vocab))
	for i := range ids {
		ids[i] = uint32(i)
	}
	return vocab, ids, nil
}

func (s *CorpusShard) idsSlab() ([]uint32, error) {
	return s.idsSlabL.get(func() ([]uint32, error) {
		b, err := s.section(secV2IDs)
		if err != nil {
			return nil, err
		}
		return castU32(b), nil
	})
}

// setRows returns the set table: nsets+1 rows, each an offset into
// corpus-ids and one into corpus-markers, rows[2k] and rows[2k+1]. Each
// column is checked on first use to run monotonically from 0 to the total
// the meta section declares for its slab, so set k's IDs,
// rows[2k]:rows[2k+2], and markers, rows[2k+1]:rows[2k+3], are ranges
// inside the slabs.
func (s *CorpusShard) setRows() ([]uint32, error) {
	return s.setRowsL.get(func() ([]uint32, error) {
		b, err := s.section(secV2Sets)
		if err != nil {
			return nil, err
		}
		rows := castU32(b)
		for col, slab := range [2]struct {
			what  string
			total uint64
		}{{"IDs", s.totals.ids}, {"markers", s.totals.markers}} {
			if rows[col] != 0 {
				return nil, corrupt("corpus-sets", "set 0's %s start at offset %d, not 0", slab.what, rows[col])
			}
			for k := 2 + col; k < len(rows); k += 2 {
				if rows[k] < rows[k-2] {
					return nil, corrupt("corpus-sets", "set %d's %s end at offset %d, before they start at %d", k/2-1, slab.what, rows[k], rows[k-2])
				}
				if uint64(rows[k]) > slab.total {
					return nil, corrupt("corpus-sets", "set %d's %s end at offset %d, past the %d-entry slab", k/2-1, slab.what, rows[k], slab.total)
				}
			}
			if end := uint64(rows[len(rows)-2+col]); end != slab.total {
				return nil, corrupt("corpus-sets", "the sets' %s end at offset %d, the meta section declares %d", slab.what, end, slab.total)
			}
		}
		return rows, nil
	})
}

func (s *CorpusShard) markSlab() ([]uint32, error) {
	return s.markSlabL.get(func() ([]uint32, error) {
		b, err := s.section(secV2Markers)
		if err != nil {
			return nil, err
		}
		return castU32(b), nil
	})
}

func (s *CorpusShard) callSlab() ([]uint32, error) {
	return s.callSlabL.get(func() ([]uint32, error) {
		b, err := s.section(secV2Calls)
		if err != nil {
			return nil, err
		}
		return castU32(b), nil
	})
}

// ProcSets returns what a group derives its index from on its first
// search: the procedure count of every distinct executable, the shard's
// distinct strand sets, and the number of the set each procedure holds,
// in slot order — executable by executable, in table order. It checks
// every set once, as Exe does (IDs strictly increasing and below the
// vocabulary size), and every set number against the table, and decodes
// no names; the sets alias the mapping. The executables together may
// declare no more procedures than the procedure table holds, so the index
// built over them is bounded by the shard's bytes.
func (s *CorpusShard) ProcSets() (procCounts []int32, sets [][]uint32, setOf []uint32, err error) {
	exeTab, err := s.section(secV2ExeTab)
	if err != nil {
		return nil, nil, nil, err
	}
	procTab, err := s.section(secV2ProcTab)
	if err != nil {
		return nil, nil, nil, err
	}
	rows, err := s.setRows()
	if err != nil {
		return nil, nil, nil, err
	}
	ids, err := s.idsSlab()
	if err != nil {
		return nil, nil, nil, err
	}
	sets = make([][]uint32, s.totals.sets)
	for k := range sets {
		if sets[k], err = s.checkSet(ids[rows[2*k]:rows[2*k+2]:rows[2*k+2]], k); err != nil {
			return nil, nil, nil, err
		}
	}
	procCounts = make([]int32, s.totals.exes)
	setOf = make([]uint32, 0, s.totals.procs)
	maxProcs := min(s.totals.procs, math.MaxInt32)
	for gi := range procCounts {
		rec := exeTab[gi*v2ExeRecSize:][:v2ExeRecSize]
		procStart, procCount, err := s.procRange(gi, rec)
		if err != nil {
			return nil, nil, nil, err
		}
		if uint64(len(setOf))+uint64(procCount) > maxProcs {
			return nil, nil, nil, corrupt("corpus-exe-table", "executables up to %d declare %d procedures, the table holds %d", gi, uint64(len(setOf))+uint64(procCount), maxProcs)
		}
		for pi := int(procStart); pi < int(procStart+procCount); pi++ {
			k, err := s.setNumber(procTab, pi)
			if err != nil {
				return nil, nil, nil, err
			}
			setOf = append(setOf, k)
		}
		procCounts[gi] = int32(procCount)
	}
	return procCounts, sets, setOf, nil
}

// procRange returns the procedure range the record of executable gi
// declares, checked against the procedure table.
func (s *CorpusShard) procRange(gi int, rec []byte) (start, count uint32, err error) {
	start, count = binary.LittleEndian.Uint32(rec[0:]), binary.LittleEndian.Uint32(rec[4:])
	if uint64(start)+uint64(count) > s.totals.procs {
		return 0, 0, corrupt("corpus-exe-table", "executable %d procedures [%d, %d+%d) exceed the %d-entry table", gi, start, start, count, s.totals.procs)
	}
	return start, count, nil
}

// setNumber returns the number of procedure proc's strand set, checked
// against the set table.
func (s *CorpusShard) setNumber(procTab []byte, proc int) (uint32, error) {
	k := binary.LittleEndian.Uint32(procTab[proc*v2ProcRecSize+16:])
	if uint64(k) >= s.totals.sets {
		return 0, corrupt("corpus-proc-table", "procedure %d holds strand set %d of %d", proc, k, s.totals.sets)
	}
	return k, nil
}

// checkSet returns set k, checked: strictly increasing, below the
// vocabulary size.
func (s *CorpusShard) checkSet(set []uint32, k int) ([]uint32, error) {
	for i, id := range set {
		if i > 0 && id <= set[i-1] {
			return nil, corrupt("corpus-ids", "strand set %d not strictly increasing at element %d", k, i)
		}
		if uint64(id) >= s.totals.vocab {
			return nil, corrupt("corpus-ids", "strand set %d references strand ID %d outside the %d-entry vocabulary", k, id, s.totals.vocab)
		}
	}
	return set, nil
}

// Occurrences lists image img's executables in image order: the path
// each was found under and the corpus-wide ID of the distinct executable
// it is. The first call verifies the whole table — every path inside the
// string blob, every ID below the corpus's executable total — so
// consumers index with Exe unchecked. That every executable is named by
// some occurrence is a property of the shard set, checked by its opener.
func (s *CorpusShard) Occurrences(img int) ([]Occurrence, error) {
	if img < 0 || img >= len(s.images) {
		return nil, fmt.Errorf("snapshot: shard image %d out of range", img)
	}
	all, err := s.occsL.get(func() ([]Occurrence, error) {
		tab, err := s.section(secV2Occs)
		if err != nil {
			return nil, err
		}
		strs, err := s.section(secV2Strs)
		if err != nil {
			return nil, err
		}
		le := binary.LittleEndian
		out := make([]Occurrence, s.totals.occs)
		for i := range out {
			rec := tab[i*v2OccRecSize:][:v2OccRecSize]
			off, n, ref := le.Uint32(rec[0:]), le.Uint32(rec[4:]), le.Uint32(rec[8:])
			if uint64(off)+uint64(n) > uint64(len(strs)) {
				return nil, corrupt("corpus-occurrences", "occurrence %d path [%d, %d+%d) exceeds the %d-byte string blob", i, off, off, n, len(strs))
			}
			if int(ref) >= s.hdr.TotalExes {
				return nil, corrupt("corpus-occurrences", "occurrence %d references executable %d of %d", i, ref, s.hdr.TotalExes)
			}
			out[i] = Occurrence{Path: string(strs[off : off+n]), Exe: int(ref)}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	return all[s.occStart[img]:s.occStart[img+1]:s.occStart[img+1]], nil
}

// Exe decodes distinct executable gi. The returned IDs, Markers and Calls
// slices alias the mapped slabs — procedures holding one strand set, in
// this executable or another of the shard, alias one range of corpus-ids
// and one of corpus-markers — and the names are copied. Strand IDs are
// validated (strictly increasing, inside the vocabulary) and call targets
// are validated against the executable, so consumers can rely on the
// invariants the encoder enforces.
func (s *CorpusShard) Exe(gi int) (*Exe, error) {
	if gi < 0 || uint64(gi) >= s.totals.exes {
		return nil, fmt.Errorf("snapshot: shard executable %d out of range", gi)
	}
	exeTab, err := s.section(secV2ExeTab)
	if err != nil {
		return nil, err
	}
	procTab, err := s.section(secV2ProcTab)
	if err != nil {
		return nil, err
	}
	strs, err := s.section(secV2Strs)
	if err != nil {
		return nil, err
	}
	rows, err := s.setRows()
	if err != nil {
		return nil, err
	}
	ids, err := s.idsSlab()
	if err != nil {
		return nil, err
	}
	marks, err := s.markSlab()
	if err != nil {
		return nil, err
	}
	calls, err := s.callSlab()
	if err != nil {
		return nil, err
	}

	rec := exeTab[gi*v2ExeRecSize:][:v2ExeRecSize]
	le := binary.LittleEndian
	procStart, procCount, err := s.procRange(gi, rec)
	if err != nil {
		return nil, err
	}
	cOff := le.Uint64(rec[8:])
	if rec[17] > 1 {
		return nil, corrupt("corpus-exe-table", "executable %d stripped flag byte %d is neither 0 nor 1", gi, rec[17])
	}
	ed := &Exe{
		Arch:     rec[16],
		Stripped: rec[17] == 1,
		Procs:    make([]Proc, procCount),
	}
	for pi := range ed.Procs {
		prec := procTab[(int(procStart)+pi)*v2ProcRecSize:][:v2ProcRecSize]
		p := &ed.Procs[pi]
		nameOff, nameLen := le.Uint32(prec[0:]), le.Uint32(prec[4:])
		if uint64(nameOff)+uint64(nameLen) > uint64(len(strs)) {
			return nil, corrupt("corpus-proc-table", "procedure %d name [%d, %d+%d) exceeds the %d-byte string blob", int(procStart)+pi, nameOff, nameOff, nameLen, len(strs))
		}
		p.Name = string(strs[nameOff : nameOff+nameLen])
		p.Addr = le.Uint32(prec[8:])
		flags := le.Uint32(prec[12:])
		if flags&^1 != 0 {
			return nil, corrupt("corpus-proc-table", "procedure %d has unknown flag bits %#x", int(procStart)+pi, flags)
		}
		p.Exported = flags&1 != 0
		k, err := s.setNumber(procTab, int(procStart)+pi)
		if err != nil {
			return nil, err
		}
		if p.IDs, err = s.checkSet(ids[rows[2*k]:rows[2*k+2]:rows[2*k+2]], int(k)); err != nil {
			return nil, err
		}
		mlo, mhi := rows[2*k+1], rows[2*k+3]
		p.Markers = marks[mlo:mhi:mhi]
		ncall := le.Uint32(prec[20:])
		if cOff+uint64(ncall) > uint64(len(calls)) {
			return nil, corrupt("corpus-calls", "procedure %d calls [%d, %d+%d) exceed the %d-entry slab", int(procStart)+pi, cOff, cOff, ncall, len(calls))
		}
		p.Calls = calls[cOff : cOff+uint64(ncall) : cOff+uint64(ncall)]
		for _, c := range p.Calls {
			if c >= procCount {
				return nil, corrupt("corpus-calls", "procedure %d calls procedure %d of %d", int(procStart)+pi, c, procCount)
			}
		}
		p.BlockCount = int(le.Uint32(prec[24:]))
		p.EdgeCount = int(le.Uint32(prec[28:]))
		p.InstCount = int(le.Uint32(prec[32:]))
		cOff += uint64(ncall)
	}
	return ed, nil
}

// Close releases the mapping. Every slice previously returned by an
// accessor becomes invalid. Close is idempotent and safe to call
// concurrently with nothing else.
func (s *CorpusShard) Close() error {
	var err error
	s.closeOnce.Do(func() {
		if s.closer != nil {
			err = s.closer()
		}
	})
	return err
}
