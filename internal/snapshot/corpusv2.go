package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sort"
	"sync"
)

// FWCORP version 2 is the mmap-oriented sealed-corpus layout. Version 1
// (corpus.go) optimizes for a compact stream: varints, delta-encoded ID
// runs, one decode pass that materializes everything. Version 2
// optimizes for retrieval: every bulk payload is a fixed-width
// little-endian slab in a 64-byte-aligned section, so a mapped shard is
// queryable without a decode pass — the executable table, the
// procedure table, the strand-ID / marker / call slabs, and the CSR
// inverted-index (row IDs, row ends, postings) are all usable directly
// from the mapped bytes. Integrity moves from open time to first touch:
// only the small meta section is CRC-verified at open; every other
// section is verified once, the first time an accessor needs it, so
// opening a multi-gigabyte shard costs O(pages touched), not O(bytes).
//
// A v2 file is one SHARD of a sealed corpus: a contiguous range of
// images sharing the corpus-wide frozen vocabulary. The shard header
// (inside the meta section) records its position — shard index/count,
// first global image index, total image count — so a directory of
// shards can be validated as one coherent corpus at open.
//
// Layout:
//
//	magic "FWCORP\r\n" | version=2 (u32) | section count (u32)
//	section table: tag (u32) | offset (u64) | length (u64) | CRC32-C (u32)
//	64-byte-aligned section payloads (zero padding between)
//
// Sections (all twelve always present; bulk ones may be empty):
//
//	corpus-meta         varint: shard header, slab totals, per-image identity
//	corpus-vocab        vocabLen x u64        dense ID -> strand hash
//	corpus-vocab-sorted vocabLen x u64 sorted hashes, then vocabLen x u32 IDs
//	corpus-strs         string blob (paths, procedure names; deduplicated)
//	corpus-exe-table    totalExes x 48 B fixed records
//	corpus-proc-table   totalProcs x 40 B fixed records
//	corpus-ids          idsLen x u32          per-proc sorted strand IDs
//	corpus-markers      markersLen x u32
//	corpus-calls        callsLen x u32
//	corpus-index-table  nImages x 32 B        per-image CSR extents
//	corpus-index-rows   rows x u32 row IDs, then rows x u32 row ends
//	corpus-index-posts  posts x (exe u32 | proc u32)

// CorpusFormatVersionV2 is the sharded mmap-friendly sealed-corpus
// layout version — the only shard version this package writes or opens.
const CorpusFormatVersionV2 = 2

// v2Align is the section payload alignment: one cache line, and enough
// for any slab element type, so zero-copy casts are always aligned.
const v2Align = 64

// maxSectionsV2 bounds the section table of a v2 shard. Larger than the
// v1 bound to leave tag space for additive sections.
const maxSectionsV2 = 32

// v2 section tags (disjoint from the v1 corpus tag space so a tag error
// is never a silent misread).
const (
	secV2Meta        = 16
	secV2Vocab       = 17
	secV2VocabSorted = 18
	secV2Strs        = 19
	secV2ExeTab      = 20
	secV2ProcTab     = 21
	secV2IDs         = 22
	secV2Markers     = 23
	secV2Calls       = 24
	secV2IdxTab      = 25
	secV2IdxRows     = 26
	secV2IdxPosts    = 27
)

// Fixed record sizes.
const (
	v2ExeRecSize  = 48 // pathOff u32, pathLen u32, procStart u32, procCount u32, idsStart u64, markersStart u64, callsStart u64, arch u8, stripped u8, pad[6]
	v2ProcRecSize = 40 // nameOff u32, nameLen u32, addr u32, flags u32, nIDs u32, nMarkers u32, nCalls u32, blocks u32, edges u32, insts u32
	v2IdxRecSize  = 32 // rowStart u64, rowCount u64, postStart u64, postCount u64
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
	case secV2VocabSorted:
		return "corpus-vocab-sorted"
	case secV2Strs:
		return "corpus-strs"
	case secV2ExeTab:
		return "corpus-exe-table"
	case secV2ProcTab:
		return "corpus-proc-table"
	case secV2IDs:
		return "corpus-ids"
	case secV2Markers:
		return "corpus-markers"
	case secV2Calls:
		return "corpus-calls"
	case secV2IdxTab:
		return "corpus-index-table"
	case secV2IdxRows:
		return "corpus-index-rows"
	case secV2IdxPosts:
		return "corpus-index-posts"
	}
	return fmt.Sprintf("unknown(%d)", tag)
}

// v2NumSections is the section count of a shard: the contiguous tag
// range [secV2Meta, secV2IdxPosts], every one required exactly once.
const v2NumSections = secV2IdxPosts - secV2Meta + 1

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
}

// CorpusVersion sniffs the format version of a sealed-corpus artifact
// without decoding it, so callers can dispatch between the v1 decode
// path and the v2 shard open path.
func CorpusVersion(data []byte) (int, error) {
	if len(data) < len(corpusMagic)+4 {
		return 0, corrupt("header", "truncated: %d bytes, need at least %d", len(data), len(corpusMagic)+4)
	}
	if string(data[:len(corpusMagic)]) != corpusMagic {
		return 0, corrupt("header", "bad corpus magic")
	}
	return int(binary.LittleEndian.Uint32(data[len(corpusMagic):])), nil
}

func alignUp(x, a uint64) uint64 { return (x + a - 1) &^ (a - 1) }

// EncodeCorpusShard serializes one shard of a sealed corpus into the v2
// container. The model is validated first (same invariants as
// EncodeCorpus) so a successful encode always produces a shard
// OpenCorpusShardBytes accepts.
func EncodeCorpusShard(c *Corpus, hdr ShardHeader) ([]byte, error) {
	if hdr.ShardCount < 1 || hdr.ShardIndex < 0 || hdr.ShardIndex >= hdr.ShardCount {
		return nil, fmt.Errorf("snapshot: encode: shard index %d out of range for %d shards", hdr.ShardIndex, hdr.ShardCount)
	}
	if hdr.ImageBase < 0 || hdr.TotalImages < hdr.ImageBase+len(c.Images) {
		return nil, fmt.Errorf("snapshot: encode: shard images [%d, %d) exceed declared corpus total %d", hdr.ImageBase, hdr.ImageBase+len(c.Images), hdr.TotalImages)
	}
	if len(c.Interner) > math.MaxUint32 {
		return nil, fmt.Errorf("snapshot: encode: corpus vocabulary of %d exceeds the dense-ID space", len(c.Interner))
	}
	for i := range c.Images {
		img := &c.Images[i]
		if err := validateExes(len(c.Interner), img.Exes); err != nil {
			return nil, fmt.Errorf("snapshot: corpus image %d: %w", i, err)
		}
		if err := validateIndex(len(c.Interner), img.Exes, img.Index); err != nil {
			return nil, fmt.Errorf("snapshot: corpus image %d: %w", i, err)
		}
	}

	le := binary.LittleEndian

	// String blob, deduplicated: paths and procedure names repeat
	// heavily across versions of the same device.
	var strs []byte
	strOffs := map[string]uint32{}
	intern := func(s string) (uint32, uint32, error) {
		if off, ok := strOffs[s]; ok {
			return off, uint32(len(s)), nil
		}
		if uint64(len(strs))+uint64(len(s)) > math.MaxUint32 {
			return 0, 0, fmt.Errorf("snapshot: encode: string blob exceeds the 32-bit offset space")
		}
		off := uint32(len(strs))
		strOffs[s] = off
		strs = append(strs, s...)
		return off, uint32(len(s)), nil
	}

	totalExes := 0
	for i := range c.Images {
		totalExes += len(c.Images[i].Exes)
	}
	if uint64(totalExes) > math.MaxUint32 {
		return nil, fmt.Errorf("snapshot: encode: %d executables exceed the 32-bit table space", totalExes)
	}

	exeTab := make([]byte, 0, totalExes*v2ExeRecSize)
	var procTab, idsB, markB, callB []byte
	var nProcs, nIDs, nMarkers, nCalls uint64
	for ii := range c.Images {
		for _, e := range c.Images[ii].Exes {
			pathOff, pathLen, err := intern(e.Path)
			if err != nil {
				return nil, err
			}
			if nProcs+uint64(len(e.Procs)) > math.MaxUint32 {
				return nil, fmt.Errorf("snapshot: encode: procedure count exceeds the 32-bit table space")
			}
			var rec [v2ExeRecSize]byte
			le.PutUint32(rec[0:], pathOff)
			le.PutUint32(rec[4:], pathLen)
			le.PutUint32(rec[8:], uint32(nProcs))
			le.PutUint32(rec[12:], uint32(len(e.Procs)))
			le.PutUint64(rec[16:], nIDs)
			le.PutUint64(rec[24:], nMarkers)
			le.PutUint64(rec[32:], nCalls)
			rec[40] = e.Arch
			if e.Stripped {
				rec[41] = 1
			}
			exeTab = append(exeTab, rec[:]...)
			for _, p := range e.Procs {
				nameOff, nameLen, err := intern(p.Name)
				if err != nil {
					return nil, err
				}
				if p.BlockCount > math.MaxUint32 || p.EdgeCount > math.MaxUint32 || p.InstCount > math.MaxUint32 {
					return nil, fmt.Errorf("snapshot: encode: procedure shape count exceeds 32 bits")
				}
				var flags uint32
				if p.Exported {
					flags |= 1
				}
				var prec [v2ProcRecSize]byte
				le.PutUint32(prec[0:], nameOff)
				le.PutUint32(prec[4:], nameLen)
				le.PutUint32(prec[8:], p.Addr)
				le.PutUint32(prec[12:], flags)
				le.PutUint32(prec[16:], uint32(len(p.IDs)))
				le.PutUint32(prec[20:], uint32(len(p.Markers)))
				le.PutUint32(prec[24:], uint32(len(p.Calls)))
				le.PutUint32(prec[28:], uint32(p.BlockCount))
				le.PutUint32(prec[32:], uint32(p.EdgeCount))
				le.PutUint32(prec[36:], uint32(p.InstCount))
				procTab = append(procTab, prec[:]...)
				for _, id := range p.IDs {
					idsB = le.AppendUint32(idsB, id)
				}
				for _, m := range p.Markers {
					markB = le.AppendUint32(markB, m)
				}
				for _, cc := range p.Calls {
					callB = le.AppendUint32(callB, uint32(cc))
				}
				nIDs += uint64(len(p.IDs))
				nMarkers += uint64(len(p.Markers))
				nCalls += uint64(len(p.Calls))
				nProcs++
			}
		}
	}

	// Per-image CSR index extents plus the row/posting slabs. Row ends
	// are cumulative within the image, so a shard's per-image index is
	// self-contained: posts[postStart+end[i-1] : postStart+end[i]].
	idxTab := make([]byte, v2IdxRecSize*len(c.Images))
	var rowIDsB, rowEndsB, postsB []byte
	var nRows, nPosts uint64
	for ii := range c.Images {
		img := &c.Images[ii]
		if img.Index == nil {
			continue
		}
		rec := idxTab[ii*v2IdxRecSize:]
		le.PutUint64(rec[0:], nRows)
		le.PutUint64(rec[8:], uint64(len(img.Index)))
		le.PutUint64(rec[16:], nPosts)
		end := uint64(0)
		for _, row := range img.Index {
			rowIDsB = le.AppendUint32(rowIDsB, row.ID)
			end += uint64(len(row.Posts))
			if end > math.MaxUint32 {
				return nil, fmt.Errorf("snapshot: encode: image %d posting count exceeds 32 bits", ii)
			}
			rowEndsB = le.AppendUint32(rowEndsB, uint32(end))
			for _, p := range row.Posts {
				postsB = le.AppendUint32(postsB, uint32(p.Exe))
				postsB = le.AppendUint32(postsB, uint32(p.Proc))
			}
		}
		le.PutUint64(rec[24:], end)
		nRows += uint64(len(img.Index))
		nPosts += end
	}

	// Sorted-vocabulary slab: hashes ascending plus the parallel dense
	// IDs, so a loaded shard binary-searches lookups straight off the
	// mapping instead of building a hash map at open.
	vocabB := make([]byte, 0, 8*len(c.Interner))
	for _, h := range c.Interner {
		vocabB = le.AppendUint64(vocabB, h)
	}
	order := make([]uint32, len(c.Interner))
	for i := range order {
		order[i] = uint32(i)
	}
	sort.Slice(order, func(a, b int) bool { return c.Interner[order[a]] < c.Interner[order[b]] })
	sortedB := make([]byte, 0, 12*len(c.Interner))
	for i, id := range order {
		if i > 0 && c.Interner[id] == c.Interner[order[i-1]] {
			return nil, fmt.Errorf("snapshot: encode: duplicate strand hash %016x in vocabulary", c.Interner[id])
		}
		sortedB = le.AppendUint64(sortedB, c.Interner[id])
	}
	for _, id := range order {
		sortedB = le.AppendUint32(sortedB, id)
	}

	// Meta: shard header, slab totals (the open-time structural
	// cross-check against section lengths), per-image identity.
	var meta []byte
	meta = appendUvarint(meta, uint64(hdr.ShardIndex))
	meta = appendUvarint(meta, uint64(hdr.ShardCount))
	meta = appendUvarint(meta, uint64(hdr.ImageBase))
	meta = appendUvarint(meta, uint64(hdr.TotalImages))
	meta = appendUvarint(meta, uint64(len(c.Interner)))
	meta = appendUvarint(meta, uint64(len(strs)))
	meta = appendUvarint(meta, uint64(totalExes))
	meta = appendUvarint(meta, nProcs)
	meta = appendUvarint(meta, nIDs)
	meta = appendUvarint(meta, nMarkers)
	meta = appendUvarint(meta, nCalls)
	meta = appendUvarint(meta, nRows)
	meta = appendUvarint(meta, nPosts)
	meta = appendUvarint(meta, uint64(len(c.Images)))
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
		meta = appendUvarint(meta, uint64(len(img.Exes)))
		if img.Index != nil {
			meta = append(meta, 1)
		} else {
			meta = append(meta, 0)
		}
	}

	type section struct {
		tag     uint32
		payload []byte
	}
	sections := []section{
		{secV2Meta, meta},
		{secV2Vocab, vocabB},
		{secV2VocabSorted, sortedB},
		{secV2Strs, strs},
		{secV2ExeTab, exeTab},
		{secV2ProcTab, procTab},
		{secV2IDs, idsB},
		{secV2Markers, markB},
		{secV2Calls, callB},
		{secV2IdxTab, idxTab},
		{secV2IdxRows, append(rowIDsB, rowEndsB...)},
		{secV2IdxPosts, postsB},
	}

	offs := make([]uint64, len(sections))
	off := alignUp(uint64(headerSize+len(sections)*tableEntrySize), v2Align)
	for i, s := range sections {
		offs[i] = off
		off = alignUp(off+uint64(len(s.payload)), v2Align)
	}
	last := len(sections) - 1
	total := offs[last] + uint64(len(sections[last].payload))

	out := make([]byte, total)
	copy(out, corpusMagic)
	le.PutUint32(out[len(corpusMagic):], CorpusFormatVersionV2)
	le.PutUint32(out[len(corpusMagic)+4:], uint32(len(sections)))
	p := headerSize
	for i, s := range sections {
		le.PutUint32(out[p:], s.tag)
		le.PutUint64(out[p+4:], offs[i])
		le.PutUint64(out[p+12:], uint64(len(s.payload)))
		le.PutUint32(out[p+20:], crc32.Checksum(s.payload, castagnoli))
		p += tableEntrySize
	}
	for i, s := range sections {
		copy(out[offs[i]:], s.payload)
	}
	return out, nil
}

// parseCorpusV2Table validates the shard header and section table:
// magic, version, exactly the twelve sections present exactly once,
// every declared range inside the input and 64-byte aligned. Checksums
// are NOT verified here — that is per-section, on first touch.
func parseCorpusV2Table(data []byte) ([]tableEntry, error) {
	if len(data) < headerSize {
		return nil, corrupt("header", "truncated: %d bytes, need at least %d", len(data), headerSize)
	}
	if string(data[:len(corpusMagic)]) != corpusMagic {
		return nil, corrupt("header", "bad corpus magic")
	}
	version := binary.LittleEndian.Uint32(data[len(corpusMagic):])
	if version != CorpusFormatVersionV2 {
		return nil, corrupt("header", "unsupported corpus format version %d (this opener reads version %d; re-seal with `fwcrawl -sealed -shards N`)", version, CorpusFormatVersionV2)
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
		if e.tag < secV2Meta || e.tag > secV2IdxPosts {
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
	nexes                   int
	indexed                 bool
}

// v2Totals are the slab element counts declared by the meta section and
// cross-checked against section byte lengths at open.
type v2Totals struct {
	vocab, strs, exes, procs, ids, markers, calls, rows, posts uint64
}

// ImageInfo describes one image of an open shard without materializing
// any of its content.
type ImageInfo struct {
	Vendor      string
	Device      string
	Version     string
	Skipped     []Skip
	Executables int
	Indexed     bool
}

// ExeData is one executable materialized from a shard. IDs and Markers
// alias the mapped file (valid until Close); Calls and the strings are
// copies.
type ExeData struct {
	Path     string
	Arch     uint8
	Stripped bool
	Procs    []ProcData
}

// ProcData is one procedure of an ExeData.
type ProcData struct {
	Name       string
	Addr       uint32
	Exported   bool
	IDs        []uint32
	Markers    []uint32
	Calls      []int32
	BlockCount int
	EdgeCount  int
	InstCount  int
}

// IndexSlabs is one image's inverted index viewed directly over the
// mapped file: RowIDs[i] is the i-th indexed strand ID, its postings
// are Posts[RowEnds[i-1]:RowEnds[i]] (RowEnds[-1] taken as 0). All
// three slices alias the mapping; semantic validation (monotone rows,
// in-range postings) is the consumer's, structural bounds are checked
// here.
type IndexSlabs struct {
	RowIDs  []uint32
	RowEnds []uint32
	Posts   []Posting
}

// CorpusShard is one open v2 shard. All accessors are safe for
// concurrent use; slices they return alias the underlying mapping and
// are invalid after Close.
type CorpusShard struct {
	data      []byte
	closer    func() error
	mapped    bool
	closeOnce sync.Once

	hdr      ShardHeader
	totals   v2Totals
	images   []v2Image
	exeStart []uint32 // per-image prefix sums into the exe table, len(images)+1

	secs [v2NumSections]shardSection

	vocabSlab lazySlab[[]uint64]
	sorted    lazySlab[sortedVocab]
	idsSlabL  lazySlab[[]uint32]
	markSlabL lazySlab[[]uint32]
	callSlabL lazySlab[[]uint32]
	rowsL     lazySlab[rowSlabs]
	postsL    lazySlab[[]Posting]
}

type sortedVocab struct {
	hashes []uint64
	ids    []uint32
}

type rowSlabs struct {
	ids, ends []uint32
}

// OpenCorpusShardBytes opens a v2 shard over caller-provided bytes
// (already-read file, test buffer). The bytes must stay valid and
// unmodified for the shard's lifetime.
func OpenCorpusShardBytes(data []byte) (*CorpusShard, error) {
	return openCorpusShard(data, nil, false)
}

// OpenCorpusShardFile memory-maps (or, off Linux, reads) a v2 shard
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
	if shardCount == 0 || shardIndex >= shardCount {
		return r.corrupt("shard index %d out of range for %d shards", shardIndex, shardCount)
	}
	s.hdr = ShardHeader{
		ShardIndex:  int(shardIndex),
		ShardCount:  int(shardCount),
		ImageBase:   int(imageBase),
		TotalImages: int(totalImages),
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
		{&t.procs, "procedure count", math.MaxUint32},
		{&t.ids, "strand ID count", v2MaxSlabElems},
		{&t.markers, "marker count", v2MaxSlabElems},
		{&t.calls, "call count", v2MaxSlabElems},
		{&t.rows, "index row count", v2MaxSlabElems},
		{&t.posts, "posting count", v2MaxSlabElems},
	} {
		if *f.dst, err = read(f.what, f.max); err != nil {
			return err
		}
	}
	nImages, err := r.count("image", 5)
	if err != nil {
		return err
	}
	if s.hdr.ImageBase+nImages > s.hdr.TotalImages {
		return r.corrupt("shard images [%d, %d) exceed declared corpus total %d", s.hdr.ImageBase, s.hdr.ImageBase+nImages, s.hdr.TotalImages)
	}
	s.images = make([]v2Image, nImages)
	s.exeStart = make([]uint32, nImages+1)
	sumExes := uint64(0)
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
		if img.nexes, err = r.uvarintInt("image executable count"); err != nil {
			return err
		}
		if img.indexed, err = r.bool(); err != nil {
			return err
		}
		sumExes += uint64(img.nexes)
		if sumExes > t.exes {
			return r.corrupt("per-image executable counts exceed declared total %d", t.exes)
		}
		s.exeStart[i+1] = uint32(sumExes)
	}
	if len(r.b) != 0 {
		return r.corrupt("%d trailing bytes after payload", len(r.b))
	}
	if sumExes != t.exes {
		return r.corrupt("per-image executable counts sum to %d, meta declares %d", sumExes, t.exes)
	}
	return nil
}

// checkLengths cross-checks every bulk section's byte length against
// the totals the meta section declared, so slab views never need
// per-access length recomputation and a truncated or padded section is
// rejected at open without reading its payload.
func (s *CorpusShard) checkLengths() error {
	t := &s.totals
	for _, c := range []struct {
		tag  uint32
		want uint64
	}{
		{secV2Vocab, t.vocab * 8},
		{secV2VocabSorted, t.vocab * 12},
		{secV2Strs, t.strs},
		{secV2ExeTab, t.exes * v2ExeRecSize},
		{secV2ProcTab, t.procs * v2ProcRecSize},
		{secV2IDs, t.ids * 4},
		{secV2Markers, t.markers * 4},
		{secV2Calls, t.calls * 4},
		{secV2IdxTab, uint64(len(s.images)) * v2IdxRecSize},
		{secV2IdxRows, t.rows * 8},
		{secV2IdxPosts, t.posts * 8},
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

// SizeBytes returns the shard file's size.
func (s *CorpusShard) SizeBytes() int64 { return int64(len(s.data)) }

// Mapped reports whether the shard is memory-mapped (vs read into
// heap memory by the portable fallback).
func (s *CorpusShard) Mapped() bool { return s.mapped }

// VocabChecksum returns the stored CRC32-C and byte length of the
// vocabulary section, the cheap cross-shard identity check: shards of
// one sealed corpus share a frozen vocabulary byte-for-byte.
func (s *CorpusShard) VocabChecksum() (crc uint32, length uint64) {
	e := s.secs[secV2Vocab-secV2Meta].entry
	return e.crc, e.length
}

// Image describes image i without touching any bulk section.
func (s *CorpusShard) Image(i int) ImageInfo {
	img := &s.images[i]
	return ImageInfo{
		Vendor:      img.vendor,
		Device:      img.device,
		Version:     img.version,
		Skipped:     img.skipped,
		Executables: img.nexes,
		Indexed:     img.indexed,
	}
}

// Vocab returns the frozen vocabulary (dense ID -> hash), aliasing the
// mapping where possible.
func (s *CorpusShard) Vocab() ([]uint64, error) {
	return s.vocabSlab.get(func() ([]uint64, error) {
		b, err := s.section(secV2Vocab)
		if err != nil {
			return nil, err
		}
		return castU64(b), nil
	})
}

// SortedVocab returns the vocabulary sorted by hash with the parallel
// dense IDs — the binary-searchable lookup structure.
func (s *CorpusShard) SortedVocab() ([]uint64, []uint32, error) {
	sv, err := s.sorted.get(func() (sortedVocab, error) {
		b, err := s.section(secV2VocabSorted)
		if err != nil {
			return sortedVocab{}, err
		}
		split := int(s.totals.vocab * 8)
		return sortedVocab{hashes: castU64(b[:split]), ids: castU32(b[split:])}, nil
	})
	return sv.hashes, sv.ids, err
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

func (s *CorpusShard) rowSlabsGet() (rowSlabs, error) {
	return s.rowsL.get(func() (rowSlabs, error) {
		b, err := s.section(secV2IdxRows)
		if err != nil {
			return rowSlabs{}, err
		}
		split := int(s.totals.rows * 4)
		return rowSlabs{ids: castU32(b[:split]), ends: castU32(b[split:])}, nil
	})
}

func (s *CorpusShard) postsSlab() ([]Posting, error) {
	return s.postsL.get(func() ([]Posting, error) {
		b, err := s.section(secV2IdxPosts)
		if err != nil {
			return nil, err
		}
		return castPostings(b), nil
	})
}

// ProcCounts returns the per-executable procedure counts of image img
// from the executable table alone — what a foreign index needs to
// validate postings without materializing any executable.
func (s *CorpusShard) ProcCounts(img int) ([]int32, error) {
	exeTab, err := s.section(secV2ExeTab)
	if err != nil {
		return nil, err
	}
	base := int(s.exeStart[img])
	out := make([]int32, s.images[img].nexes)
	for i := range out {
		n := binary.LittleEndian.Uint32(exeTab[(base+i)*v2ExeRecSize+12:])
		if n > math.MaxInt32 {
			return nil, corrupt("corpus-exe-table", "executable %d declares %d procedures", base+i, n)
		}
		out[i] = int32(n)
	}
	return out, nil
}

// Exe materializes executable i of image img. The returned IDs and
// Markers slices alias the mapped slabs; everything else is copied.
// Strand IDs are validated (strictly increasing, inside the
// vocabulary) and call targets are validated against the executable,
// so consumers can rely on the same invariants DecodeCorpus enforces.
func (s *CorpusShard) Exe(img, i int) (*ExeData, error) {
	if img < 0 || img >= len(s.images) || i < 0 || i >= s.images[img].nexes {
		return nil, fmt.Errorf("snapshot: shard executable (%d, %d) out of range", img, i)
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

	gi := int(s.exeStart[img]) + i
	rec := exeTab[gi*v2ExeRecSize:][:v2ExeRecSize]
	le := binary.LittleEndian
	str := func(off, n uint32, what string) (string, error) {
		if uint64(off)+uint64(n) > uint64(len(strs)) {
			return "", corrupt("corpus-exe-table", "executable %d %s [%d, %d+%d) exceeds the %d-byte string blob", gi, what, off, off, n, len(strs))
		}
		return string(strs[off : off+n]), nil
	}
	path, err := str(le.Uint32(rec[0:]), le.Uint32(rec[4:]), "path")
	if err != nil {
		return nil, err
	}
	procStart, procCount := le.Uint32(rec[8:]), le.Uint32(rec[12:])
	if uint64(procStart)+uint64(procCount) > s.totals.procs {
		return nil, corrupt("corpus-exe-table", "executable %d procedures [%d, %d+%d) exceed the %d-entry table", gi, procStart, procStart, procCount, s.totals.procs)
	}
	idOff, mOff, cOff := le.Uint64(rec[16:]), le.Uint64(rec[24:]), le.Uint64(rec[32:])
	if rec[41] > 1 {
		return nil, corrupt("corpus-exe-table", "executable %d stripped flag byte %d is neither 0 nor 1", gi, rec[41])
	}
	ed := &ExeData{
		Path:     path,
		Arch:     rec[40],
		Stripped: rec[41] == 1,
		Procs:    make([]ProcData, procCount),
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
		nid, nmark, ncall := le.Uint32(prec[16:]), le.Uint32(prec[20:]), le.Uint32(prec[24:])
		if idOff+uint64(nid) > uint64(len(ids)) {
			return nil, corrupt("corpus-ids", "procedure %d strand IDs [%d, %d+%d) exceed the %d-entry slab", int(procStart)+pi, idOff, idOff, nid, len(ids))
		}
		if mOff+uint64(nmark) > uint64(len(marks)) {
			return nil, corrupt("corpus-markers", "procedure %d markers [%d, %d+%d) exceed the %d-entry slab", int(procStart)+pi, mOff, mOff, nmark, len(marks))
		}
		if cOff+uint64(ncall) > uint64(len(calls)) {
			return nil, corrupt("corpus-calls", "procedure %d calls [%d, %d+%d) exceed the %d-entry slab", int(procStart)+pi, cOff, cOff, ncall, len(calls))
		}
		p.IDs = ids[idOff : idOff+uint64(nid) : idOff+uint64(nid)]
		for k, id := range p.IDs {
			if k > 0 && id <= p.IDs[k-1] {
				return nil, corrupt("corpus-ids", "procedure %d strand IDs not strictly increasing at element %d", int(procStart)+pi, k)
			}
			if uint64(id) >= s.totals.vocab {
				return nil, corrupt("corpus-ids", "procedure %d references strand ID %d outside the %d-entry vocabulary", int(procStart)+pi, id, s.totals.vocab)
			}
		}
		p.Markers = marks[mOff : mOff+uint64(nmark) : mOff+uint64(nmark)]
		if ncall > 0 {
			p.Calls = make([]int32, ncall)
			for k := range p.Calls {
				c := calls[cOff+uint64(k)]
				if c >= procCount {
					return nil, corrupt("corpus-calls", "procedure %d calls procedure %d of %d", int(procStart)+pi, c, procCount)
				}
				p.Calls[k] = int32(c)
			}
		}
		p.BlockCount = int(le.Uint32(prec[28:]))
		p.EdgeCount = int(le.Uint32(prec[32:]))
		p.InstCount = int(le.Uint32(prec[36:]))
		idOff += uint64(nid)
		mOff += uint64(nmark)
		cOff += uint64(ncall)
	}
	return ed, nil
}

// Index returns image img's inverted index as slab views over the
// mapping, nil when the image was sealed without an index, and a
// non-nil empty IndexSlabs for a present-but-empty index.
func (s *CorpusShard) Index(img int) (*IndexSlabs, error) {
	if img < 0 || img >= len(s.images) {
		return nil, fmt.Errorf("snapshot: shard image %d out of range", img)
	}
	if !s.images[img].indexed {
		return nil, nil
	}
	idxTab, err := s.section(secV2IdxTab)
	if err != nil {
		return nil, err
	}
	le := binary.LittleEndian
	rec := idxTab[img*v2IdxRecSize:][:v2IdxRecSize]
	rowStart, rowCount := le.Uint64(rec[0:]), le.Uint64(rec[8:])
	postStart, postCount := le.Uint64(rec[16:]), le.Uint64(rec[24:])
	if rowStart+rowCount > s.totals.rows {
		return nil, corrupt("corpus-index-table", "image %d rows [%d, %d+%d) exceed the %d-row slab", img, rowStart, rowStart, rowCount, s.totals.rows)
	}
	if postStart+postCount > s.totals.posts {
		return nil, corrupt("corpus-index-table", "image %d postings [%d, %d+%d) exceed the %d-posting slab", img, postStart, postStart, postCount, s.totals.posts)
	}
	if rowCount == 0 {
		if postCount != 0 {
			return nil, corrupt("corpus-index-table", "image %d declares %d postings across 0 rows", img, postCount)
		}
		return &IndexSlabs{}, nil
	}
	rows, err := s.rowSlabsGet()
	if err != nil {
		return nil, err
	}
	posts, err := s.postsSlab()
	if err != nil {
		return nil, err
	}
	out := &IndexSlabs{
		RowIDs:  rows.ids[rowStart : rowStart+rowCount : rowStart+rowCount],
		RowEnds: rows.ends[rowStart : rowStart+rowCount : rowStart+rowCount],
		Posts:   posts[postStart : postStart+postCount : postStart+postCount],
	}
	if uint64(out.RowEnds[rowCount-1]) != postCount {
		return nil, corrupt("corpus-index-table", "image %d row ends terminate at %d, index table declares %d postings", img, out.RowEnds[rowCount-1], postCount)
	}
	return out, nil
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
