package snapshot

import (
	"encoding/binary"
	"hash/crc32"
	"math"
)

// tableEntry is one parsed section-table row.
type tableEntry struct {
	tag    uint32
	off    uint64
	length uint64
	crc    uint32
}

// parseTable validates the header and section table against the raw
// input: magic, version, section count, and that every declared
// (offset, length) range lies inside the input. Checksums are not yet
// verified here.
func parseTable(data []byte) ([]tableEntry, error) {
	if len(data) < headerSize {
		return nil, corrupt("header", "truncated: %d bytes, need at least %d", len(data), headerSize)
	}
	if string(data[:len(magic)]) != magic {
		return nil, corrupt("header", "bad magic")
	}
	version := binary.LittleEndian.Uint32(data[len(magic):])
	if version != FormatVersion {
		return nil, corrupt("header", "unsupported format version %d (this decoder reads version %d)", version, FormatVersion)
	}
	n := binary.LittleEndian.Uint32(data[len(magic)+4:])
	if n == 0 || n > maxSections {
		return nil, corrupt("header", "unreasonable section count %d", n)
	}
	if uint64(len(data)) < uint64(headerSize)+uint64(n)*tableEntrySize {
		return nil, corrupt("table", "truncated: %d sections declared but table does not fit in %d bytes", n, len(data))
	}
	entries := make([]tableEntry, n)
	seen := map[uint32]bool{}
	for i := range entries {
		row := data[headerSize+i*tableEntrySize:]
		e := tableEntry{
			tag:    binary.LittleEndian.Uint32(row),
			off:    binary.LittleEndian.Uint64(row[4:]),
			length: binary.LittleEndian.Uint64(row[12:]),
			crc:    binary.LittleEndian.Uint32(row[20:]),
		}
		name := sectionName(e.tag)
		switch e.tag {
		case secMeta, secInterner, secExes, secIndex:
		default:
			return nil, corrupt("table", "unknown section tag %d", e.tag)
		}
		if seen[e.tag] {
			return nil, corrupt("table", "duplicate %s section", name)
		}
		seen[e.tag] = true
		// Bounds check in uint64 space: both comparisons individually,
		// so a huge declared length cannot overflow into acceptance.
		if e.off > uint64(len(data)) || e.length > uint64(len(data))-e.off {
			return nil, corrupt(name, "declared range [%d, %d+%d) exceeds the %d-byte input", e.off, e.off, e.length, len(data))
		}
		entries[i] = e
	}
	for _, tag := range []uint32{secMeta, secInterner, secExes} {
		if !seen[tag] {
			return nil, corrupt("table", "missing required %s section", sectionName(tag))
		}
	}
	return entries, nil
}

// Decode parses a snapshot. Input is untrusted: every failure mode —
// truncation, bit flips, version skew, lying lengths, out-of-range
// references — returns an error wrapping ErrCorrupt naming the
// offending section. Decode never panics, and allocations driven by
// declared counts are always bounded by the bytes actually present.
func Decode(data []byte) (*Image, error) {
	entries, err := parseTable(data)
	if err != nil {
		return nil, err
	}
	img := &Image{}
	for _, e := range entries {
		name := sectionName(e.tag)
		payload := data[e.off : e.off+e.length]
		if got := crc32.Checksum(payload, castagnoli); got != e.crc {
			return nil, corrupt(name, "checksum mismatch: stored %08x, computed %08x", e.crc, got)
		}
		r := &reader{b: payload, section: name}
		switch e.tag {
		case secMeta:
			err = decodeMeta(r, img)
		case secInterner:
			err = decodeInterner(r, img)
		case secExes:
			err = decodeExes(r, img)
		case secIndex:
			err = decodeIndex(r, img)
		}
		if err != nil {
			return nil, err
		}
		if len(r.b) != 0 {
			return nil, corrupt(name, "%d trailing bytes after payload", len(r.b))
		}
	}
	// Cross-section validation: exes and index reference the interner's
	// ID space and each other.
	if err := linkCheck(img); err != nil {
		return nil, err
	}
	return img, nil
}

// reader is a bounds-checked consumer over one section payload.
type reader struct {
	b       []byte
	section string
}

func (r *reader) corrupt(format string, args ...any) error {
	return corrupt(r.section, format, args...)
}

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		return 0, r.corrupt("truncated or overlong varint")
	}
	r.b = r.b[n:]
	return v, nil
}

// count reads a uvarint element count and rejects it when even at
// minBytes per element it cannot fit in the remaining payload — the
// guard that keeps attacker-declared lengths from driving allocations.
//
// Scale audit: the cap is relative (remaining payload bytes / minBytes),
// not an absolute constant, so multi-gigabyte corpus sections pass
// through unchanged — a section holding N bytes can never drive more
// than N/minBytes elements of allocation, at 12-image and at
// paper-scale corpora alike. The shard layout (corpusv2.go) goes
// further: its slab views are casts over the mapped file, sized by the
// cross-checked section length, and allocate nothing at all.
func (r *reader) count(what string, minBytes int) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(len(r.b))/uint64(minBytes) {
		return 0, r.corrupt("%s count %d cannot fit in %d remaining bytes", what, v, len(r.b))
	}
	return int(v), nil
}

func (r *reader) u32() (uint32, error) {
	if len(r.b) < 4 {
		return 0, r.corrupt("truncated u32")
	}
	v := binary.LittleEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v, nil
}

func (r *reader) u64() (uint64, error) {
	if len(r.b) < 8 {
		return 0, r.corrupt("truncated u64")
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v, nil
}

func (r *reader) bool() (bool, error) {
	if len(r.b) < 1 {
		return false, r.corrupt("truncated flag byte")
	}
	v := r.b[0]
	r.b = r.b[1:]
	if v > 1 {
		return false, r.corrupt("flag byte %d is neither 0 nor 1", v)
	}
	return v == 1, nil
}

func (r *reader) byte() (uint8, error) {
	if len(r.b) < 1 {
		return 0, r.corrupt("truncated byte")
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v, nil
}

func (r *reader) str() (string, error) {
	n, err := r.count("string byte", 1)
	if err != nil {
		return "", err
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s, nil
}

// uvarint32 reads a uvarint that must fit uint32.
func (r *reader) uvarint32(what string) (uint32, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > math.MaxUint32 {
		return 0, r.corrupt("%s %d exceeds 32 bits", what, v)
	}
	return uint32(v), nil
}

// uvarintInt reads a uvarint that must fit a non-negative int32-sized
// int (shape counts, call targets).
func (r *reader) uvarintInt(what string) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > math.MaxInt32 {
		return 0, r.corrupt("%s %d exceeds 31 bits", what, v)
	}
	return int(v), nil
}

// deltaIDs reads n strictly increasing uint32 IDs (first raw, then
// positive gaps).
func (r *reader) deltaIDs(what string, n int) ([]uint32, error) {
	if n == 0 {
		return nil, nil
	}
	out := make([]uint32, 0, n)
	prev := uint64(0)
	for k := 0; k < n; k++ {
		v, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if k == 0 {
			prev = v
		} else {
			if v == 0 {
				return nil, r.corrupt("%s not strictly increasing at element %d", what, k)
			}
			prev += v
		}
		if prev > math.MaxUint32 {
			return nil, r.corrupt("%s value %d exceeds the dense-ID space", what, prev)
		}
		out = append(out, uint32(prev))
	}
	return out, nil
}

func decodeMeta(r *reader, img *Image) error {
	var err error
	if img.Vendor, err = r.str(); err != nil {
		return err
	}
	if img.Device, err = r.str(); err != nil {
		return err
	}
	if img.Version, err = r.str(); err != nil {
		return err
	}
	n, err := r.count("skip", 2)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		var s Skip
		if s.Path, err = r.str(); err != nil {
			return err
		}
		if s.Err, err = r.str(); err != nil {
			return err
		}
		img.Skipped = append(img.Skipped, s)
	}
	return nil
}

func decodeInterner(r *reader, img *Image) error {
	n, err := r.count("hash", 8)
	if err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	img.Interner = make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		h, err := r.u64()
		if err != nil {
			return err
		}
		img.Interner = append(img.Interner, h)
	}
	return nil
}

func decodeExes(r *reader, img *Image) error {
	exes, err := decodeExesList(r)
	if err != nil {
		return err
	}
	img.Exes = exes
	return nil
}

func decodeExesList(r *reader) ([]Exe, error) {
	var out []Exe
	nexes, err := r.count("executable", 3)
	if err != nil {
		return nil, err
	}
	for ei := 0; ei < nexes; ei++ {
		var e Exe
		if e.Path, err = r.str(); err != nil {
			return nil, err
		}
		if e.Arch, err = r.byte(); err != nil {
			return nil, err
		}
		if e.Stripped, err = r.bool(); err != nil {
			return nil, err
		}
		nprocs, err := r.count("procedure", 8)
		if err != nil {
			return nil, err
		}
		for pi := 0; pi < nprocs; pi++ {
			var p Proc
			if p.Name, err = r.str(); err != nil {
				return nil, err
			}
			if p.Addr, err = r.u32(); err != nil {
				return nil, err
			}
			if p.Exported, err = r.bool(); err != nil {
				return nil, err
			}
			nids, err := r.count("strand ID", 1)
			if err != nil {
				return nil, err
			}
			if p.IDs, err = r.deltaIDs("strand IDs", nids); err != nil {
				return nil, err
			}
			nmark, err := r.count("marker", 1)
			if err != nil {
				return nil, err
			}
			for k := 0; k < nmark; k++ {
				m, err := r.uvarint32("marker")
				if err != nil {
					return nil, err
				}
				p.Markers = append(p.Markers, m)
			}
			if p.BlockCount, err = r.uvarintInt("block count"); err != nil {
				return nil, err
			}
			if p.EdgeCount, err = r.uvarintInt("edge count"); err != nil {
				return nil, err
			}
			if p.InstCount, err = r.uvarintInt("instruction count"); err != nil {
				return nil, err
			}
			ncalls, err := r.count("call", 1)
			if err != nil {
				return nil, err
			}
			for k := 0; k < ncalls; k++ {
				c, err := r.uvarintInt("call target")
				if err != nil {
					return nil, err
				}
				p.Calls = append(p.Calls, int32(c))
			}
			e.Procs = append(e.Procs, p)
		}
		out = append(out, e)
	}
	return out, nil
}

func decodeIndex(r *reader, img *Image) error {
	rows, err := decodeIndexRows(r)
	if err != nil {
		return err
	}
	img.Index = rows
	return nil
}

func decodeIndexRows(r *reader) ([]IndexRow, error) {
	nrows, err := r.count("index row", 2)
	if err != nil {
		return nil, err
	}
	// A present-but-empty index section still means "indexed": keep the
	// distinction from nil (no index at analysis time).
	out := make([]IndexRow, 0, nrows)
	prev := uint64(0)
	for ri := 0; ri < nrows; ri++ {
		var row IndexRow
		v, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if ri == 0 {
			prev = v
		} else {
			if v == 0 {
				return nil, r.corrupt("index rows not strictly increasing at row %d", ri)
			}
			prev += v
		}
		if prev > math.MaxUint32 {
			return nil, r.corrupt("index row ID %d exceeds the dense-ID space", prev)
		}
		row.ID = uint32(prev)
		nposts, err := r.count("posting", 2)
		if err != nil {
			return nil, err
		}
		row.Posts = make([]Posting, 0, nposts)
		for k := 0; k < nposts; k++ {
			exe, err := r.uvarintInt("posting executable")
			if err != nil {
				return nil, err
			}
			proc, err := r.uvarintInt("posting procedure")
			if err != nil {
				return nil, err
			}
			row.Posts = append(row.Posts, Posting{Exe: int32(exe), Proc: int32(proc)})
		}
		out = append(out, row)
	}
	return out, nil
}

// linkCheck validates cross-section references after all sections are
// decoded: strand IDs must fall inside the vocabulary, call targets
// inside their executable, postings inside the executable table.
func linkCheck(img *Image) error {
	if err := linkCheckExes(len(img.Interner), img.Exes); err != nil {
		return err
	}
	return linkCheckIndex(len(img.Interner), img.Exes, img.Index)
}

func linkCheckExes(nvocab int, exes []Exe) error {
	vocab := uint32(nvocab)
	for ei, e := range exes {
		for pi, p := range e.Procs {
			if n := len(p.IDs); n > 0 && p.IDs[n-1] >= vocab {
				return corrupt("exes", "exe %d proc %d references strand ID %d outside the %d-entry vocabulary", ei, pi, p.IDs[n-1], vocab)
			}
			for _, c := range p.Calls {
				if int(c) >= len(e.Procs) {
					return corrupt("exes", "exe %d proc %d calls procedure %d of %d", ei, pi, c, len(e.Procs))
				}
			}
		}
	}
	return nil
}

func linkCheckIndex(nvocab int, exes []Exe, rows []IndexRow) error {
	vocab := uint32(nvocab)
	for ri, row := range rows {
		if row.ID >= vocab {
			return corrupt("index", "row %d references strand ID %d outside the %d-entry vocabulary", ri, row.ID, vocab)
		}
		for _, p := range row.Posts {
			if int(p.Exe) >= len(exes) {
				return corrupt("index", "row %d posting references executable %d of %d", ri, p.Exe, len(exes))
			}
			if int(p.Proc) >= len(exes[p.Exe].Procs) {
				return corrupt("index", "row %d posting references procedure %d of %d", ri, p.Proc, len(exes[p.Exe].Procs))
			}
		}
	}
	return nil
}
