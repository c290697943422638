package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// A sealed corpus is persisted as its own section-table container,
// structurally identical to the image snapshot format but under a
// distinct magic and version: one shared strand vocabulary (the frozen
// interner) followed by every image's executables and inverted index
// expressed in that single ID space. This is what lets firmupd
// cold-start by loading instead of re-analyzing: the artifact is the
// serve-time state, not per-image state to be re-interned together.

// CorpusFormatVersion is the sealed-corpus layout version this package
// reads and writes.
const CorpusFormatVersion = 1

// corpusMagic opens every sealed-corpus file. Same length as the image
// snapshot magic, so the two containers share header arithmetic while
// remaining mutually unreadable.
const corpusMagic = "FWCORP\r\n"

// Sealed-corpus section tags (a tag space separate from the image
// snapshot's).
const (
	secCorpusMeta     = 1 // per-image identity and skip diagnostics
	secCorpusInterner = 2 // frozen vocabulary: dense strand ID -> 64-bit hash
	secCorpusImages   = 3 // per-image executables and inverted indexes
)

func corpusSectionName(tag uint32) string {
	switch tag {
	case secCorpusMeta:
		return "corpus-meta"
	case secCorpusInterner:
		return "corpus-interner"
	case secCorpusImages:
		return "corpus-images"
	}
	return fmt.Sprintf("unknown(%d)", tag)
}

// Corpus is the serialized form of a sealed corpus: the frozen
// vocabulary shared by every image, and the images themselves. Like
// Image it is a plain data model; the firmup layer converts to and from
// sealed session state.
type Corpus struct {
	// Interner is the frozen vocabulary ordered by dense ID. Every
	// Proc.IDs and IndexRow.ID of every image indexes into it.
	Interner []uint64
	Images   []CorpusImage
}

// CorpusImage is one image of a sealed corpus. Unlike the standalone
// Image model it carries no vocabulary of its own.
type CorpusImage struct {
	Vendor  string
	Device  string
	Version string
	Skipped []Skip
	Exes    []Exe
	// Index holds the image's inverted-index rows over the corpus
	// vocabulary, or nil when the image was sealed without one.
	Index []IndexRow
}

// EncodeCorpus serializes a sealed-corpus model into the FWCORP
// container, validating every image's references against the shared
// vocabulary first so a successful encode always produces an artifact
// DecodeCorpus accepts.
func EncodeCorpus(c *Corpus) ([]byte, error) {
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
	type section struct {
		tag     uint32
		payload []byte
	}
	sections := []section{
		{secCorpusMeta, encodeCorpusMeta(c)},
		{secCorpusInterner, encodeCorpusInterner(c)},
		{secCorpusImages, encodeCorpusImages(c)},
	}
	out := make([]byte, 0, headerSize+len(sections)*tableEntrySize+payloadLen(sections, func(s section) int { return len(s.payload) }))
	out = append(out, corpusMagic...)
	out = binary.LittleEndian.AppendUint32(out, CorpusFormatVersion)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(sections)))
	off := uint64(headerSize + len(sections)*tableEntrySize)
	for _, s := range sections {
		out = binary.LittleEndian.AppendUint32(out, s.tag)
		out = binary.LittleEndian.AppendUint64(out, off)
		out = binary.LittleEndian.AppendUint64(out, uint64(len(s.payload)))
		out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(s.payload, castagnoli))
		off += uint64(len(s.payload))
	}
	for _, s := range sections {
		out = append(out, s.payload...)
	}
	return out, nil
}

func encodeCorpusMeta(c *Corpus) []byte {
	var b []byte
	b = appendUvarint(b, uint64(len(c.Images)))
	for _, img := range c.Images {
		b = appendString(b, img.Vendor)
		b = appendString(b, img.Device)
		b = appendString(b, img.Version)
		b = appendUvarint(b, uint64(len(img.Skipped)))
		for _, s := range img.Skipped {
			b = appendString(b, s.Path)
			b = appendString(b, s.Err)
		}
	}
	return b
}

func encodeCorpusInterner(c *Corpus) []byte {
	b := make([]byte, 0, binary.MaxVarintLen64+8*len(c.Interner))
	b = appendUvarint(b, uint64(len(c.Interner)))
	for _, h := range c.Interner {
		b = binary.LittleEndian.AppendUint64(b, h)
	}
	return b
}

func encodeCorpusImages(c *Corpus) []byte {
	var b []byte
	b = appendUvarint(b, uint64(len(c.Images)))
	for _, img := range c.Images {
		b = append(b, encodeExesList(img.Exes)...)
		if img.Index != nil {
			b = append(b, 1)
			b = append(b, encodeIndexRows(img.Index)...)
		} else {
			b = append(b, 0)
		}
	}
	return b
}

// parseCorpusTable is parseTable for the FWCORP header: same layout,
// corpus magic, corpus version and corpus tag space.
func parseCorpusTable(data []byte) ([]tableEntry, error) {
	if len(data) < headerSize {
		return nil, corrupt("header", "truncated: %d bytes, need at least %d", len(data), headerSize)
	}
	if string(data[:len(corpusMagic)]) != corpusMagic {
		return nil, corrupt("header", "bad corpus magic")
	}
	version := binary.LittleEndian.Uint32(data[len(corpusMagic):])
	if version != CorpusFormatVersion {
		return nil, corrupt("header", "unsupported corpus format version %d (this decoder reads version %d)", version, CorpusFormatVersion)
	}
	n := binary.LittleEndian.Uint32(data[len(corpusMagic)+4:])
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
		name := corpusSectionName(e.tag)
		switch e.tag {
		case secCorpusMeta, secCorpusInterner, secCorpusImages:
		default:
			return nil, corrupt("table", "unknown section tag %d", e.tag)
		}
		if seen[e.tag] {
			return nil, corrupt("table", "duplicate %s section", name)
		}
		seen[e.tag] = true
		if e.off > uint64(len(data)) || e.length > uint64(len(data))-e.off {
			return nil, corrupt(name, "declared range [%d, %d+%d) exceeds the %d-byte input", e.off, e.off, e.length, len(data))
		}
		entries[i] = e
	}
	for _, tag := range []uint32{secCorpusMeta, secCorpusInterner, secCorpusImages} {
		if !seen[tag] {
			return nil, corrupt("table", "missing required %s section", corpusSectionName(tag))
		}
	}
	return entries, nil
}

// DecodeCorpus parses a sealed-corpus artifact under the same
// untrusted-input contract as Decode: every failure mode returns an
// error wrapping ErrCorrupt naming the offending section, never a panic,
// and declared counts never drive unbounded allocation.
func DecodeCorpus(data []byte) (*Corpus, error) {
	entries, err := parseCorpusTable(data)
	if err != nil {
		return nil, err
	}
	c := &Corpus{}
	// The meta and images sections each declare an image count; they must
	// agree, whatever order the table lists them in.
	metaImages, contentImages := -1, -1
	for _, e := range entries {
		name := corpusSectionName(e.tag)
		payload := data[e.off : e.off+e.length]
		if got := crc32.Checksum(payload, castagnoli); got != e.crc {
			return nil, corrupt(name, "checksum mismatch: stored %08x, computed %08x", e.crc, got)
		}
		r := &reader{b: payload, section: name}
		switch e.tag {
		case secCorpusMeta:
			metaImages, err = decodeCorpusMeta(r, c)
		case secCorpusInterner:
			err = decodeCorpusInterner(r, c)
		case secCorpusImages:
			contentImages, err = decodeCorpusImages(r, c)
		}
		if err != nil {
			return nil, err
		}
		if len(r.b) != 0 {
			return nil, corrupt(name, "%d trailing bytes after payload", len(r.b))
		}
	}
	if metaImages != contentImages {
		return nil, corrupt("corpus-images", "meta declares %d images but images section holds %d", metaImages, contentImages)
	}
	for i := range c.Images {
		img := &c.Images[i]
		if err := linkCheckExes(len(c.Interner), img.Exes); err != nil {
			return nil, err
		}
		if err := linkCheckIndex(len(c.Interner), img.Exes, img.Index); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// decodeCorpusMeta fills per-image identity and returns the declared
// image count. The sections may decode in any table order, so identity
// and content are merged by index once both sections are in.
func decodeCorpusMeta(r *reader, c *Corpus) (int, error) {
	n, err := r.count("image", 3)
	if err != nil {
		return 0, err
	}
	for i := 0; i < n; i++ {
		var img CorpusImage
		if img.Vendor, err = r.str(); err != nil {
			return 0, err
		}
		if img.Device, err = r.str(); err != nil {
			return 0, err
		}
		if img.Version, err = r.str(); err != nil {
			return 0, err
		}
		nskips, err := r.count("skip", 2)
		if err != nil {
			return 0, err
		}
		for k := 0; k < nskips; k++ {
			var s Skip
			if s.Path, err = r.str(); err != nil {
				return 0, err
			}
			if s.Err, err = r.str(); err != nil {
				return 0, err
			}
			img.Skipped = append(img.Skipped, s)
		}
		if i < len(c.Images) {
			c.Images[i].Vendor = img.Vendor
			c.Images[i].Device = img.Device
			c.Images[i].Version = img.Version
			c.Images[i].Skipped = img.Skipped
		} else {
			c.Images = append(c.Images, img)
		}
	}
	return n, nil
}

func decodeCorpusInterner(r *reader, c *Corpus) error {
	n, err := r.count("hash", 8)
	if err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	c.Interner = make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		h, err := r.u64()
		if err != nil {
			return err
		}
		c.Interner = append(c.Interner, h)
	}
	return nil
}

func decodeCorpusImages(r *reader, c *Corpus) (int, error) {
	n, err := r.count("image", 2)
	if err != nil {
		return 0, err
	}
	for i := 0; i < n; i++ {
		exes, err := decodeExesList(r)
		if err != nil {
			return 0, err
		}
		indexed, err := r.bool()
		if err != nil {
			return 0, err
		}
		var rows []IndexRow
		if indexed {
			if rows, err = decodeIndexRows(r); err != nil {
				return 0, err
			}
		}
		if i < len(c.Images) {
			c.Images[i].Exes = exes
			c.Images[i].Index = rows
		} else {
			c.Images = append(c.Images, CorpusImage{Exes: exes, Index: rows})
		}
	}
	return n, nil
}
