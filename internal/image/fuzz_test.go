package image_test

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"

	"firmup/internal/corpus"
	"firmup/internal/image"
	_ "firmup/internal/isa/arm" // the corpus compiles for every backend
	_ "firmup/internal/isa/mips"
	_ "firmup/internal/isa/ppc"
	_ "firmup/internal/isa/x86"
	"firmup/internal/obj"
	"firmup/internal/uir"
)

// forge packs an image by hand, so a file's claimed size and the file
// count can disagree with what follows them.
func forge(compress bool, nfiles uint32, path string, claimed uint32, body []byte) []byte {
	var p bytes.Buffer
	le := binary.LittleEndian
	w32 := func(v uint32) { p.Write(le.AppendUint32(nil, v)) }
	for _, s := range []string{"vendor", "device", "1.0"} {
		w32(uint32(len(s)))
		p.WriteString(s)
	}
	w32(nfiles)
	w32(uint32(len(path)))
	p.WriteString(path)
	w32(claimed)
	p.Write(body)
	return wrap(compress, p.Bytes())
}

// wrap adds the layout's magic, deflating the payload when compress is
// set.
func wrap(compress bool, payload []byte) []byte {
	if !compress {
		return append(image.MagicRaw[:], payload...)
	}
	var out bytes.Buffer
	out.Write(image.MagicZlib[:])
	zw := zlib.NewWriter(&out)
	zw.Write(payload)
	zw.Close()
	return out.Bytes()
}

// FuzzUnpack hammers the streamed unpacker with arbitrary bytes. The
// contract under fuzzing: an error, never a panic; no success on a zlib
// stream that fails before its end; every file handed over sits in a
// buffer of exactly its size; and no file buffer grows past the bytes
// actually read into it plus a constant, so a claimed size alone never
// allocates.
func FuzzUnpack(f *testing.F) {
	// Raw and compressed images of the generated corpus, cut to a few
	// files so mutations stay fast, and truncated copies of both.
	err := corpus.Stream(corpus.ScaleForImages(1), func(bi *corpus.BuiltImage) error {
		im := *bi.Image
		im.Files = im.Files[:min(3, len(im.Files))]
		for _, compress := range []bool{false, true} {
			data := im.Pack(compress)
			f.Add(data)
			f.Add(data[:len(data)/2])
			f.Add(data[:len(data)-1])
		}
		return corpus.ErrStop
	})
	if err != nil {
		f.Fatal(err)
	}
	body := []byte("not an executable")
	for _, compress := range []bool{false, true} {
		f.Add(forge(compress, 1, "etc/config", uint32(len(body)), body))
		f.Add(forge(compress, 1, "etc/huge", 1<<31, body))               // size beyond the payload
		f.Add(forge(compress, 1, "etc/huge", 3<<20, body))               // beyond one growth step
		f.Add(forge(compress, 9, "etc/config", uint32(len(body)), body)) // more files claimed than present
	}
	f.Add([]byte{})
	f.Add([]byte("FWZ1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		files := 0
		im, err := image.Stream(data, func(fe image.FileEntry) {
			files++
			if cap(fe.Data) != len(fe.Data) {
				t.Errorf("file %q: %d bytes in a %d-byte buffer", fe.Path, len(fe.Data), cap(fe.Data))
			}
		})
		if err == nil && im == nil {
			t.Fatal("Stream returned neither an image nor an error")
		}
		if err == nil && bytes.HasPrefix(data, image.MagicZlib[:]) {
			// A compressed image unpacks only if its whole zlib stream,
			// checksum included, reads without error.
			zr, zerr := zlib.NewReader(bytes.NewReader(data[4:]))
			if zerr == nil {
				_, zerr = io.Copy(io.Discard, zr)
			}
			if zerr != nil {
				t.Fatalf("Stream accepted a zlib stream that fails: %v", zerr)
			}
		}
		if err == nil {
			if un, err := image.Unpack(data); err != nil || len(un.Files) != files {
				t.Fatalf("Unpack disagrees with Stream: %v, %d files vs %d", err, len(un.Files), files)
			}
		}
		// The reader behind both layouts: the first four bytes claim a
		// size, the rest are what the stream really holds.
		if len(data) < 4 {
			return
		}
		claimed := int(binary.LittleEndian.Uint32(data))
		buf, err := image.ReadFile(bytes.NewReader(data[4:]), claimed, image.FileChunk)
		if cap(buf) > len(buf)+image.FileChunk {
			t.Fatalf("claimed %d bytes, read %d into a %d-byte buffer", claimed, len(buf), cap(buf))
		}
		if (err == nil) != (len(buf) == claimed) || (err != nil && err != io.EOF && !errors.Is(err, io.ErrUnexpectedEOF)) {
			t.Fatalf("claimed %d, read %d: %v", claimed, len(buf), err)
		}
	})
}

// overlappingHeaders is k FWELF headers 64 bytes apart, each declaring
// one section that claims every byte after its own header. Every one of
// them parses; copying each one's section would allocate quadratically.
func overlappingHeaders(k int) []byte {
	const stride = 64
	data := make([]byte, k*stride)
	for i := range k {
		h := data[i*stride:]
		copy(h, obj.Magic[:])
		h[4], h[5], h[6] = 1, 1, byte(uir.ArchMIPS32) // version, class, arch
		binary.LittleEndian.PutUint16(h[14:], 1)      // one section, no symbols
		// The section: an empty name, address 0, its kind and its size.
		h[26] = byte(obj.SecText)
		binary.LittleEndian.PutUint32(h[27:], uint32(len(data)-i*stride-31))
	}
	return data
}

// carveAlloc reports the bytes one Carve call over data allocates,
// averaged over runs calls.
func carveAlloc(data []byte, runs int) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		image.Carve(data)
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestCarveAllocationLinear: carving k = 100, 200 and 400 overlapping
// headers allocates a small multiple of the input, whatever k — the files
// the carver keeps do not overlap, and a layout it rejects is not copied.
func TestCarveAllocationLinear(t *testing.T) {
	for _, k := range []int{100, 200, 400} {
		data := overlappingHeaders(k)
		if n := len(image.Carve(data)); n != 1 {
			t.Errorf("k=%d: %d files carved, want the first header's, which spans the rest", k, n)
		}
		ratio := float64(carveAlloc(data, 10)) / float64(len(data))
		t.Logf("k=%d: %d bytes in, %.2fx allocated", k, len(data), ratio)
		if ratio > 4 {
			t.Errorf("k=%d: carving %d bytes allocates %.1fx the input", k, len(data), ratio)
		}
	}
}

// carveAllocBound is what carving data may allocate: a failed attempt
// costs at most its error, a carved file at most a few times its own
// bytes, and the carved files do not overlap.
func carveAllocBound(data []byte) uint64 { return 32*uint64(len(data)) + 16<<10 }

// FuzzCarve hammers the carver with arbitrary bytes. The contract: no
// panic, every carved file parses from its own bytes, and
// allocation within carveAllocBound of the input.
func FuzzCarve(f *testing.F) {
	// Raw images of the generated corpus cut to a few files, then cut in
	// half, and with their container magic or an executable's header
	// bytes overwritten.
	err := corpus.Stream(corpus.ScaleForImages(1), func(bi *corpus.BuiltImage) error {
		im := *bi.Image
		im.Files = im.Files[:min(3, len(im.Files))]
		data := im.Pack(false)
		f.Add(data)
		f.Add(data[:len(data)/2])
		at := bytes.Index(data, obj.Magic[:])
		for _, patch := range []struct {
			off int
			b   byte
		}{{0, 'X'}, {at + 4, 9}, {at + 5, 7}, {at + 14, 0xFF}, {at + 19, 0x7F}} {
			bad := append([]byte(nil), data...)
			bad[patch.off] = patch.b
			f.Add(bad)
		}
		return corpus.ErrStop
	})
	if err != nil {
		f.Fatal(err)
	}
	// obj's header quirks: a symbol count the bytes cannot hold, a section
	// name longer than the file, and headers whose sections overlap.
	header := func(nsec uint16, nsym uint32) []byte {
		b := append(obj.Magic[:], 1, 1, byte(uir.ArchMIPS32), 0, 0, 0, 0x40, 0, 0, 0)
		b = binary.LittleEndian.AppendUint16(b, nsec)
		return binary.LittleEndian.AppendUint32(b, nsym)
	}
	pad := func(b []byte) []byte { return append(b, make([]byte, 64-len(b))...) }
	f.Add(pad(header(0, 1<<20)))
	f.Add(pad(binary.LittleEndian.AppendUint16(header(1, 0), 4000)))
	f.Add(overlappingHeaders(8))
	f.Add(bytes.Repeat(obj.Magic[:], 16))
	f.Fuzz(func(t *testing.T, data []byte) {
		if n, bound := carveAlloc(data, 1), carveAllocBound(data); n > bound {
			t.Errorf("carving %d bytes allocates %d, bound %d", len(data), n, bound)
		}
		for i, ef := range image.Carve(data) {
			if _, err := obj.Read(ef.Data); err != nil {
				t.Errorf("carved file %d does not parse: %v", i, err)
			}
		}
	})
}
