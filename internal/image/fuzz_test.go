package image_test

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"firmup/internal/corpus"
	"firmup/internal/image"
	_ "firmup/internal/isa/arm" // the corpus compiles for every backend
	_ "firmup/internal/isa/mips"
	_ "firmup/internal/isa/ppc"
	_ "firmup/internal/isa/x86"
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
