// Package image implements the firmware image container and its
// unpacker. An image bundles the executables of one device firmware with
// vendor metadata, optionally zlib-compressed; the Carve function plays
// the role of binwalk, recovering embedded executables from raw bytes
// even when the image header is damaged or the container format is
// unknown.
package image

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"fmt"
	"io"

	"firmup/internal/obj"
	"firmup/internal/telemetry"
)

// Magic values for the two on-disk layouts.
var (
	MagicRaw  = [4]byte{'F', 'W', 'I', 'M'}
	MagicZlib = [4]byte{'F', 'W', 'Z', '1'}
)

// FileEntry is one file inside an image.
type FileEntry struct {
	Path string
	Data []byte
}

// Image is one device firmware image.
type Image struct {
	Vendor  string
	Device  string
	Version string
	Files   []FileEntry
}

// AddExecutable serializes an FWELF file into the image under path.
func (im *Image) AddExecutable(path string, f *obj.File) {
	im.Files = append(im.Files, FileEntry{Path: path, Data: f.Bytes()})
}

// Executables parses every file entry that is a loadable FWELF, returning
// path/file pairs; non-executable content (configs etc.) is skipped, as
// are entries that fail to parse.
func (im *Image) Executables() []ParsedExe {
	var out []ParsedExe
	for _, fe := range im.Files {
		f, err := obj.Read(fe.Data)
		if err != nil {
			continue
		}
		out = append(out, ParsedExe{Path: fe.Path, File: f})
	}
	return out
}

// ParsedExe pairs an in-image path with its parsed executable.
type ParsedExe struct {
	Path string
	File *obj.File
}

// Pack serializes the image; when compress is set, the payload is
// deflated and wrapped in the FWZ1 layout.
func (im *Image) Pack(compress bool) []byte {
	var payload bytes.Buffer
	le := binary.LittleEndian
	var tmp [4]byte
	w32 := func(w io.Writer, v uint32) { le.PutUint32(tmp[:], v); w.Write(tmp[:]) }
	wstr := func(w io.Writer, s string) { w32(w, uint32(len(s))); io.WriteString(w, s) }
	wstr(&payload, im.Vendor)
	wstr(&payload, im.Device)
	wstr(&payload, im.Version)
	w32(&payload, uint32(len(im.Files)))
	for _, f := range im.Files {
		wstr(&payload, f.Path)
		w32(&payload, uint32(len(f.Data)))
		payload.Write(f.Data)
	}
	var out bytes.Buffer
	if compress {
		out.Write(MagicZlib[:])
		zw := zlib.NewWriter(&out)
		zw.Write(payload.Bytes())
		zw.Close()
		return out.Bytes()
	}
	out.Write(MagicRaw[:])
	out.Write(payload.Bytes())
	return out.Bytes()
}

// Unpack parses a packed image of either layout.
func Unpack(data []byte) (*Image, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("image: too short")
	}
	var magic [4]byte
	copy(magic[:], data)
	payload := data[4:]
	switch magic {
	case MagicZlib:
		zr, err := zlib.NewReader(bytes.NewReader(payload))
		if err != nil {
			return nil, fmt.Errorf("image: bad zlib payload: %w", err)
		}
		defer zr.Close()
		raw, err := io.ReadAll(io.LimitReader(zr, 1<<30))
		if err != nil {
			return nil, fmt.Errorf("image: decompress: %w", err)
		}
		payload = raw
	case MagicRaw:
	default:
		return nil, fmt.Errorf("image: unknown magic %q", magic[:])
	}
	r := bytes.NewReader(payload)
	le := binary.LittleEndian
	var tmp [4]byte
	r32 := func() (uint32, error) {
		if _, err := io.ReadFull(r, tmp[:]); err != nil {
			return 0, err
		}
		return le.Uint32(tmp[:]), nil
	}
	rstr := func() (string, error) {
		n, err := r32()
		if err != nil {
			return "", err
		}
		if n > 1<<20 {
			return "", fmt.Errorf("image: implausible string length %d", n)
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(r, b); err != nil {
			return "", err
		}
		return string(b), nil
	}
	im := &Image{}
	var err error
	if im.Vendor, err = rstr(); err != nil {
		return nil, fmt.Errorf("image: truncated header: %w", err)
	}
	if im.Device, err = rstr(); err != nil {
		return nil, err
	}
	if im.Version, err = rstr(); err != nil {
		return nil, err
	}
	nfiles, err := r32()
	if err != nil {
		return nil, err
	}
	if nfiles > 1<<16 {
		return nil, fmt.Errorf("image: implausible file count %d", nfiles)
	}
	for i := uint32(0); i < nfiles; i++ {
		path, err := rstr()
		if err != nil {
			return nil, fmt.Errorf("image: truncated file table: %w", err)
		}
		n, err := r32()
		if err != nil {
			return nil, err
		}
		if int64(n) > int64(r.Len()) {
			return nil, fmt.Errorf("image: file %q size %d overruns image", path, n)
		}
		data := make([]byte, n)
		if _, err := io.ReadFull(r, data); err != nil {
			return nil, err
		}
		im.Files = append(im.Files, FileEntry{Path: path, Data: data})
	}
	return im, nil
}

// Carve scans raw bytes for embedded FWELF executables, binwalk-style:
// it finds every occurrence of the FWELF magic and attempts a parse
// there, keeping the ones that decode. It is the fallback path when an
// image fails to unpack structurally (the paper reports that a large
// fraction of crawled images had damaged or opaque containers).
func Carve(data []byte) []*obj.File {
	return CarveWith(data, nil, telemetry.Span{})
}

// CarveWith is Carve with every attempted parse timed under parent and
// counted into tel (see obj.ReadWith). The carved output is identical.
func CarveWith(data []byte, tel *obj.Telemetry, parent telemetry.Span) []*obj.File {
	var out []*obj.File
	for off := 0; off+4 <= len(data); {
		idx := bytes.Index(data[off:], obj.Magic[:])
		if idx < 0 {
			break
		}
		pos := off + idx
		f, err := obj.ReadWith(data[pos:], tel, parent)
		if err == nil {
			out = append(out, f)
		}
		off = pos + 1
	}
	return out
}
