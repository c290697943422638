// Package image implements the firmware image container and its
// unpacker. An image bundles the executables of one device firmware with
// vendor metadata, optionally zlib-compressed; the Carve function
// plays the role of binwalk, recovering embedded executables from raw
// bytes even when the image header is damaged or the container format
// is unknown.
package image

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"fmt"
	"io"

	"firmup/internal/obj"
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

// Unpack parses a packed image of either layout: Stream, with the files
// collected in image order.
func Unpack(data []byte) (*Image, error) {
	var files []FileEntry
	im, err := Stream(data, func(fe FileEntry) { files = append(files, fe) })
	if err == nil {
		im.Files = files
	}
	return im, err
}

const (
	// fileChunk bounds what a file's claimed size can allocate ahead of
	// its bytes: a compressed image's file buffer grows by at most this
	// much past the bytes decompressed into it.
	fileChunk  = 1 << 20
	maxPayload = 1 << 30 // the most a compressed image may inflate to
)

// Stream parses a packed image of either layout in one pass, handing each
// file to fn, in image order, as soon as its bytes are read: a compressed
// payload is inflated straight into each file's own buffer, never into
// one buffer for the whole image. It returns the image's identity with
// Files empty. On error the image did not unpack, and the files already
// handed to fn are not to be trusted: a compressed image's checksum is
// only checked at the end.
func Stream(data []byte, fn func(FileEntry)) (*Image, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("image: too short")
	}
	var magic [4]byte
	copy(magic[:], data)
	var r io.Reader
	var raw *bytes.Reader // the payload when uncompressed: its size is known
	switch magic {
	case MagicZlib:
		zr, err := zlib.NewReader(bytes.NewReader(data[4:]))
		if err != nil {
			return nil, fmt.Errorf("image: bad zlib payload: %w", err)
		}
		defer zr.Close()
		r = io.LimitReader(zr, maxPayload)
	case MagicRaw:
		raw = bytes.NewReader(data[4:])
		r = raw
	default:
		return nil, fmt.Errorf("image: unknown magic %q", magic[:])
	}
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
		step, left := fileChunk, int64(maxPayload)
		if raw != nil {
			step, left = int(n), int64(raw.Len()) // the payload holds every byte claimed
		}
		if int64(n) > left {
			return nil, fmt.Errorf("image: file %q size %d overruns image", path, n)
		}
		data, err := readFile(r, int(n), step)
		if err != nil {
			return nil, fmt.Errorf("image: file %q: %w", path, err)
		}
		fn(FileEntry{Path: path, Data: data})
	}
	if raw == nil {
		// Read to the end, so a damaged or missing zlib trailer fails the
		// image as it did before the files were streamed.
		if _, err := io.Copy(io.Discard, r); err != nil {
			return nil, fmt.Errorf("image: decompress: %w", err)
		}
	}
	return im, nil
}

// readFile reads a file of claimed size n into a buffer that starts at
// no more than step bytes and grows by at most step past the bytes read
// into it, so a size the stream does not back allocates at most step
// ahead of them; a file of at most step bytes is read into one exact
// buffer. On error the bytes read so far are returned with it.
func readFile(r io.Reader, n, step int) ([]byte, error) {
	buf := make([]byte, 0, min(n, step))
	for {
		m, err := io.ReadFull(r, buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+m]
		if err != nil || len(buf) == n {
			return buf, err
		}
		grown := make([]byte, len(buf), min(n, len(buf)+step))
		copy(grown, buf)
		buf = grown
	}
}

// Carve scans raw bytes for embedded FWELF executables, binwalk-style:
// at every occurrence of the FWELF magic it checks the layout there
// (obj.Extent, which fails exactly when obj.Read does) and hands back
// each file that holds as a FileEntry named carved_<n>, its Data the
// file's own extent of data — the bytes a caller parses, and keys the
// executable's analysis on, as it does a streamed file's. The scan
// resumes past every file it carves, so carved files do not overlap, and
// carving copies nothing: it allocates its entry list however many
// headers the input holds. It is the fallback path when an image fails
// to unpack structurally (the paper reports that a large fraction of
// crawled images had damaged or opaque containers).
func Carve(data []byte) []FileEntry {
	var out []FileEntry
	for off := 0; off+4 <= len(data); {
		idx := bytes.Index(data[off:], obj.Magic[:])
		if idx < 0 {
			break
		}
		pos := off + idx
		off = pos + 1
		if n, err := obj.Extent(data[pos:]); err == nil {
			out = append(out, FileEntry{Path: fmt.Sprintf("carved_%d", len(out)), Data: data[pos : pos+n : pos+n]})
			off = pos + n
		}
	}
	return out
}
