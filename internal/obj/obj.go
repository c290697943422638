// Package obj implements FWELF, the executable container format of this
// reproduction (standing in for ELF). It supports the phenomena the paper
// deals with in the wild: stripped symbol tables (with exported symbols
// optionally retained, as in shared libraries), multiple sections, and
// deliberately corrupted headers — firmware images frequently carry a
// wrong class byte, which readers must tolerate (cf. MIPS64 executables
// shipped with ELFCLASS32 headers).
package obj

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"firmup/internal/isa"
	"firmup/internal/telemetry"
	"firmup/internal/uir"
)

// Magic identifies an FWELF file.
var Magic = [4]byte{'F', 'E', 'L', 'F'}

// SectionKind classifies sections.
type SectionKind uint8

// Section kinds.
const (
	SecText SectionKind = 1
	SecData SectionKind = 2
)

// Section is a loadable address range.
type Section struct {
	Name string
	Addr uint32
	Kind SectionKind
	Data []byte
}

// SymKind classifies symbols.
type SymKind uint8

// Symbol kinds.
const (
	SymFunc   SymKind = 1
	SymObject SymKind = 2
)

// Symbol names an address range. Exported symbols survive stripping, the
// way dynamic symbols do in real libraries; the paper's second labeled
// group ("exported procedures ... can be easily located even when the
// executable is stripped") relies on this.
type Symbol struct {
	Name     string
	Addr     uint32
	Size     uint32
	Kind     SymKind
	Exported bool
}

// File is a parsed or constructed FWELF executable.
type File struct {
	Arch     uir.Arch
	Entry    uint32
	Sections []Section
	Syms     []Symbol
	// Stripped records whether the local (non-exported) symbols were
	// removed.
	Stripped bool
	// BadClass reproduces the wrong-ELFCLASS quirk: the header class
	// byte claims a 64-bit file. Readers tolerate it and flag it here.
	BadClass bool
}

// FromArtifact wraps a code-generation artifact into a file, with every
// procedure and global as a named symbol.
func FromArtifact(art *isa.Artifact) *File {
	f := &File{
		Arch:  art.Arch,
		Entry: art.TextBase,
		Sections: []Section{
			{Name: ".text", Addr: art.TextBase, Kind: SecText, Data: append([]byte(nil), art.Text...)},
			{Name: ".data", Addr: art.DataBase, Kind: SecData, Data: append([]byte(nil), art.Data...)},
		},
	}
	for _, p := range art.Procs {
		f.Syms = append(f.Syms, Symbol{Name: p.Name, Addr: p.Addr, Size: p.Size, Kind: SymFunc})
	}
	for _, g := range art.Globals {
		f.Syms = append(f.Syms, Symbol{Name: g.Name, Addr: g.Addr, Size: g.Size, Kind: SymObject})
	}
	return f
}

// Section returns the named section, or nil.
func (f *File) Section(name string) *Section {
	for i := range f.Sections {
		if f.Sections[i].Name == name {
			return &f.Sections[i]
		}
	}
	return nil
}

// Text returns the text section, or nil.
func (f *File) Text() *Section {
	for i := range f.Sections {
		if f.Sections[i].Kind == SecText {
			return &f.Sections[i]
		}
	}
	return nil
}

// NamedSym returns the symbol with the given name, if any.
func (f *File) NamedSym(name string) (Symbol, bool) {
	for _, s := range f.Syms {
		if s.Name == name {
			return s, true
		}
	}
	return Symbol{}, false
}

// Strip removes local symbols; exported symbols are retained, matching
// how stripping treats a dynamic symbol table.
func (f *File) Strip() {
	var kept []Symbol
	for _, s := range f.Syms {
		if s.Exported {
			kept = append(kept, s)
		}
	}
	f.Syms = kept
	f.Stripped = true
}

// MarkExported flags the named symbols as exported (surviving Strip).
func (f *File) MarkExported(names ...string) {
	set := map[string]bool{}
	for _, n := range names {
		set[n] = true
	}
	for i := range f.Syms {
		if set[f.Syms[i].Name] {
			f.Syms[i].Exported = true
		}
	}
}

// SectionMap gives the canonicalizer the address ranges it needs for
// offset elimination.
type SectionMap struct {
	TextLo, TextHi uint32
	DataLo, DataHi uint32
}

// Map computes the section map.
func (f *File) Map() SectionMap {
	var m SectionMap
	for _, s := range f.Sections {
		lo := s.Addr
		hi := s.Addr + uint32(len(s.Data))
		switch s.Kind {
		case SecText:
			m.TextLo, m.TextHi = lo, hi
		case SecData:
			m.DataLo, m.DataHi = lo, hi
		}
	}
	return m
}

// Header layout constants.
const (
	classOK      = 1
	classBad     = 2
	flagStripped = 1 << 0
	minSymRecord = 2 + 4 + 4 + 1 // name length, address, size, kind
)

// WriteTo serializes the file. It implements io.WriterTo.
func (f *File) WriteTo(w io.Writer) (int64, error) {
	var buf bytes.Buffer
	buf.Write(Magic[:])
	class := byte(classOK)
	if f.BadClass {
		class = classBad
	}
	flags := uint16(0)
	if f.Stripped {
		flags |= flagStripped
	}
	buf.WriteByte(1) // version
	buf.WriteByte(class)
	buf.WriteByte(byte(f.Arch))
	buf.WriteByte(0) // pad
	le := binary.LittleEndian
	var tmp [4]byte
	w32 := func(v uint32) { le.PutUint32(tmp[:], v); buf.Write(tmp[:]) }
	w16 := func(v uint16) { le.PutUint16(tmp[:2], v); buf.Write(tmp[:2]) }
	wstr := func(s string) { w16(uint16(len(s))); buf.WriteString(s) }
	w32(f.Entry)
	w16(flags)
	w16(uint16(len(f.Sections)))
	w32(uint32(len(f.Syms)))
	for _, s := range f.Sections {
		wstr(s.Name)
		w32(s.Addr)
		buf.WriteByte(byte(s.Kind))
		w32(uint32(len(s.Data)))
		buf.Write(s.Data)
	}
	for _, s := range f.Syms {
		wstr(s.Name)
		w32(s.Addr)
		w32(s.Size)
		kind := byte(s.Kind)
		if s.Exported {
			kind |= 0x80
		}
		buf.WriteByte(kind)
	}
	n, err := w.Write(buf.Bytes())
	return int64(n), err
}

// Bytes serializes the file to memory.
func (f *File) Bytes() []byte {
	var buf bytes.Buffer
	_, _ = f.WriteTo(&buf) // writing to a bytes.Buffer cannot fail
	return buf.Bytes()
}

// ReadWith is Read timed as an "obj.parse" span under parent and counted
// into parent's registry: obj.bytes, the input bytes parsed, and
// obj.bad_class, the files read despite a corrupted class byte. The
// parse itself is identical.
func ReadWith(data []byte, parent telemetry.Span) (*File, error) {
	sp := parent.Start("obj.parse")
	f, err := Read(data)
	sp.End()
	if err == nil {
		parent.Counter("obj.bytes").Add(int64(len(data)))
		badClass := parent.Counter("obj.bad_class")
		if f.BadClass {
			badClass.Inc()
		}
	}
	return f, err
}

// Read parses an FWELF file. A wrong class byte is tolerated and
// reported through File.BadClass rather than rejected, mirroring how the
// paper's pipeline had to cope with mislabeled ELF headers. The layout is
// checked against the bytes before anything is copied out of them, so a
// file that fails allocates nothing in proportion to what it claims.
func Read(data []byte) (*File, error) {
	if _, err := Extent(data); err != nil {
		return nil, err
	}
	f, _, err := parse(data, true)
	return f, err
}

// Extent checks the layout of the FWELF file at the start of data,
// copying nothing out of it, and reports how many bytes the file spans:
// header, sections and symbol table. Read fails exactly when Extent does.
func Extent(data []byte) (int, error) {
	_, n, err := parse(data, false)
	return n, err
}

// parse walks an FWELF file and reports where it ends. With keep it
// builds the File; without, it only checks the layout.
func parse(data []byte, keep bool) (*File, int, error) {
	r := reader{data: data, keep: keep}
	var magic [4]byte
	r.bytes(magic[:])
	if magic != Magic {
		return nil, 0, fmt.Errorf("obj: bad magic %q", string(magic[:]))
	}
	version := r.u8()
	if version != 1 {
		return nil, 0, fmt.Errorf("obj: unsupported version %d", version)
	}
	var f File
	switch class := r.u8(); class {
	case classOK:
	case classBad:
		f.BadClass = true
	default:
		return nil, 0, fmt.Errorf("obj: invalid class %d", class)
	}
	f.Arch = uir.Arch(r.u8())
	r.u8() // pad
	f.Entry = r.u32()
	flags := r.u16()
	f.Stripped = flags&flagStripped != 0
	nsec := int(r.u16())
	nsym := int(r.u32())
	if nsec > 64 {
		return nil, 0, fmt.Errorf("obj: implausible section count %d", nsec)
	}
	// A symbol record is at least an empty name's length, address, size
	// and kind: a count the remaining bytes cannot hold is a lie.
	if nsym > 1<<20 || nsym > (len(r.data)-r.off)/minSymRecord {
		return nil, 0, fmt.Errorf("obj: implausible symbol count %d for %d remaining bytes", nsym, len(r.data)-r.off)
	}
	if keep {
		f.Sections = make([]Section, 0, nsec)
		f.Syms = make([]Symbol, 0, nsym)
	}
	for i := 0; i < nsec && r.err == nil; i++ {
		var s Section
		s.Name = r.str()
		s.Addr = r.u32()
		s.Kind = SectionKind(r.u8())
		n := int(r.u32())
		if r.err == nil && (n < 0 || r.off+n > len(r.data)) {
			return nil, 0, fmt.Errorf("obj: section %d size %d overruns file", i, n)
		}
		s.Data = r.take(n)
		if keep {
			f.Sections = append(f.Sections, s)
		}
	}
	for i := 0; i < nsym && r.err == nil; i++ {
		var s Symbol
		s.Name = r.str()
		s.Addr = r.u32()
		s.Size = r.u32()
		kind := r.u8()
		s.Exported = kind&0x80 != 0
		s.Kind = SymKind(kind & 0x7F)
		if keep {
			f.Syms = append(f.Syms, s)
		}
	}
	if r.err != nil {
		return nil, 0, r.err
	}
	if !keep {
		return nil, r.off, nil
	}
	out := f // only a kept File escapes: a layout walk allocates none
	return &out, r.off, nil
}

// reader walks a file's bytes. Without keep it copies nothing out of
// them: names read as "" and section data as nil.
type reader struct {
	data []byte
	off  int
	keep bool
	err  error
}

func (r *reader) bytes(dst []byte) {
	if r.err != nil {
		return
	}
	if r.off+len(dst) > len(r.data) {
		r.err = fmt.Errorf("obj: truncated file at offset %d", r.off)
		return
	}
	copy(dst, r.data[r.off:])
	r.off += len(dst)
}

// take returns a copy of the next n bytes, which the caller has checked
// are there.
func (r *reader) take(n int) []byte {
	if !r.keep {
		r.off += n
		return nil
	}
	b := make([]byte, n)
	r.bytes(b)
	return b
}

func (r *reader) u8() byte {
	var b [1]byte
	r.bytes(b[:])
	return b[0]
}

func (r *reader) u16() uint16 {
	var b [2]byte
	r.bytes(b[:])
	return binary.LittleEndian.Uint16(b[:])
}

func (r *reader) u32() uint32 {
	var b [4]byte
	r.bytes(b[:])
	return binary.LittleEndian.Uint32(b[:])
}

func (r *reader) str() string {
	n := int(r.u16())
	if r.err != nil {
		return ""
	}
	if n > 4096 {
		r.err = fmt.Errorf("obj: implausible string length %d", n)
		return ""
	}
	if n > len(r.data)-r.off {
		r.err = fmt.Errorf("obj: truncated file at offset %d", r.off)
		return ""
	}
	s := ""
	if r.keep {
		s = string(r.data[r.off : r.off+n])
	}
	r.off += n
	return s
}
