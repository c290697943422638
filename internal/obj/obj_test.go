package obj

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"firmup/internal/uir"
)

func sampleFile() *File {
	return &File{
		Arch:  uir.ArchMIPS32,
		Entry: 0x400000,
		Sections: []Section{
			{Name: ".text", Addr: 0x400000, Kind: SecText, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
			{Name: ".data", Addr: 0x401000, Kind: SecData, Data: []byte{9, 10}},
		},
		Syms: []Symbol{
			{Name: "main", Addr: 0x400000, Size: 4, Kind: SymFunc},
			{Name: "curl_easy_unescape", Addr: 0x400004, Size: 4, Kind: SymFunc, Exported: true},
			{Name: "gbl", Addr: 0x401000, Size: 2, Kind: SymObject},
		},
	}
}

func TestRoundTrip(t *testing.T) {
	f := sampleFile()
	data := f.Bytes()
	g, err := Read(data)
	if err != nil {
		t.Fatal(err)
	}
	if g.Arch != f.Arch || g.Entry != f.Entry {
		t.Errorf("header mismatch: %+v", g)
	}
	if len(g.Sections) != 2 || g.Sections[0].Name != ".text" || !bytes.Equal(g.Sections[0].Data, f.Sections[0].Data) {
		t.Errorf("sections mismatch: %+v", g.Sections)
	}
	if len(g.Syms) != 3 || g.Syms[1].Name != "curl_easy_unescape" || !g.Syms[1].Exported {
		t.Errorf("symbols mismatch: %+v", g.Syms)
	}
}

func TestStripKeepsExported(t *testing.T) {
	f := sampleFile()
	f.Strip()
	if !f.Stripped {
		t.Error("Stripped flag unset")
	}
	if len(f.Syms) != 1 || f.Syms[0].Name != "curl_easy_unescape" {
		t.Errorf("strip kept %+v, want only the exported symbol", f.Syms)
	}
	// Round-trip preserves the stripped flag.
	g, err := Read(f.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !g.Stripped || len(g.Syms) != 1 {
		t.Errorf("after round trip: stripped=%v syms=%v", g.Stripped, g.Syms)
	}
}

func TestMarkExported(t *testing.T) {
	f := sampleFile()
	f.MarkExported("main")
	f.Strip()
	if len(f.Syms) != 2 {
		t.Errorf("syms = %+v", f.Syms)
	}
}

func TestBadClassTolerated(t *testing.T) {
	f := sampleFile()
	f.BadClass = true
	g, err := Read(f.Bytes())
	if err != nil {
		t.Fatalf("wrong class byte must be tolerated: %v", err)
	}
	if !g.BadClass {
		t.Error("BadClass not reported")
	}
}

func TestRejectGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("FELF"),
		[]byte("ELF\x7f junk here"),
		bytes.Repeat([]byte{0xFF}, 64),
	}
	for _, c := range cases {
		if _, err := Read(c); err == nil {
			t.Errorf("Read(%q) unexpectedly succeeded", c)
		}
	}
}

// Property: Read never panics on arbitrary mutations of a valid file and
// either errors or returns a structurally valid result.
func TestReadRobustness(t *testing.T) {
	base := sampleFile().Bytes()
	f := func(pos uint16, val byte) bool {
		data := append([]byte(nil), base...)
		data[int(pos)%len(data)] = val
		g, err := Read(data)
		if err != nil {
			return true
		}
		// On success the sections must be in-bounds copies.
		for _, s := range g.Sections {
			if len(s.Data) > len(data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestReadBoundsAllocation: a count or length the header claims is checked
// against the bytes behind it before anything is sized from it. A 64-byte
// file claiming 2^20 symbols, and one whose section name claims 4,000
// bytes, fail, each allocating a small multiple of its own size.
func TestReadBoundsAllocation(t *testing.T) {
	header := func(nsec uint16, nsym uint32) []byte {
		b := append(Magic[:], 1, classOK, byte(uir.ArchMIPS32), 0)
		b = binary.LittleEndian.AppendUint32(b, 0x400000) // entry
		b = binary.LittleEndian.AppendUint16(b, 0)        // flags
		b = binary.LittleEndian.AppendUint16(b, nsec)
		return binary.LittleEndian.AppendUint32(b, nsym)
	}
	pad := func(b []byte) []byte { return append(b, make([]byte, 64-len(b))...) }
	for _, c := range []struct {
		what, err string
		data      []byte
	}{
		{"2^20 symbols", "symbol count", pad(header(0, 1<<20))},
		{"a 4,000-byte section name", "truncated", pad(binary.LittleEndian.AppendUint16(header(1, 0), 4000))},
	} {
		if _, err := Read(c.data); err == nil || !strings.Contains(err.Error(), c.err) {
			t.Fatalf("%s: err = %v, want one naming the %s", c.what, err, c.err)
		}
		const runs = 1000
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			Read(c.data)
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 8*uint64(len(c.data)) {
			t.Errorf("%s: a failed Read of %d bytes allocates %d bytes", c.what, len(c.data), per)
		}
	}
}

func TestLookupHelpers(t *testing.T) {
	f := sampleFile()
	if s := f.Section(".data"); s == nil || s.Addr != 0x401000 {
		t.Error("Section lookup")
	}
	if f.Text() == nil || f.Text().Name != ".text" {
		t.Error("Text lookup")
	}
	if sym, ok := f.NamedSym("gbl"); !ok || sym.Kind != SymObject {
		t.Errorf("NamedSym = %v %v", sym, ok)
	}
	m := f.Map()
	if m.TextLo != 0x400000 || m.TextHi != 0x400008 || m.DataLo != 0x401000 || m.DataHi != 0x401002 {
		t.Errorf("Map = %+v", m)
	}
}
