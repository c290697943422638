package image

import (
	"bytes"
	"fmt"
	"testing"

	"firmup/internal/obj"
	"firmup/internal/uir"
)

func exeFixture(name string) *obj.File {
	return &obj.File{
		Arch:  uir.ArchARM32,
		Entry: 0x8000,
		Sections: []obj.Section{
			{Name: ".text", Addr: 0x8000, Kind: obj.SecText, Data: []byte{0xDE, 0xAD, 0xBE, 0xEF}},
			{Name: ".data", Addr: 0x9000, Kind: obj.SecData, Data: []byte{1}},
		},
		Syms: []obj.Symbol{{Name: name, Addr: 0x8000, Size: 4, Kind: obj.SymFunc}},
	}
}

func sampleImage() *Image {
	im := &Image{Vendor: "NETGEAR", Device: "R7000", Version: "1.0.3"}
	im.AddExecutable("bin/wget", exeFixture("main"))
	im.AddExecutable("usr/sbin/vsftpd", exeFixture("vsf_main"))
	im.Files = append(im.Files, FileEntry{Path: "etc/config", Data: []byte("not an executable")})
	return im
}

func TestPackUnpackRaw(t *testing.T) {
	im := sampleImage()
	data := im.Pack(false)
	got, err := Unpack(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Vendor != "NETGEAR" || got.Device != "R7000" || got.Version != "1.0.3" {
		t.Errorf("metadata = %+v", got)
	}
	if len(got.Files) != 3 || got.Files[0].Path != "bin/wget" {
		t.Errorf("files = %d", len(got.Files))
	}
	if !bytes.Equal(got.Files[2].Data, []byte("not an executable")) {
		t.Error("config file corrupted")
	}
}

func TestPackUnpackCompressed(t *testing.T) {
	im := sampleImage()
	raw := im.Pack(false)
	comp := im.Pack(true)
	got, err := Unpack(comp)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Files) != 3 {
		t.Errorf("files = %d", len(got.Files))
	}
	// The two layouts must agree after unpacking.
	got2, _ := Unpack(raw)
	if got.Device != got2.Device || len(got.Files) != len(got2.Files) {
		t.Error("layouts disagree")
	}
}

// TestUnpackDamagedZlibTrailer checks that a compressed image whose
// files all inflate still fails when its Adler-32 trailer is cut short or
// wrong: the streamed reader must read the zlib stream to its end.
func TestUnpackDamagedZlibTrailer(t *testing.T) {
	comp := sampleImage().Pack(true)
	flipped := bytes.Clone(comp)
	flipped[len(flipped)-1] ^= 0xFF
	for name, data := range map[string][]byte{"cut by one byte": comp[:len(comp)-1], "flipped trailer": flipped} {
		files := 0
		if _, err := Stream(data, func(FileEntry) { files++ }); err == nil {
			t.Errorf("%s: Stream succeeded", name)
		}
		if files != 3 {
			t.Errorf("%s: %d files handed over before the trailer, want 3", name, files)
		}
		if _, err := Unpack(data); err == nil {
			t.Errorf("%s: Unpack succeeded", name)
		}
	}
}

func TestExecutablesSkipsNonELF(t *testing.T) {
	im := sampleImage()
	exes := im.Executables()
	if len(exes) != 2 {
		t.Fatalf("Executables = %d, want 2", len(exes))
	}
	if exes[0].Path != "bin/wget" || exes[0].File.Syms[0].Name != "main" {
		t.Errorf("first = %+v", exes[0])
	}
}

func TestUnpackErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("XX"),
		[]byte("ABCD rest"),
		[]byte("FWZ1 not zlib"),
		append([]byte("FWIM"), 0xFF, 0xFF, 0xFF, 0xFF), // absurd string length
	}
	for _, c := range cases {
		if _, err := Unpack(c); err == nil {
			t.Errorf("Unpack(%q) unexpectedly succeeded", c)
		}
	}
}

func TestCarveFindsEmbeddedExecutables(t *testing.T) {
	// Simulate a damaged container: junk + two FWELFs + junk.
	var blob bytes.Buffer
	blob.Write(bytes.Repeat([]byte{0x5A}, 137))
	blob.Write(exeFixture("aaa").Bytes())
	blob.Write([]byte("FELFgarbage that is not a real header"))
	blob.Write(bytes.Repeat([]byte{0x00}, 33))
	blob.Write(exeFixture("bbb").Bytes())
	found := Carve(blob.Bytes())
	if len(found) != 2 {
		t.Fatalf("Carve found %d executables, want 2", len(found))
	}
	for i, want := range []string{"aaa", "bbb"} {
		f, err := obj.Read(found[i].Data)
		if err != nil {
			t.Fatalf("carved file %d: %v", i, err)
		}
		if found[i].Path != fmt.Sprintf("carved_%d", i) || f.Syms[0].Name != want || !bytes.Equal(found[i].Data, exeFixture(want).Bytes()) {
			t.Errorf("carved file %d: %s with syms %v, want carved_%d with %s and exactly its bytes", i, found[i].Path, f.Syms, i, want)
		}
	}
}

func TestCarveOnPackedImage(t *testing.T) {
	im := sampleImage()
	raw := im.Pack(false)
	found := Carve(raw)
	if len(found) != 2 {
		t.Errorf("Carve on raw image found %d, want 2", len(found))
	}
	// Compressed images hide the magics (binwalk would decompress first).
	comp := im.Pack(true)
	if n := len(Carve(comp)); n != 0 {
		t.Logf("carve on compressed image found %d (zlib may coincidentally contain magic)", n)
	}
}
