package isa_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"testing"

	"firmup/internal/compiler"
	"firmup/internal/isa"
	"firmup/internal/isa/isatest"
	"firmup/internal/uir"
)

// codegenVariants are the tool-chain knobs the corpus and bench/'s
// uploads vary, one at a time over the compiler's default text base.
var codegenVariants = []struct {
	name string
	opt  isa.Options
}{
	{"default", isa.Options{TextBase: 0x400000}},
	{"seeds", isa.Options{TextBase: 0x400000, RegSeed: 7, SchedSeed: 13}},
	{"shuffle", isa.Options{TextBase: 0x400000, RegSeed: 7, ShuffleProcs: true}},
	{"delayslots", isa.Options{TextBase: 0x400000, FillDelaySlots: true}},
	{"mulbyshift", isa.Options{TextBase: 0x400000, MulByShift: true}},
	{"textbase", isa.Options{TextBase: 0x80001000}},
}

// goldenCodegenDigests pin the SHA-256 of every artifact (text, data and
// both symbol tables) the backends emit for isatest.Source at -O2.
var goldenCodegenDigests = map[string]string{
	"mips32/default":    "b37182606be67d0ac7c4d86e4fe2c06129c30b98ed9f061478d8d3973182f8c0",
	"mips32/seeds":      "1264a74673ec1a2f6eb8786aec73133743f48523b64eca051ea600002e17a238",
	"mips32/shuffle":    "2c821549cf8d9de4a0a8b5089f71ceb9ee5d8bf90a33192c56795f9c2418cb04",
	"mips32/delayslots": "0c1bc3049d9af58be0b8bc65b8266bc6a1b4d4954c66ce18f6a40add60dbd988",
	"mips32/mulbyshift": "15fa5ef9f0ad35f1b72521ea287008786edb42ab82f62e9b2653436d8c9a5e41",
	"mips32/textbase":   "0dc82582d460d7bd11df84a61049b4d7f99b25bfc2edd2fda54ccf6342ada67f",
	"arm32/default":     "591021341b9520ba795d8719ee7010d38f86b938d9b6b9ec6411999ba1eb44ec",
	"arm32/seeds":       "ab6e17a2bc2490bcca5b6b3de22cbf9d4955270ccba1f8657c49bf9914504147",
	"arm32/shuffle":     "3dc8d84ba236dea27f76bb1fcad571a6ed8524d191461cd5b180b43770209876",
	"arm32/delayslots":  "591021341b9520ba795d8719ee7010d38f86b938d9b6b9ec6411999ba1eb44ec",
	"arm32/mulbyshift":  "c9dd5074c51a26d1505a14eb242e4356daac229ba45600a6f3ae1cfd4315977a",
	"arm32/textbase":    "1355dc7225e69565a9df47f95d4742bb78b55b0101e0347b7a64b7dff81bb43c",
	"ppc32/default":     "06a77e4ce08f47e0073c08d98eb737bfe3bc4a822570e8444deac5f0ca75d4c0",
	"ppc32/seeds":       "60cb50d1f45a8e31758eb2cb64cf20cc02a67797ce42c383d57d08bb44d299d5",
	"ppc32/shuffle":     "307cadd7ba897d36b8508c895bf0990e654f3f0c10c6060bf09a7741219e4283",
	"ppc32/delayslots":  "06a77e4ce08f47e0073c08d98eb737bfe3bc4a822570e8444deac5f0ca75d4c0",
	"ppc32/mulbyshift":  "ebaa3858e6a4fc3d09cc66301bc3584cedbe181e93db53aea31cb016da69eba8",
	"ppc32/textbase":    "058adcd45ea6d82ea4d3d471827e2504a09c8ecf6ade83161af192d57ad6d55f",
	"x86/default":       "efcef4c6b2c62528979911a2279b61453a40575d06ae68b412ff9ea42078d5c2",
	"x86/seeds":         "2bfc9e9a29b7b61362227d781a33f84ca9e697bff0bd32d7fd97353b25a2d9d0",
	"x86/shuffle":       "1a53a33c4190d3f4346df6fbee792536590e3cbc8dcbe1b2f2539492ac075534",
	"x86/delayslots":    "efcef4c6b2c62528979911a2279b61453a40575d06ae68b412ff9ea42078d5c2",
	"x86/mulbyshift":    "75b495bd69a92043d4eae143fd594338a62d01dfe71aaf0f020cbb489f1ca100",
	"x86/textbase":      "b4be4fcad37a2943eb7ef393c94b3e6c2c313f56be919b86a0bc3083379825d5",
}

// artifactDigest hashes an artifact's sections and symbol tables.
func artifactDigest(a *isa.Artifact) string {
	h := sha256.New()
	section := func(base uint32, b []byte) {
		var hdr [8]byte
		binary.BigEndian.PutUint32(hdr[:4], base)
		binary.BigEndian.PutUint32(hdr[4:], uint32(len(b)))
		h.Write(hdr[:])
		h.Write(b)
	}
	section(a.TextBase, a.Text)
	section(a.DataBase, a.Data)
	syms(h, "procs", a.Procs)
	syms(h, "globals", a.Globals)
	return fmt.Sprintf("%x", h.Sum(nil))
}

func syms(h hash.Hash, table string, ss []isa.Sym) {
	fmt.Fprintf(h, "%s %d\n", table, len(ss))
	for _, s := range ss {
		fmt.Fprintf(h, "%s %#x %d\n", s.Name, s.Addr, s.Size)
	}
}

// TestCodegenDigests pins the bytes every registered backend generates
// under each tool-chain variant, so a refactor of the shared driver or of
// a backend's emitter must leave the machine code identical.
func TestCodegenDigests(t *testing.T) {
	pkg, err := compiler.CompileToMIR(isatest.Source, compiler.Profile{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, arch := range []uir.Arch{uir.ArchMIPS32, uir.ArchARM32, uir.ArchPPC32, uir.ArchX86} {
		be, err := isa.ByArch(arch)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range codegenVariants {
			key := arch.String() + "/" + v.name
			art, err := be.Generate(pkg, v.opt)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if got, want := artifactDigest(art), goldenCodegenDigests[key]; got != want {
				t.Errorf("%s: digest %s, want %s", key, got, want)
			}
		}
	}
}
