package cfg

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"firmup/internal/compiler"
	"firmup/internal/isa"
	_ "firmup/internal/isa/arm"
	"firmup/internal/isa/isatest"
	_ "firmup/internal/isa/mips"
	_ "firmup/internal/isa/ppc"
	_ "firmup/internal/isa/x86"
	"firmup/internal/obj"
	"firmup/internal/uir"
)

func buildExe(t *testing.T, arch uir.Arch, level int) (*obj.File, *isa.Artifact) {
	t.Helper()
	pkg, err := compiler.CompileToMIR(isatest.Source, compiler.Profile{OptLevel: level})
	if err != nil {
		t.Fatal(err)
	}
	be, err := isa.ByArch(arch)
	if err != nil {
		t.Fatal(err)
	}
	art, err := be.Generate(pkg, isa.Options{TextBase: 0x400000})
	if err != nil {
		t.Fatal(err)
	}
	return obj.FromArtifact(art), art
}

func TestRecoverNonStripped(t *testing.T) {
	for _, arch := range []uir.Arch{uir.ArchMIPS32, uir.ArchARM32, uir.ArchPPC32, uir.ArchX86} {
		f, art := buildExe(t, arch, 2)
		rec, err := Recover(f)
		if err != nil {
			t.Fatalf("%v: %v", arch, err)
		}
		if len(rec.Procs) != len(art.Procs) {
			t.Errorf("%v: recovered %d procs, want %d", arch, len(rec.Procs), len(art.Procs))
		}
		for _, want := range art.Procs {
			p := rec.Proc(want.Name)
			if p == nil {
				t.Errorf("%v: procedure %s not recovered", arch, want.Name)
				continue
			}
			if p.Entry != want.Addr {
				t.Errorf("%v: %s entry %#x, want %#x", arch, p.Name, p.Entry, want.Addr)
			}
			if !p.Connected {
				t.Errorf("%v: %s failed connectivity check", arch, p.Name)
			}
			if len(p.Blocks) == 0 {
				t.Errorf("%v: %s has no blocks", arch, p.Name)
			}
			for _, b := range p.Blocks {
				if err := b.Validate(); err != nil {
					t.Errorf("%v: %s: %v", arch, p.Name, err)
				}
			}
		}
		if rec.Coverage < 0.999 {
			t.Errorf("%v: coverage %.3f, want ~1.0", arch, rec.Coverage)
		}
	}
}

// Stripped executables must still be fully partitioned: the same entry
// addresses recovered, under sub_<addr> names, via call targets plus the
// unaccounted-area sweep.
func TestRecoverStripped(t *testing.T) {
	for _, arch := range []uir.Arch{uir.ArchMIPS32, uir.ArchARM32, uir.ArchPPC32, uir.ArchX86} {
		f, art := buildExe(t, arch, 2)
		f.Strip()
		rec, err := Recover(f)
		if err != nil {
			t.Fatalf("%v: %v", arch, err)
		}
		if len(rec.Procs) != len(art.Procs) {
			t.Errorf("%v: stripped recovery found %d procs, want %d", arch, len(rec.Procs), len(art.Procs))
		}
		found := map[uint32]bool{}
		for _, p := range rec.Procs {
			found[p.Entry] = true
			if p.Name[:4] != "sub_" {
				t.Errorf("%v: stripped proc has name %q", arch, p.Name)
			}
		}
		for _, want := range art.Procs {
			if !found[want.Addr] {
				t.Errorf("%v: stripped recovery missed proc at %#x (%s)", arch, want.Addr, want.Name)
			}
		}
		if rec.Coverage < 0.999 {
			t.Errorf("%v: stripped coverage %.3f", arch, rec.Coverage)
		}
	}
}

func TestExportedSurviveStripping(t *testing.T) {
	f, _ := buildExe(t, uir.ArchMIPS32, 1)
	f.MarkExported("table_sum")
	f.Strip()
	rec, err := Recover(f)
	if err != nil {
		t.Fatal(err)
	}
	p := rec.Proc("table_sum")
	if p == nil {
		t.Fatal("exported procedure lost its name after stripping")
	}
	if !p.Exported {
		t.Error("Exported flag not set")
	}
}

// Delay slots: on MIPS every branch's delay instruction must stay inside
// the branch's block, and no block may start in a delay slot.
func TestMIPSDelaySlotBlocks(t *testing.T) {
	f, _ := buildExe(t, uir.ArchMIPS32, 2)
	rec, err := Recover(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rec.Procs {
		delayAddrs := map[uint32]bool{}
		for _, in := range p.Insts {
			if in.HasDelay {
				delayAddrs[in.Addr+in.Size] = true
			}
		}
		for _, b := range p.Blocks {
			if delayAddrs[b.Addr] {
				t.Fatalf("%s: block starts inside a delay slot at %#x", p.Name, b.Addr)
			}
		}
	}
}

// Lifted blocks of the recovered CFG must reproduce the executable's
// behavior: run a procedure by walking recovered blocks and compare with
// the executor.
func TestRecoveredBlocksValidateEverywhere(t *testing.T) {
	for _, arch := range []uir.Arch{uir.ArchMIPS32, uir.ArchARM32, uir.ArchPPC32, uir.ArchX86} {
		for level := 0; level <= 3; level++ {
			f, _ := buildExe(t, arch, level)
			rec, err := Recover(f)
			if err != nil {
				t.Fatalf("%v/O%d: %v", arch, level, err)
			}
			for _, p := range rec.Procs {
				for _, b := range p.Blocks {
					if err := b.Validate(); err != nil {
						t.Errorf("%v/O%d %s: %v", arch, level, p.Name, err)
					}
				}
			}
		}
	}
}

func TestRecoverRejectsMissingText(t *testing.T) {
	f := &obj.File{Arch: uir.ArchMIPS32}
	if _, err := Recover(f); err == nil {
		t.Error("Recover without text section must fail")
	}
}

// Block successor addresses must land on recovered block starts
// (intra-procedure CFG integrity).
func TestBlockSuccessorsResolve(t *testing.T) {
	f, _ := buildExe(t, uir.ArchPPC32, 2)
	rec, err := Recover(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rec.Procs {
		starts := map[uint32]bool{}
		for _, b := range p.Blocks {
			starts[b.Addr] = true
		}
		for _, b := range p.Blocks {
			for _, s := range b.Succs(nil) {
				if s >= p.Entry && s < p.End && !starts[s] {
					t.Errorf("%s: block %#x successor %#x is not a block start", p.Name, b.Addr, s)
				}
			}
		}
	}
}

// TestManySymbolsNameInLinearTime recovers an executable of 20,000
// one-instruction procedures under 20,000 function symbols: both counts
// are the uploader's, so naming merges the two sorted sequences — one
// scan of every symbol per procedure was 4×10^8 steps on this file.
// The symbols are listed in descending address order, and two share
// procedure 7's entry: the first in file order names it.
func TestManySymbolsNameInLinearTime(t *testing.T) {
	const n, base = 20000, 0x400000
	file := &obj.File{
		Arch:     uir.ArchX86,
		Entry:    base,
		Sections: []obj.Section{{Name: ".text", Addr: base, Kind: obj.SecText, Data: bytes.Repeat([]byte{0xC3}, n)}}, // ret
		Syms:     []obj.Symbol{{Name: "first", Addr: base + 7, Size: 1, Kind: obj.SymFunc, Exported: true}},
	}
	for i := n - 1; i >= 0; i-- {
		file.Syms = append(file.Syms, obj.Symbol{Name: fmt.Sprintf("f%d", i), Addr: uint32(base + i), Size: 1, Kind: obj.SymFunc})
	}
	parsed, err := obj.Read(file.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	rec, err := Recover(parsed)
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("recovery took %v, want well under a second", d)
	}
	if len(rec.Procs) != n {
		t.Fatalf("recovered %d procedures, want %d", len(rec.Procs), n)
	}
	for i, p := range rec.Procs {
		want, exported := fmt.Sprintf("f%d", i), false
		if i == 7 {
			want, exported = "first", true
		}
		if p.Name != want || p.Exported != exported {
			t.Fatalf("procedure %d at %#x is %q (exported %v), want %q (%v)", i, p.Entry, p.Name, p.Exported, want, exported)
		}
	}
}
