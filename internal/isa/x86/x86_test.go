package x86

import (
	"testing"

	"firmup/internal/isa"
	"firmup/internal/isa/isatest"
	"firmup/internal/uir"
)

func TestConformance(t *testing.T) { isatest.Conformance(t, New()) }
func TestDisassembly(t *testing.T) { isatest.Disassembly(t, New()) }

func TestVariableLengthDecoding(t *testing.T) {
	be := New()
	// ret; cdq; mov eax, 0x11223344; jmp +0
	buf := []byte{0xC3, 0x99, 0xB8, 0x44, 0x33, 0x22, 0x11, 0xE9, 0, 0, 0, 0}
	sizes := []uint32{1, 1, 5, 5}
	off := 0
	for i, want := range sizes {
		inst, err := be.Decode(buf, off, uint32(off))
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if inst.Size != want {
			t.Errorf("inst %d size = %d, want %d", i, inst.Size, want)
		}
		off += int(inst.Size)
	}
}

func TestCallRelTarget(t *testing.T) {
	be := New()
	// call rel32 = +0x20 at addr 0x400000 -> target 0x400025.
	buf := []byte{0xE8, 0x20, 0, 0, 0}
	inst, err := be.Decode(buf, 0, 0x400000)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Kind != isa.KindCall || inst.Target != 0x400025 {
		t.Errorf("kind=%v target=%#x", inst.Kind, inst.Target)
	}
}

func TestIdivLiftsQuotientAndRemainder(t *testing.T) {
	be := New()
	buf := []byte{0xF7, modrmReg(7, regEBX)}
	inst, err := be.Decode(buf, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	lb := &isa.LiftBuilder{}
	if err := be.Lift(inst, lb); err != nil {
		t.Fatal(err)
	}
	puts := map[uir.Reg]bool{}
	for _, s := range lb.Stmts {
		if s.Kind == uir.StmtPut {
			puts[s.Reg] = true
		}
	}
	if !puts[regEAX] || !puts[regEDX] {
		t.Errorf("idiv must write eax (quotient) and edx (remainder): %v", lb.Stmts)
	}
}

func TestSetccReadsFlags(t *testing.T) {
	be := New()
	buf := []byte{0x0F, 0x90 + ccLE, modrmReg(0, regEBX)}
	inst, err := be.Decode(buf, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := be.Disasm(inst); got != "setle ebx" {
		t.Errorf("mnemonic = %q", got)
	}
	lb := &isa.LiftBuilder{}
	if err := be.Lift(inst, lb); err != nil {
		t.Fatal(err)
	}
	gets := map[uir.Reg]bool{}
	for _, s := range lb.Stmts {
		if s.Kind == uir.StmtGet {
			gets[s.Reg] = true
		}
	}
	if !gets[flagZ] || !gets[flagLT] {
		t.Errorf("setle must read Z and LTS flags")
	}
}

func TestStackArgsRoundTrip(t *testing.T) {
	// Covered by conformance (x86 is the stack-args ABI), but check the
	// bytes of the driver's stack-argument traffic directly: it stores
	// outgoing argument 0 at [esp-4] and loads incoming argument 0 of a
	// 0x40-byte frame from [esp+0x3C], both through Store/Load at size 4.
	p := &isa.Prog{BlockOff: map[int]int{}, Order: desc.Order}
	e := desc.NewEmitter(p, isa.Options{})
	e.Store(regESP, -4, regEBX, 4)
	e.Load(regESI, regESP, 0x40-4, 4)
	// mov [esp-4], ebx = 89 mod10 reg=ebx rm=esp disp -4
	want := []byte{0x89, modrmMem(regEBX, regESP), 0xFC, 0xFF, 0xFF, 0xFF}
	for i, b := range want {
		if p.Buf[i] != b {
			t.Fatalf("store byte %d = %#x, want %#x", i, p.Buf[i], b)
		}
	}
	// mov esi, [esp+0x3C]
	want2 := []byte{0x8B, modrmMem(regESI, regESP), 0x3C, 0, 0, 0}
	for i, b := range want2 {
		if p.Buf[6+i] != b {
			t.Fatalf("load byte %d = %#x, want %#x", i, p.Buf[6+i], b)
		}
	}
}

func TestDecodeRobustness(t *testing.T) { isatest.DecodeRobustness(t, New(), 4) }
