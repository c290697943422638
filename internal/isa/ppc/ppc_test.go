package ppc

import (
	"testing"

	"firmup/internal/isa"
	"firmup/internal/isa/isatest"
	"firmup/internal/uir"
)

func TestConformance(t *testing.T) { isatest.Conformance(t, New()) }
func TestDisassembly(t *testing.T) { isatest.Disassembly(t, New()) }

func TestBranchEncoding(t *testing.T) {
	be := New()
	// b .+16 at 0x3000.
	w := uint32(opB)<<26 | 16
	buf := []byte{byte(w >> 24), byte(w >> 16), byte(w >> 8), byte(w)}
	inst, err := be.Decode(buf, 0, 0x3000)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Kind != isa.KindJump || inst.Target != 0x3010 {
		t.Errorf("kind=%v target=%#x", inst.Kind, inst.Target)
	}
	// bl backwards.
	w = uint32(opB)<<26 | (0x03FFFFFC & uint32(0x03FFFFF8)) | 1
	buf = []byte{byte(w >> 24), byte(w >> 16), byte(w >> 8), byte(w)}
	inst, err = be.Decode(buf, 0, 0x3000)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Kind != isa.KindCall || inst.Target != 0x2FF8 {
		t.Errorf("bl kind=%v target=%#x", inst.Kind, inst.Target)
	}
}

func TestCmpwLiftsCr0(t *testing.T) {
	be := New()
	w := xform(xoCmpw, 0, 4, 5)
	buf := []byte{byte(w >> 24), byte(w >> 16), byte(w >> 8), byte(w)}
	inst, err := be.Decode(buf, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	lb := &isa.LiftBuilder{}
	if err := be.Lift(inst, lb); err != nil {
		t.Fatal(err)
	}
	set := map[uir.Reg]bool{}
	for _, s := range lb.Stmts {
		if s.Kind == uir.StmtPut {
			set[s.Reg] = true
		}
	}
	for _, f := range []uir.Reg{crLT, crGT, crEQ} {
		if !set[f] {
			t.Errorf("cmpw did not set %v", regNames()[f])
		}
	}
	if set[crLTU] || set[crGTU] {
		t.Error("cmpw must not set the unsigned bits")
	}
}

func TestBlrDecodesAsRet(t *testing.T) {
	be := New()
	w := uint32(opOp19)<<26 | xoBlr<<1
	buf := []byte{byte(w >> 24), byte(w >> 16), byte(w >> 8), byte(w)}
	inst, err := be.Decode(buf, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Kind != isa.KindRet {
		t.Errorf("blr kind = %v", inst.Kind)
	}
}

func TestLiMaterializesConstant(t *testing.T) {
	be := New()
	w := dform(opAddi, 7, 0, 42)
	buf := []byte{byte(w >> 24), byte(w >> 16), byte(w >> 8), byte(w)}
	inst, err := be.Decode(buf, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	lb := &isa.LiftBuilder{}
	if err := be.Lift(inst, lb); err != nil {
		t.Fatal(err)
	}
	if len(lb.Stmts) != 1 {
		t.Fatalf("li lifted to %d stmts", len(lb.Stmts))
	}
	p := lb.Stmts[0]
	if p.Kind != uir.StmtPut || !p.A.IsConst || p.A.Val != 42 {
		t.Errorf("li lift = %v", lb.Stmts[0])
	}
}

func TestDecodeRobustness(t *testing.T) { isatest.DecodeRobustness(t, New(), 3) }
