package arm

import (
	"testing"

	"firmup/internal/isa"
	"firmup/internal/isa/isatest"
	"firmup/internal/uir"
)

func TestConformance(t *testing.T) { isatest.Conformance(t, New()) }
func TestDisassembly(t *testing.T) { isatest.Disassembly(t, New()) }

func TestBranchTargetArithmetic(t *testing.T) {
	be := New()
	// b 0x1020 encoded at 0x1000: offset words = (0x1020 - 0x1008)/4 = 6.
	w := enc(condAL, clBranch, uint32(6)&0xFFFFFF)
	buf := []byte{byte(w), byte(w >> 8), byte(w >> 16), byte(w >> 24)}
	inst, err := be.Decode(buf, 0, 0x1000)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Kind != isa.KindJump || inst.Target != 0x1020 {
		t.Errorf("kind=%v target=%#x", inst.Kind, inst.Target)
	}
}

func TestConditionalBranchDecodes(t *testing.T) {
	be := New()
	w := enc(condLT, clBranch, uint32(0xFFFFFE))
	buf := []byte{byte(w), byte(w >> 8), byte(w >> 16), byte(w >> 24)}
	inst, err := be.Decode(buf, 0, 0x2000)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Kind != isa.KindCondBranch {
		t.Errorf("kind = %v", inst.Kind)
	}
	if inst.Target != 0x2000+8-8 {
		t.Errorf("target = %#x", inst.Target)
	}
}

func TestPredicatedMovLiftsToSel(t *testing.T) {
	be := New()
	w := dpImm(condNE, dpMov, 4, 0, 1) // movne r4, #1
	buf := []byte{byte(w), byte(w >> 8), byte(w >> 16), byte(w >> 24)}
	inst, err := be.Decode(buf, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	lb := &isa.LiftBuilder{}
	if err := be.Lift(inst, lb); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range lb.Stmts {
		if s.Kind == uir.StmtSel {
			found = true
		}
	}
	if !found {
		t.Errorf("movne did not lift to Sel: %v", lb.Stmts)
	}
}

func TestCmpLiftsAllFlags(t *testing.T) {
	be := New()
	w := dpReg(condAL, dpCmp, 0, 4, 5)
	buf := []byte{byte(w), byte(w >> 8), byte(w >> 16), byte(w >> 24)}
	inst, err := be.Decode(buf, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	lb := &isa.LiftBuilder{}
	if err := be.Lift(inst, lb); err != nil {
		t.Fatal(err)
	}
	flags := map[uir.Reg]bool{}
	for _, s := range lb.Stmts {
		if s.Kind == uir.StmtPut {
			flags[s.Reg] = true
		}
	}
	for _, f := range []uir.Reg{flagZ, flagLT, flagLO} {
		if !flags[f] {
			t.Errorf("cmp did not set flag %s", regNames[f])
		}
	}
}

func TestDecodeRobustness(t *testing.T) { isatest.DecodeRobustness(t, New(), 2) }
