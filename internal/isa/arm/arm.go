// Package arm implements the ARM32-flavored backend: little-endian 32-bit
// fixed-width encodings, condition flags set by cmp and consumed by
// predicated moves and conditional branches, movw/movt constant
// materialization, and a link register written by bl.
//
// The flag model is synthetic but faithful in spirit: instead of NZCV the
// machine keeps three predicate flags — Z (equal), LTS (signed less-than)
// and LTU (unsigned less-than) — which the lifter exposes directly. Real
// ARM condition codes are modeled as boolean expressions over these.
package arm

import (
	"encoding/binary"
	"fmt"

	"firmup/internal/isa"
	"firmup/internal/uir"
)

// Architectural registers. r13=sp, r14=lr, r15=pc; flags occupy the
// lifter-visible pseudo registers 20-22.
const (
	regR0  uir.Reg = 0
	regSP  uir.Reg = 13
	regLR  uir.Reg = 14
	regPC  uir.Reg = 15
	flagZ  uir.Reg = 20
	flagLT uir.Reg = 21 // signed less-than
	flagLO uir.Reg = 22 // unsigned less-than
)

var regNames = map[uir.Reg]string{
	0: "r0", 1: "r1", 2: "r2", 3: "r3", 4: "r4", 5: "r5", 6: "r6", 7: "r7",
	8: "r8", 9: "r9", 10: "r10", 11: "r11", 12: "r12", 13: "sp", 14: "lr", 15: "pc",
	20: "z", 21: "lts", 22: "ltu",
}

// desc describes the ARM32 backend to isa's shared driver.
var desc = isa.Desc{
	ABI: &uir.ABI{
		Arch:       uir.ArchARM32,
		ArgRegs:    []uir.Reg{0, 1, 2, 3},
		RetReg:     regR0,
		SP:         regSP,
		LinkReg:    regLR,
		Scratch:    []uir.Reg{0, 1, 2, 3, 11, 12, 14, 20, 21, 22},
		StatusRegs: []uir.Reg{flagZ, flagLT, flagLO},
	},
	MinInstSize: 4,
	Order:       binary.LittleEndian,
	Alloc:       []uir.Reg{4, 5, 6, 7, 8, 9, 10},
	Scratch:     [2]uir.Reg{11, 12},
	NewEmitter: func(p *isa.Prog, _ isa.Options) isa.Emitter {
		return &emitter{Prog: p}
	},
	Patch: patch,
}

// Instruction classes (bits 24-27).
const (
	clDPReg  = 0
	clDPImm  = 1
	clMovw   = 2
	clMovt   = 3
	clMemW   = 4
	clBranch = 5
	clBL     = 6
	clBX     = 7
	clMemB   = 8
	clMulDiv = 9
)

// Data-processing opcodes (bits 20-23).
const (
	dpAnd = 0
	dpEor = 1
	dpSub = 2
	dpRsb = 3
	dpAdd = 4
	dpOrr = 5
	dpMov = 6
	dpMvn = 7
	dpCmp = 8
	dpLsl = 9
	dpLsr = 10
	dpAsr = 11
)

// MulDiv opcodes.
const (
	mdMul  = 0
	mdSdiv = 1
	mdUdiv = 2
	mdSrem = 3
	mdUrem = 4
)

// Condition codes (ARM numbering).
const (
	condEQ = 0
	condNE = 1
	condHS = 2
	condLO = 3
	condHI = 8
	condLS = 9
	condGE = 10
	condLT = 11
	condGT = 12
	condLE = 13
	condAL = 14
)

var condNames = map[uint32]string{
	condEQ: "eq", condNE: "ne", condHS: "hs", condLO: "lo", condHI: "hi",
	condLS: "ls", condGE: "ge", condLT: "lt", condGT: "gt", condLE: "le", condAL: "",
}

// Fixup formats.
const (
	fmtB24      uint8 = iota // signed word offset relative to pc+8
	fmtMovwMovt              // movw/movt pair
)

// Backend implements isa.Backend for ARM32: Decode, Lift and Disasm
// here, the rest from desc.
type Backend struct{ isa.Base }

// New returns the ARM backend.
func New() *Backend { return &Backend{isa.Base{Desc: &desc}} }

func init() { isa.Register(New()) }

func enc(cond, class uint32, rest uint32) uint32 {
	return cond<<28 | class<<24 | rest
}

func dpReg(cond, op uint32, rd, rn, rm uir.Reg) uint32 {
	return enc(cond, clDPReg, op<<20|uint32(rd)<<16|uint32(rn)<<12|uint32(rm)<<8)
}

func dpImm(cond, op uint32, rd, rn uir.Reg, imm12 uint32) uint32 {
	return enc(cond, clDPImm, op<<20|uint32(rd)<<16|uint32(rn)<<12|imm12&0xFFF)
}

func mem(class uint32, load bool, rd, rn uir.Reg, imm12 uint32) uint32 {
	l := uint32(0)
	if load {
		l = 1
	}
	return enc(condAL, class, l<<23|uint32(rd)<<16|uint32(rn)<<12|imm12&0xFFF)
}

type emitter struct{ *isa.Prog }

func (e *emitter) Prologue(f isa.Frame) {
	if f.Size > 0 {
		e.Word(dpImm(condAL, dpSub, regSP, regSP, uint32(f.Size)))
	}
	for _, s := range f.Saves {
		e.Word(mem(clMemW, false, s.Reg, regSP, uint32(s.Off)))
	}
	if f.SaveLink {
		e.Word(mem(clMemW, false, regLR, regSP, uint32(f.LinkOff)))
	}
}

func (e *emitter) Epilogue(f isa.Frame) {
	for _, s := range f.Saves {
		e.Word(mem(clMemW, true, s.Reg, regSP, uint32(s.Off)))
	}
	if f.SaveLink {
		e.Word(mem(clMemW, true, regLR, regSP, uint32(f.LinkOff)))
	}
	if f.Size > 0 {
		e.Word(dpImm(condAL, dpAdd, regSP, regSP, uint32(f.Size)))
	}
	e.Word(enc(condAL, clBX, uint32(regLR)))
}

func (e *emitter) MovConst(dst uir.Reg, v uint32) {
	e.Word(enc(condAL, clMovw, uint32(dst)<<16|v&0xFFFF))
	if v>>16 != 0 {
		e.Word(enc(condAL, clMovt, uint32(dst)<<16|v>>16))
	}
}

func (e *emitter) MovReg(dst, src uir.Reg) {
	e.Word(dpReg(condAL, dpMov, dst, 0, src))
}

func (e *emitter) cmp(a, b uir.Reg) { e.Word(dpReg(condAL, dpCmp, 0, a, b)) }

func (e *emitter) setCC(cond uint32, dst uir.Reg) {
	e.Word(dpImm(condAL, dpMov, dst, 0, 0))
	e.Word(dpImm(cond, dpMov, dst, 0, 1))
}

func condFor(op uir.Op) uint32 {
	switch op {
	case uir.OpCmpEQ:
		return condEQ
	case uir.OpCmpNE:
		return condNE
	case uir.OpCmpLTS:
		return condLT
	case uir.OpCmpLTU:
		return condLO
	case uir.OpCmpLES:
		return condLE
	case uir.OpCmpLEU:
		return condLS
	}
	panic("arm: not a compare")
}

func (e *emitter) Bin(op uir.Op, dst, a, b uir.Reg) {
	switch op {
	case uir.OpAdd:
		e.Word(dpReg(condAL, dpAdd, dst, a, b))
	case uir.OpSub:
		e.Word(dpReg(condAL, dpSub, dst, a, b))
	case uir.OpAnd:
		e.Word(dpReg(condAL, dpAnd, dst, a, b))
	case uir.OpOr:
		e.Word(dpReg(condAL, dpOrr, dst, a, b))
	case uir.OpXor:
		e.Word(dpReg(condAL, dpEor, dst, a, b))
	case uir.OpShl:
		e.Word(dpReg(condAL, dpLsl, dst, a, b))
	case uir.OpShrU:
		e.Word(dpReg(condAL, dpLsr, dst, a, b))
	case uir.OpShrS:
		e.Word(dpReg(condAL, dpAsr, dst, a, b))
	case uir.OpMul:
		e.Word(enc(condAL, clMulDiv, mdMul<<20|uint32(dst)<<16|uint32(a)<<12|uint32(b)<<8))
	case uir.OpDivS:
		e.Word(enc(condAL, clMulDiv, mdSdiv<<20|uint32(dst)<<16|uint32(a)<<12|uint32(b)<<8))
	case uir.OpDivU:
		e.Word(enc(condAL, clMulDiv, mdUdiv<<20|uint32(dst)<<16|uint32(a)<<12|uint32(b)<<8))
	case uir.OpRemS:
		e.Word(enc(condAL, clMulDiv, mdSrem<<20|uint32(dst)<<16|uint32(a)<<12|uint32(b)<<8))
	case uir.OpRemU:
		e.Word(enc(condAL, clMulDiv, mdUrem<<20|uint32(dst)<<16|uint32(a)<<12|uint32(b)<<8))
	case uir.OpCmpEQ, uir.OpCmpNE, uir.OpCmpLTS, uir.OpCmpLTU, uir.OpCmpLES, uir.OpCmpLEU:
		e.cmp(a, b)
		e.setCC(condFor(op), dst)
	default:
		panic(fmt.Sprintf("arm: unsupported binary op %v", op))
	}
}

func (e *emitter) Un(op uir.Op, dst, a uir.Reg) {
	switch op {
	case uir.OpNot:
		e.Word(dpReg(condAL, dpMvn, dst, 0, a))
	case uir.OpNeg:
		e.Word(dpImm(condAL, dpRsb, dst, a, 0)) // dst = 0 - a
	case uir.OpBool:
		e.Word(dpImm(condAL, dpCmp, 0, a, 0))
		e.setCC(condNE, dst)
	case uir.OpSext8:
		e.ShiftImm(uir.OpShl, dst, a, 24)
		e.ShiftImm(uir.OpShrS, dst, dst, 24)
	case uir.OpSext16:
		e.ShiftImm(uir.OpShl, dst, a, 16)
		e.ShiftImm(uir.OpShrS, dst, dst, 16)
	case uir.OpZext8:
		e.ShiftImm(uir.OpShl, dst, a, 24)
		e.ShiftImm(uir.OpShrU, dst, dst, 24)
	case uir.OpZext16:
		e.ShiftImm(uir.OpShl, dst, a, 16)
		e.ShiftImm(uir.OpShrU, dst, dst, 16)
	default:
		panic(fmt.Sprintf("arm: unsupported unary op %v", op))
	}
}

func (e *emitter) ShiftImm(op uir.Op, dst, a uir.Reg, k uint8) {
	var dp uint32
	switch op {
	case uir.OpShl:
		dp = dpLsl
	case uir.OpShrU:
		dp = dpLsr
	case uir.OpShrS:
		dp = dpAsr
	default:
		panic("arm: bad immediate shift")
	}
	e.Word(dpImm(condAL, dp, dst, a, uint32(k)))
}

func (e *emitter) Load(dst, base uir.Reg, off int32, size uint8) {
	cl := uint32(clMemW)
	if size == 1 {
		cl = clMemB
	}
	e.Word(mem(cl, true, dst, base, uint32(off)))
}

func (e *emitter) Store(base uir.Reg, off int32, src uir.Reg, size uint8) {
	cl := uint32(clMemW)
	if size == 1 {
		cl = clMemB
	}
	e.Word(mem(cl, false, src, base, uint32(off)))
}

func (e *emitter) AddrAdd(dst, base uir.Reg, off int32) {
	e.Word(dpImm(condAL, dpAdd, dst, base, uint32(off)))
}

func (e *emitter) AddrGlobal(dst uir.Reg, sym string) {
	e.Fixup(0, sym, fmtMovwMovt)
	e.Word(enc(condAL, clMovw, uint32(dst)<<16))
	e.Word(enc(condAL, clMovt, uint32(dst)<<16))
}

func (e *emitter) CallSym(sym string) {
	e.Fixup(0, sym, fmtB24)
	e.Word(enc(condAL, clBL, 0))
}

func (e *emitter) JumpBlock(blk int) {
	e.Fixup(blk, "", fmtB24)
	e.Word(enc(condAL, clBranch, 0))
}

func (e *emitter) CmpBranch(op uir.Op, a, b uir.Reg, trueB int) {
	e.cmp(a, b)
	e.Fixup(trueB, "", fmtB24)
	e.Word(enc(condFor(op), clBranch, 0))
}

func (e *emitter) CondBranch(cond uir.Reg, trueB int) {
	e.Word(dpImm(condAL, dpCmp, 0, cond, 0))
	e.Fixup(trueB, "", fmtB24)
	e.Word(enc(condNE, clBranch, 0))
}

// patch implements isa.Desc.Patch.
func patch(buf []byte, off int, format uint8, instAddr, target uint32) error {
	w := binary.LittleEndian
	switch format {
	case fmtB24:
		delta := int32(target) - int32(instAddr+8)
		if delta%4 != 0 {
			return fmt.Errorf("arm: misaligned branch target %#x", target)
		}
		words := delta / 4
		if words < -(1<<23) || words >= 1<<23 {
			return fmt.Errorf("arm: branch out of range")
		}
		w.PutUint32(buf[off:], w.Uint32(buf[off:])|uint32(words)&0x00FFFFFF)
	case fmtMovwMovt:
		w.PutUint32(buf[off:], w.Uint32(buf[off:])|target&0xFFFF)
		w.PutUint32(buf[off+4:], w.Uint32(buf[off+4:])|target>>16)
	default:
		return fmt.Errorf("arm: unknown fixup format %d", format)
	}
	return nil
}
