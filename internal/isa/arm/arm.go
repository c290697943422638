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
	"fmt"

	"firmup/internal/isa"
	"firmup/internal/mir"
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

func abi() *uir.ABI {
	return &uir.ABI{
		Arch:       uir.ArchARM32,
		ArgRegs:    []uir.Reg{0, 1, 2, 3},
		RetReg:     regR0,
		SP:         regSP,
		LinkReg:    regLR,
		Scratch:    []uir.Reg{0, 1, 2, 3, 11, 12, 14, 20, 21, 22},
		StatusRegs: []uir.Reg{flagZ, flagLT, flagLO},
	}
}

func desc() *isa.Desc {
	return &isa.Desc{
		Arch:    uir.ArchARM32,
		ABI:     abi(),
		Alloc:   []uir.Reg{4, 5, 6, 7, 8, 9, 10},
		Scratch: [2]uir.Reg{11, 12},
	}
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

// Backend implements isa.Backend for ARM32.
type Backend struct{ d *isa.Desc }

// New returns the ARM backend.
func New() *Backend { return &Backend{d: desc()} }

func init() { isa.Register(New()) }

// Arch implements isa.Backend.
func (b *Backend) Arch() uir.Arch { return uir.ArchARM32 }

// ABI implements isa.Backend.
func (b *Backend) ABI() *uir.ABI { return b.d.ABI }

// MinInstSize implements isa.Backend.
func (b *Backend) MinInstSize() uint32 { return 4 }

// Generate implements isa.Backend.
func (b *Backend) Generate(pkg *mir.Package, opt isa.Options) (*isa.Artifact, error) {
	return isa.GenerateWith(pkg, b.d, func(p *isa.Prog) isa.Emitter {
		return &emitter{prog: p}
	}, b, opt)
}

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

type emitter struct{ prog *isa.Prog }

func (e *emitter) word(w uint32) {
	e.prog.Buf = append(e.prog.Buf, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
}

func (e *emitter) MarkBlock(id int) { e.prog.BlockOff[id] = len(e.prog.Buf) }

func (e *emitter) fixup(block int, sym string, format uint8) {
	e.prog.Fixups = append(e.prog.Fixups, isa.Fixup{Off: len(e.prog.Buf), Block: block, Sym: sym, Format: format})
}

func (e *emitter) Prologue(f isa.Frame) {
	if f.Size > 0 {
		e.word(dpImm(condAL, dpSub, regSP, regSP, uint32(f.Size)))
	}
	for _, s := range f.Saves {
		e.word(mem(clMemW, false, s.Reg, regSP, uint32(s.Off)))
	}
	if f.SaveLink {
		e.word(mem(clMemW, false, regLR, regSP, uint32(f.LinkOff)))
	}
}

func (e *emitter) Epilogue(f isa.Frame) {
	for _, s := range f.Saves {
		e.word(mem(clMemW, true, s.Reg, regSP, uint32(s.Off)))
	}
	if f.SaveLink {
		e.word(mem(clMemW, true, regLR, regSP, uint32(f.LinkOff)))
	}
	if f.Size > 0 {
		e.word(dpImm(condAL, dpAdd, regSP, regSP, uint32(f.Size)))
	}
	e.word(enc(condAL, clBX, uint32(regLR)))
}

func (e *emitter) MovConst(dst uir.Reg, v uint32) {
	e.word(enc(condAL, clMovw, uint32(dst)<<16|v&0xFFFF))
	if v>>16 != 0 {
		e.word(enc(condAL, clMovt, uint32(dst)<<16|v>>16))
	}
}

func (e *emitter) MovReg(dst, src uir.Reg) {
	e.word(dpReg(condAL, dpMov, dst, 0, src))
}

func (e *emitter) cmp(a, b uir.Reg) { e.word(dpReg(condAL, dpCmp, 0, a, b)) }

func (e *emitter) setCC(cond uint32, dst uir.Reg) {
	e.word(dpImm(condAL, dpMov, dst, 0, 0))
	e.word(dpImm(cond, dpMov, dst, 0, 1))
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
		e.word(dpReg(condAL, dpAdd, dst, a, b))
	case uir.OpSub:
		e.word(dpReg(condAL, dpSub, dst, a, b))
	case uir.OpAnd:
		e.word(dpReg(condAL, dpAnd, dst, a, b))
	case uir.OpOr:
		e.word(dpReg(condAL, dpOrr, dst, a, b))
	case uir.OpXor:
		e.word(dpReg(condAL, dpEor, dst, a, b))
	case uir.OpShl:
		e.word(dpReg(condAL, dpLsl, dst, a, b))
	case uir.OpShrU:
		e.word(dpReg(condAL, dpLsr, dst, a, b))
	case uir.OpShrS:
		e.word(dpReg(condAL, dpAsr, dst, a, b))
	case uir.OpMul:
		e.word(enc(condAL, clMulDiv, mdMul<<20|uint32(dst)<<16|uint32(a)<<12|uint32(b)<<8))
	case uir.OpDivS:
		e.word(enc(condAL, clMulDiv, mdSdiv<<20|uint32(dst)<<16|uint32(a)<<12|uint32(b)<<8))
	case uir.OpDivU:
		e.word(enc(condAL, clMulDiv, mdUdiv<<20|uint32(dst)<<16|uint32(a)<<12|uint32(b)<<8))
	case uir.OpRemS:
		e.word(enc(condAL, clMulDiv, mdSrem<<20|uint32(dst)<<16|uint32(a)<<12|uint32(b)<<8))
	case uir.OpRemU:
		e.word(enc(condAL, clMulDiv, mdUrem<<20|uint32(dst)<<16|uint32(a)<<12|uint32(b)<<8))
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
		e.word(dpReg(condAL, dpMvn, dst, 0, a))
	case uir.OpNeg:
		e.word(dpImm(condAL, dpRsb, dst, a, 0)) // dst = 0 - a
	case uir.OpBool:
		e.word(dpImm(condAL, dpCmp, 0, a, 0))
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
	e.word(dpImm(condAL, dp, dst, a, uint32(k)))
}

func (e *emitter) Load(dst, base uir.Reg, off int32, size uint8) {
	cl := uint32(clMemW)
	if size == 1 {
		cl = clMemB
	}
	e.word(mem(cl, true, dst, base, uint32(off)))
}

func (e *emitter) Store(base uir.Reg, off int32, src uir.Reg, size uint8) {
	cl := uint32(clMemW)
	if size == 1 {
		cl = clMemB
	}
	e.word(mem(cl, false, src, base, uint32(off)))
}

func (e *emitter) AddrAdd(dst, base uir.Reg, off int32) {
	e.word(dpImm(condAL, dpAdd, dst, base, uint32(off)))
}

func (e *emitter) AddrGlobal(dst uir.Reg, sym string) {
	e.fixup(0, sym, fmtMovwMovt)
	e.word(enc(condAL, clMovw, uint32(dst)<<16))
	e.word(enc(condAL, clMovt, uint32(dst)<<16))
}

func (e *emitter) CallSym(sym string) {
	e.fixup(0, sym, fmtB24)
	e.word(enc(condAL, clBL, 0))
}

func (e *emitter) JumpBlock(blk int) {
	e.fixup(blk, "", fmtB24)
	e.word(enc(condAL, clBranch, 0))
}

func (e *emitter) CmpBranch(op uir.Op, a, b uir.Reg, trueB int) {
	e.cmp(a, b)
	e.fixup(trueB, "", fmtB24)
	e.word(enc(condFor(op), clBranch, 0))
}

func (e *emitter) CondBranch(cond uir.Reg, trueB int) {
	e.word(dpImm(condAL, dpCmp, 0, cond, 0))
	e.fixup(trueB, "", fmtB24)
	e.word(enc(condNE, clBranch, 0))
}

func (e *emitter) StoreArgStack(int, uir.Reg)       { panic("arm: register-argument ABI") }
func (e *emitter) LoadArgStack(uir.Reg, int, int32) { panic("arm: register-argument ABI") }

// Patch implements isa.Patcher.
func (b *Backend) Patch(buf []byte, off int, format uint8, instAddr, target uint32) error {
	rd := func(o int) uint32 {
		return uint32(buf[o]) | uint32(buf[o+1])<<8 | uint32(buf[o+2])<<16 | uint32(buf[o+3])<<24
	}
	wr := func(o int, w uint32) {
		buf[o], buf[o+1], buf[o+2], buf[o+3] = byte(w), byte(w>>8), byte(w>>16), byte(w>>24)
	}
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
		wr(off, rd(off)|uint32(words)&0x00FFFFFF)
	case fmtMovwMovt:
		wr(off, rd(off)|target&0xFFFF)
		wr(off+4, rd(off+4)|target>>16)
	default:
		return fmt.Errorf("arm: unknown fixup format %d", format)
	}
	return nil
}
