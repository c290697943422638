// Package ppc implements the PPC32-flavored backend: big-endian 32-bit
// fixed-width encodings, lis/ori constant materialization, cr0-based
// compares (cmpw/cmplw) consumed by bc branches, and a link register
// accessed through mflr/mtlr.
//
// cr0 is modeled as five predicate bits — LT, GT, EQ (signed compare) and
// LTU, GTU (unsigned compare) — exposed to the lifter as pseudo
// registers. A synthetic setb instruction materializes a cr0 bit into a
// GPR (standing in for the mfcr/rlwinm idiom).
package ppc

import (
	"fmt"

	"firmup/internal/isa"
	"firmup/internal/mir"
	"firmup/internal/uir"
)

// Registers: r0-r31 are GPRs (r1 is the stack pointer), 40 is LR and
// 45-49 are the cr0 predicate bits.
const (
	regR0 uir.Reg = 0
	regSP uir.Reg = 1
	regLR uir.Reg = 40
	crLT  uir.Reg = 45
	crGT  uir.Reg = 46
	crEQ  uir.Reg = 47
	crLTU uir.Reg = 48
	crGTU uir.Reg = 49
)

func regNames() map[uir.Reg]string {
	m := map[uir.Reg]string{regLR: "lr", crLT: "cr0.lt", crGT: "cr0.gt", crEQ: "cr0.eq", crLTU: "cr0.ltu", crGTU: "cr0.gtu"}
	for i := 0; i < 32; i++ {
		m[uir.Reg(i)] = fmt.Sprintf("r%d", i)
	}
	m[1] = "sp"
	return m
}

func abi() *uir.ABI {
	return &uir.ABI{
		Arch:       uir.ArchPPC32,
		ArgRegs:    []uir.Reg{3, 4, 5, 6},
		RetReg:     3,
		SP:         regSP,
		LinkReg:    regLR,
		Scratch:    []uir.Reg{0, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, crLT, crGT, crEQ, crLTU, crGTU},
		StatusRegs: []uir.Reg{crLT, crGT, crEQ, crLTU, crGTU},
	}
}

func desc() *isa.Desc {
	return &isa.Desc{
		Arch:    uir.ArchPPC32,
		ABI:     abi(),
		Alloc:   []uir.Reg{14, 15, 16, 17, 18, 19, 20, 21},
		Scratch: [2]uir.Reg{11, 12},
	}
}

// Primary opcodes.
const (
	opBc    = 16
	opB     = 18
	opOp19  = 19
	opAddi  = 14
	opAddis = 15
	opOri   = 24
	opXori  = 26
	opAndi  = 28
	opOp31  = 31
	opLwz   = 32
	opLbz   = 34
	opStw   = 36
	opStb   = 38
)

// op31 extended opcodes (bits 1-10).
const (
	xoCmpw  = 0
	xoCmplw = 32
	xoSubf  = 40
	xoAnd   = 28
	xoSlw   = 24
	xoNeg   = 104
	xoNor   = 124
	xoMullw = 235
	xoAdd   = 266
	xoXor   = 316
	xoMflr  = 339
	xoOr    = 444
	xoDivwu = 459
	xoMtlr  = 467
	xoSrw   = 536
	xoSrem  = 600
	xoUrem  = 601
	xoSrawi = 824
	xoSraw  = 792
	xoSetb  = 900
	xoExtsh = 922
	xoExtsb = 954
	xoSlwi  = 970
	xoSrwi  = 971
	xoDivw  = 491
)

// op19 extended opcodes.
const xoBlr = 16

// cr0 bit indices used in BI fields.
const (
	biLT  = 0
	biGT  = 1
	biEQ  = 2
	biLTU = 3
	biGTU = 4
)

var biReg = map[uint32]uir.Reg{biLT: crLT, biGT: crGT, biEQ: crEQ, biLTU: crLTU, biGTU: crGTU}

// BO values: branch if bit true / false.
const (
	boTrue  = 12
	boFalse = 4
)

// Fixup formats.
const (
	fmtRel14 uint8 = iota // bc displacement
	fmtRel24              // b/bl displacement
	fmtHiLo               // lis/ori address pair
)

// Backend implements isa.Backend for PPC32.
type Backend struct{ d *isa.Desc }

// New returns the PPC backend.
func New() *Backend { return &Backend{d: desc()} }

func init() { isa.Register(New()) }

// Arch implements isa.Backend.
func (b *Backend) Arch() uir.Arch { return uir.ArchPPC32 }

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

func dform(op uint32, rt, ra uir.Reg, imm uint16) uint32 {
	return op<<26 | uint32(rt)<<21 | uint32(ra)<<16 | uint32(imm)
}

func xform(xo uint32, rt, ra, rb uir.Reg) uint32 {
	return uint32(opOp31)<<26 | uint32(rt)<<21 | uint32(ra)<<16 | uint32(rb)<<11 | xo<<1
}

type emitter struct{ prog *isa.Prog }

func (e *emitter) word(w uint32) {
	e.prog.Buf = append(e.prog.Buf, byte(w>>24), byte(w>>16), byte(w>>8), byte(w))
}

func (e *emitter) MarkBlock(id int) { e.prog.BlockOff[id] = len(e.prog.Buf) }

func (e *emitter) fixup(block int, sym string, format uint8) {
	e.prog.Fixups = append(e.prog.Fixups, isa.Fixup{Off: len(e.prog.Buf), Block: block, Sym: sym, Format: format})
}

func (e *emitter) Prologue(f isa.Frame) {
	if f.Size > 0 {
		e.word(dform(opAddi, regSP, regSP, uint16(uint32(-f.Size))))
	}
	for _, s := range f.Saves {
		e.word(dform(opStw, s.Reg, regSP, uint16(uint32(s.Off))))
	}
	if f.SaveLink {
		e.word(xform(xoMflr, regR0, 0, 0))
		e.word(dform(opStw, regR0, regSP, uint16(uint32(f.LinkOff))))
	}
}

func (e *emitter) Epilogue(f isa.Frame) {
	for _, s := range f.Saves {
		e.word(dform(opLwz, s.Reg, regSP, uint16(uint32(s.Off))))
	}
	if f.SaveLink {
		e.word(dform(opLwz, regR0, regSP, uint16(uint32(f.LinkOff))))
		e.word(xform(xoMtlr, regR0, 0, 0))
	}
	if f.Size > 0 {
		e.word(dform(opAddi, regSP, regSP, uint16(uint32(f.Size))))
	}
	e.word(uint32(opOp19)<<26 | xoBlr<<1)
}

func (e *emitter) MovConst(dst uir.Reg, v uint32) {
	switch {
	case int32(v) >= -0x8000 && int32(v) <= 0x7FFF:
		e.word(dform(opAddi, dst, 0, uint16(v))) // li
	default:
		e.word(dform(opAddis, dst, 0, uint16(v>>16))) // lis
		if v&0xFFFF != 0 {
			e.word(dform(opOri, dst, dst, uint16(v)))
		}
	}
}

func (e *emitter) MovReg(dst, src uir.Reg) {
	e.word(xform(xoOr, src, dst, src)) // mr dst, src == or dst, src, src
}

// Note the PPC field convention for logical/shift X-form ops: the source
// sits in the rt slot and the destination in the ra slot.
func (e *emitter) logical(xo uint32, dst, a, b uir.Reg) {
	e.word(xform(xo, a, dst, b))
}

func (e *emitter) arith(xo uint32, dst, a, b uir.Reg) {
	e.word(xform(xo, dst, a, b))
}

func (e *emitter) cmpw(a, b uir.Reg)  { e.word(xform(xoCmpw, 0, a, b)) }
func (e *emitter) cmplw(a, b uir.Reg) { e.word(xform(xoCmplw, 0, a, b)) }

func (e *emitter) setb(dst uir.Reg, bi uint32) {
	e.word(xform(xoSetb, dst, uir.Reg(bi), 0))
}

func (e *emitter) Bin(op uir.Op, dst, a, b uir.Reg) {
	switch op {
	case uir.OpAdd:
		e.arith(xoAdd, dst, a, b)
	case uir.OpSub:
		e.arith(xoSubf, dst, b, a) // subf rd, ra, rb = rb - ra
	case uir.OpMul:
		e.arith(xoMullw, dst, a, b)
	case uir.OpDivS:
		e.arith(xoDivw, dst, a, b)
	case uir.OpDivU:
		e.arith(xoDivwu, dst, a, b)
	case uir.OpRemS:
		e.arith(xoSrem, dst, a, b)
	case uir.OpRemU:
		e.arith(xoUrem, dst, a, b)
	case uir.OpAnd:
		e.logical(xoAnd, dst, a, b)
	case uir.OpOr:
		e.logical(xoOr, dst, a, b)
	case uir.OpXor:
		e.logical(xoXor, dst, a, b)
	case uir.OpShl:
		e.logical(xoSlw, dst, a, b)
	case uir.OpShrU:
		e.logical(xoSrw, dst, a, b)
	case uir.OpShrS:
		e.logical(xoSraw, dst, a, b)
	case uir.OpCmpEQ:
		e.cmpw(a, b)
		e.setb(dst, biEQ)
	case uir.OpCmpNE:
		e.cmpw(a, b)
		e.setb(dst, biEQ)
		e.word(dform(opXori, dst, dst, 1))
	case uir.OpCmpLTS:
		e.cmpw(a, b)
		e.setb(dst, biLT)
	case uir.OpCmpLTU:
		e.cmplw(a, b)
		e.setb(dst, biLTU)
	case uir.OpCmpLES:
		e.cmpw(a, b)
		e.setb(dst, biGT)
		e.word(dform(opXori, dst, dst, 1))
	case uir.OpCmpLEU:
		e.cmplw(a, b)
		e.setb(dst, biGTU)
		e.word(dform(opXori, dst, dst, 1))
	default:
		panic(fmt.Sprintf("ppc: unsupported binary op %v", op))
	}
}

func (e *emitter) Un(op uir.Op, dst, a uir.Reg) {
	switch op {
	case uir.OpNot:
		e.word(xform(xoNor, a, dst, a)) // nor dst, a, a
	case uir.OpNeg:
		e.word(xform(xoNeg, dst, a, 0))
	case uir.OpBool:
		e.word(dform(opAddi, regR0, 0, 0)) // li r0, 0
		e.cmplw(regR0, a)                  // LTU = 0 <u a
		e.setb(dst, biLTU)
	case uir.OpSext8:
		e.word(xform(xoExtsb, a, dst, 0))
	case uir.OpSext16:
		e.word(xform(xoExtsh, a, dst, 0))
	case uir.OpZext8:
		e.word(dform(opAndi, a, dst, 0xFF))
	case uir.OpZext16:
		e.word(dform(opAndi, a, dst, 0xFFFF))
	default:
		panic(fmt.Sprintf("ppc: unsupported unary op %v", op))
	}
}

func (e *emitter) ShiftImm(op uir.Op, dst, a uir.Reg, k uint8) {
	switch op {
	case uir.OpShl:
		e.word(xform(xoSlwi, a, dst, uir.Reg(k)))
	case uir.OpShrU:
		e.word(xform(xoSrwi, a, dst, uir.Reg(k)))
	case uir.OpShrS:
		e.word(xform(xoSrawi, a, dst, uir.Reg(k)))
	default:
		panic("ppc: bad immediate shift")
	}
}

func (e *emitter) Load(dst, base uir.Reg, off int32, size uint8) {
	op := uint32(opLwz)
	if size == 1 {
		op = opLbz
	}
	e.word(dform(op, dst, base, uint16(uint32(off))))
}

func (e *emitter) Store(base uir.Reg, off int32, src uir.Reg, size uint8) {
	op := uint32(opStw)
	if size == 1 {
		op = opStb
	}
	e.word(dform(op, src, base, uint16(uint32(off))))
}

func (e *emitter) AddrAdd(dst, base uir.Reg, off int32) {
	e.word(dform(opAddi, dst, base, uint16(uint32(off))))
}

func (e *emitter) AddrGlobal(dst uir.Reg, sym string) {
	e.fixup(0, sym, fmtHiLo)
	e.word(dform(opAddis, dst, 0, 0))
	e.word(dform(opOri, dst, dst, 0))
}

func (e *emitter) CallSym(sym string) {
	e.fixup(0, sym, fmtRel24)
	e.word(uint32(opB)<<26 | 1) // bl (LK=1)
}

func (e *emitter) JumpBlock(blk int) {
	e.fixup(blk, "", fmtRel24)
	e.word(uint32(opB) << 26)
}

func (e *emitter) bc(bo, bi uint32, blk int) {
	e.fixup(blk, "", fmtRel14)
	e.word(uint32(opBc)<<26 | bo<<21 | bi<<16)
}

func (e *emitter) CmpBranch(op uir.Op, a, b uir.Reg, trueB int) {
	switch op {
	case uir.OpCmpEQ:
		e.cmpw(a, b)
		e.bc(boTrue, biEQ, trueB)
	case uir.OpCmpNE:
		e.cmpw(a, b)
		e.bc(boFalse, biEQ, trueB)
	case uir.OpCmpLTS:
		e.cmpw(a, b)
		e.bc(boTrue, biLT, trueB)
	case uir.OpCmpLES:
		e.cmpw(a, b)
		e.bc(boFalse, biGT, trueB)
	case uir.OpCmpLTU:
		e.cmplw(a, b)
		e.bc(boTrue, biLTU, trueB)
	case uir.OpCmpLEU:
		e.cmplw(a, b)
		e.bc(boFalse, biGTU, trueB)
	default:
		panic("ppc: bad compare-branch op")
	}
}

func (e *emitter) CondBranch(cond uir.Reg, trueB int) {
	e.word(dform(opAddi, regR0, 0, 0)) // li r0, 0
	e.cmplw(regR0, cond)               // LTU = 0 <u cond
	e.bc(boTrue, biLTU, trueB)
}

func (e *emitter) StoreArgStack(int, uir.Reg)       { panic("ppc: register-argument ABI") }
func (e *emitter) LoadArgStack(uir.Reg, int, int32) { panic("ppc: register-argument ABI") }

// Patch implements isa.Patcher.
func (b *Backend) Patch(buf []byte, off int, format uint8, instAddr, target uint32) error {
	rd := func(o int) uint32 {
		return uint32(buf[o])<<24 | uint32(buf[o+1])<<16 | uint32(buf[o+2])<<8 | uint32(buf[o+3])
	}
	wr := func(o int, w uint32) {
		buf[o], buf[o+1], buf[o+2], buf[o+3] = byte(w>>24), byte(w>>16), byte(w>>8), byte(w)
	}
	delta := int32(target) - int32(instAddr)
	switch format {
	case fmtRel14:
		if delta%4 != 0 || delta < -0x8000 || delta > 0x7FFF {
			return fmt.Errorf("ppc: bc displacement out of range (%d)", delta)
		}
		wr(off, rd(off)|uint32(delta)&0xFFFC)
	case fmtRel24:
		if delta%4 != 0 || delta < -(1<<25) || delta >= 1<<25 {
			return fmt.Errorf("ppc: b displacement out of range (%d)", delta)
		}
		wr(off, rd(off)|uint32(delta)&0x03FFFFFC)
	case fmtHiLo:
		wr(off, rd(off)|target>>16)
		wr(off+4, rd(off+4)|target&0xFFFF)
	default:
		return fmt.Errorf("ppc: unknown fixup format %d", format)
	}
	return nil
}
