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
	"encoding/binary"
	"fmt"

	"firmup/internal/isa"
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

// desc describes the PPC32 backend to isa's shared driver.
var desc = isa.Desc{
	ABI: &uir.ABI{
		Arch:       uir.ArchPPC32,
		ArgRegs:    []uir.Reg{3, 4, 5, 6},
		RetReg:     3,
		SP:         regSP,
		LinkReg:    regLR,
		Scratch:    []uir.Reg{0, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, crLT, crGT, crEQ, crLTU, crGTU},
		StatusRegs: []uir.Reg{crLT, crGT, crEQ, crLTU, crGTU},
	},
	MinInstSize: 4,
	Order:       binary.BigEndian,
	Alloc:       []uir.Reg{14, 15, 16, 17, 18, 19, 20, 21},
	Scratch:     [2]uir.Reg{11, 12},
	NewEmitter: func(p *isa.Prog, _ isa.Options) isa.Emitter {
		return &emitter{Prog: p}
	},
	Patch: patch,
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

// Backend implements isa.Backend for PPC32: Decode, Lift and Disasm
// here, the rest from desc.
type Backend struct{ isa.Base }

// New returns the PPC backend.
func New() *Backend { return &Backend{isa.Base{Desc: &desc}} }

func init() { isa.Register(New()) }

func dform(op uint32, rt, ra uir.Reg, imm uint16) uint32 {
	return op<<26 | uint32(rt)<<21 | uint32(ra)<<16 | uint32(imm)
}

func xform(xo uint32, rt, ra, rb uir.Reg) uint32 {
	return uint32(opOp31)<<26 | uint32(rt)<<21 | uint32(ra)<<16 | uint32(rb)<<11 | xo<<1
}

type emitter struct{ *isa.Prog }

func (e *emitter) Prologue(f isa.Frame) {
	if f.Size > 0 {
		e.Word(dform(opAddi, regSP, regSP, uint16(uint32(-f.Size))))
	}
	for _, s := range f.Saves {
		e.Word(dform(opStw, s.Reg, regSP, uint16(uint32(s.Off))))
	}
	if f.SaveLink {
		e.Word(xform(xoMflr, regR0, 0, 0))
		e.Word(dform(opStw, regR0, regSP, uint16(uint32(f.LinkOff))))
	}
}

func (e *emitter) Epilogue(f isa.Frame) {
	for _, s := range f.Saves {
		e.Word(dform(opLwz, s.Reg, regSP, uint16(uint32(s.Off))))
	}
	if f.SaveLink {
		e.Word(dform(opLwz, regR0, regSP, uint16(uint32(f.LinkOff))))
		e.Word(xform(xoMtlr, regR0, 0, 0))
	}
	if f.Size > 0 {
		e.Word(dform(opAddi, regSP, regSP, uint16(uint32(f.Size))))
	}
	e.Word(uint32(opOp19)<<26 | xoBlr<<1)
}

func (e *emitter) MovConst(dst uir.Reg, v uint32) {
	switch {
	case int32(v) >= -0x8000 && int32(v) <= 0x7FFF:
		e.Word(dform(opAddi, dst, 0, uint16(v))) // li
	default:
		e.Word(dform(opAddis, dst, 0, uint16(v>>16))) // lis
		if v&0xFFFF != 0 {
			e.Word(dform(opOri, dst, dst, uint16(v)))
		}
	}
}

func (e *emitter) MovReg(dst, src uir.Reg) {
	e.Word(xform(xoOr, src, dst, src)) // mr dst, src == or dst, src, src
}

// Note the PPC field convention for logical/shift X-form ops: the source
// sits in the rt slot and the destination in the ra slot.
func (e *emitter) logical(xo uint32, dst, a, b uir.Reg) {
	e.Word(xform(xo, a, dst, b))
}

func (e *emitter) arith(xo uint32, dst, a, b uir.Reg) {
	e.Word(xform(xo, dst, a, b))
}

func (e *emitter) cmpw(a, b uir.Reg)  { e.Word(xform(xoCmpw, 0, a, b)) }
func (e *emitter) cmplw(a, b uir.Reg) { e.Word(xform(xoCmplw, 0, a, b)) }

func (e *emitter) setb(dst uir.Reg, bi uint32) {
	e.Word(xform(xoSetb, dst, uir.Reg(bi), 0))
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
		e.Word(dform(opXori, dst, dst, 1))
	case uir.OpCmpLTS:
		e.cmpw(a, b)
		e.setb(dst, biLT)
	case uir.OpCmpLTU:
		e.cmplw(a, b)
		e.setb(dst, biLTU)
	case uir.OpCmpLES:
		e.cmpw(a, b)
		e.setb(dst, biGT)
		e.Word(dform(opXori, dst, dst, 1))
	case uir.OpCmpLEU:
		e.cmplw(a, b)
		e.setb(dst, biGTU)
		e.Word(dform(opXori, dst, dst, 1))
	default:
		panic(fmt.Sprintf("ppc: unsupported binary op %v", op))
	}
}

func (e *emitter) Un(op uir.Op, dst, a uir.Reg) {
	switch op {
	case uir.OpNot:
		e.Word(xform(xoNor, a, dst, a)) // nor dst, a, a
	case uir.OpNeg:
		e.Word(xform(xoNeg, dst, a, 0))
	case uir.OpBool:
		e.Word(dform(opAddi, regR0, 0, 0)) // li r0, 0
		e.cmplw(regR0, a)                  // LTU = 0 <u a
		e.setb(dst, biLTU)
	case uir.OpSext8:
		e.Word(xform(xoExtsb, a, dst, 0))
	case uir.OpSext16:
		e.Word(xform(xoExtsh, a, dst, 0))
	case uir.OpZext8:
		e.Word(dform(opAndi, a, dst, 0xFF))
	case uir.OpZext16:
		e.Word(dform(opAndi, a, dst, 0xFFFF))
	default:
		panic(fmt.Sprintf("ppc: unsupported unary op %v", op))
	}
}

func (e *emitter) ShiftImm(op uir.Op, dst, a uir.Reg, k uint8) {
	switch op {
	case uir.OpShl:
		e.Word(xform(xoSlwi, a, dst, uir.Reg(k)))
	case uir.OpShrU:
		e.Word(xform(xoSrwi, a, dst, uir.Reg(k)))
	case uir.OpShrS:
		e.Word(xform(xoSrawi, a, dst, uir.Reg(k)))
	default:
		panic("ppc: bad immediate shift")
	}
}

func (e *emitter) Load(dst, base uir.Reg, off int32, size uint8) {
	op := uint32(opLwz)
	if size == 1 {
		op = opLbz
	}
	e.Word(dform(op, dst, base, uint16(uint32(off))))
}

func (e *emitter) Store(base uir.Reg, off int32, src uir.Reg, size uint8) {
	op := uint32(opStw)
	if size == 1 {
		op = opStb
	}
	e.Word(dform(op, src, base, uint16(uint32(off))))
}

func (e *emitter) AddrAdd(dst, base uir.Reg, off int32) {
	e.Word(dform(opAddi, dst, base, uint16(uint32(off))))
}

func (e *emitter) AddrGlobal(dst uir.Reg, sym string) {
	e.Fixup(0, sym, fmtHiLo)
	e.Word(dform(opAddis, dst, 0, 0))
	e.Word(dform(opOri, dst, dst, 0))
}

func (e *emitter) CallSym(sym string) {
	e.Fixup(0, sym, fmtRel24)
	e.Word(uint32(opB)<<26 | 1) // bl (LK=1)
}

func (e *emitter) JumpBlock(blk int) {
	e.Fixup(blk, "", fmtRel24)
	e.Word(uint32(opB) << 26)
}

func (e *emitter) bc(bo, bi uint32, blk int) {
	e.Fixup(blk, "", fmtRel14)
	e.Word(uint32(opBc)<<26 | bo<<21 | bi<<16)
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
	e.Word(dform(opAddi, regR0, 0, 0)) // li r0, 0
	e.cmplw(regR0, cond)               // LTU = 0 <u cond
	e.bc(boTrue, biLTU, trueB)
}

// patch implements isa.Desc.Patch.
func patch(buf []byte, off int, format uint8, instAddr, target uint32) error {
	w := binary.BigEndian
	delta := int32(target) - int32(instAddr)
	switch format {
	case fmtRel14:
		if delta%4 != 0 || delta < -0x8000 || delta > 0x7FFF {
			return fmt.Errorf("ppc: bc displacement out of range (%d)", delta)
		}
		w.PutUint32(buf[off:], w.Uint32(buf[off:])|uint32(delta)&0xFFFC)
	case fmtRel24:
		if delta%4 != 0 || delta < -(1<<25) || delta >= 1<<25 {
			return fmt.Errorf("ppc: b displacement out of range (%d)", delta)
		}
		w.PutUint32(buf[off:], w.Uint32(buf[off:])|uint32(delta)&0x03FFFFFC)
	case fmtHiLo:
		w.PutUint32(buf[off:], w.Uint32(buf[off:])|target>>16)
		w.PutUint32(buf[off+4:], w.Uint32(buf[off+4:])|target&0xFFFF)
	default:
		return fmt.Errorf("ppc: unknown fixup format %d", format)
	}
	return nil
}
