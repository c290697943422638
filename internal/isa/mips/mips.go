// Package mips implements the MIPS32-flavored backend: big-endian 32-bit
// fixed-width encodings, $zero semantics, lui/ori constant
// materialization, slt-based comparisons, and branch delay slots — the
// lifting caveat the paper calls out explicitly.
package mips

import (
	"encoding/binary"
	"fmt"

	"firmup/internal/isa"
	"firmup/internal/uir"
)

// Register numbers (architectural).
const (
	regZero uir.Reg = 0
	regAT   uir.Reg = 1
	regV0   uir.Reg = 2
	regV1   uir.Reg = 3
	regA0   uir.Reg = 4
	regT0   uir.Reg = 8
	regT1   uir.Reg = 9
	regS0   uir.Reg = 16
	regGP   uir.Reg = 28
	regSP   uir.Reg = 29
	regFP   uir.Reg = 30
	regRA   uir.Reg = 31
)

var regNames = map[uir.Reg]string{
	0: "zero", 1: "at", 2: "v0", 3: "v1", 4: "a0", 5: "a1", 6: "a2", 7: "a3",
	8: "t0", 9: "t1", 10: "t2", 11: "t3", 12: "t4", 13: "t5", 14: "t6", 15: "t7",
	16: "s0", 17: "s1", 18: "s2", 19: "s3", 20: "s4", 21: "s5", 22: "s6", 23: "s7",
	24: "t8", 25: "t9", 28: "gp", 29: "sp", 30: "fp", 31: "ra",
}

// desc describes the MIPS32 backend to isa's shared driver.
var desc = isa.Desc{
	ABI: &uir.ABI{
		Arch:    uir.ArchMIPS32,
		ArgRegs: []uir.Reg{4, 5, 6, 7},
		RetReg:  regV0,
		SP:      regSP,
		LinkReg: regRA,
		Scratch: []uir.Reg{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 24, 25},
	},
	MinInstSize: 4,
	Order:       binary.BigEndian,
	Alloc:       []uir.Reg{16, 17, 18, 19, 20, 21, 22, 23},
	Scratch:     [2]uir.Reg{regT0, regT1},
	NewEmitter: func(p *isa.Prog, opt isa.Options) isa.Emitter {
		return &emitter{Prog: p, fillDelay: opt.FillDelaySlots}
	},
	Patch: patch,
}

// Opcode and funct values (MIPS32-flavored; SPECIAL2 division forms are
// synthetic three-operand variants replacing the hi/lo pipeline).
const (
	opSpecial  = 0x00
	opJ        = 0x02
	opJal      = 0x03
	opBeq      = 0x04
	opBne      = 0x05
	opAddiu    = 0x09
	opSlti     = 0x0A
	opSltiu    = 0x0B
	opAndi     = 0x0C
	opOri      = 0x0D
	opXori     = 0x0E
	opLui      = 0x0F
	opSpecial2 = 0x1C
	opLb       = 0x20
	opLw       = 0x23
	opLbu      = 0x24
	opSb       = 0x28
	opSw       = 0x2B

	fnSll  = 0x00
	fnSrl  = 0x02
	fnSra  = 0x03
	fnSllv = 0x04
	fnSrlv = 0x06
	fnSrav = 0x07
	fnJr   = 0x08
	fnAddu = 0x21
	fnSubu = 0x23
	fnAnd  = 0x24
	fnOr   = 0x25
	fnXor  = 0x26
	fnNor  = 0x27
	fnSlt  = 0x2A
	fnSltu = 0x2B

	fn2Mul  = 0x02
	fn2Sdiv = 0x1A
	fn2Udiv = 0x1B
	fn2Srem = 0x1E
	fn2Urem = 0x1F
)

// Fixup formats.
const (
	fmtBranch16 uint8 = iota // 16-bit word-offset relative to delay slot
	fmtJump26                // 26-bit absolute word target
	fmtHiLo                  // lui/ori pair materializing an address
)

// Backend implements isa.Backend for MIPS32: Decode, Lift and Disasm
// here, the rest from desc.
type Backend struct{ isa.Base }

// New returns the MIPS backend.
func New() *Backend { return &Backend{isa.Base{Desc: &desc}} }

func init() { isa.Register(New()) }

// --- encoding helpers ---

func rtype(funct uint32, rd, rs, rt uir.Reg) uint32 {
	return uint32(opSpecial)<<26 | uint32(rs)<<21 | uint32(rt)<<16 | uint32(rd)<<11 | funct
}

func r2type(funct uint32, rd, rs, rt uir.Reg) uint32 {
	return uint32(opSpecial2)<<26 | uint32(rs)<<21 | uint32(rt)<<16 | uint32(rd)<<11 | funct
}

func shift(funct uint32, rd, rt uir.Reg, sh uint8) uint32 {
	return uint32(opSpecial)<<26 | uint32(rt)<<16 | uint32(rd)<<11 | uint32(sh&31)<<6 | funct
}

func itype(op uint32, rt, rs uir.Reg, imm uint16) uint32 {
	return op<<26 | uint32(rs)<<21 | uint32(rt)<<16 | uint32(imm)
}

func jtype(op uint32, target uint32) uint32 {
	return op<<26 | (target>>2)&0x03FFFFFF
}

type emitter struct {
	*isa.Prog
	fillDelay bool
}

func (e *emitter) Prologue(f isa.Frame) {
	if f.Size > 0 {
		e.Word(itype(opAddiu, regSP, regSP, uint16(uint32(-f.Size))))
	}
	for _, s := range f.Saves {
		e.Word(itype(opSw, s.Reg, regSP, uint16(uint32(s.Off))))
	}
	if f.SaveLink {
		e.Word(itype(opSw, regRA, regSP, uint16(uint32(f.LinkOff))))
	}
}

func (e *emitter) Epilogue(f isa.Frame) {
	for _, s := range f.Saves {
		e.Word(itype(opLw, s.Reg, regSP, uint16(uint32(s.Off))))
	}
	if f.SaveLink {
		e.Word(itype(opLw, regRA, regSP, uint16(uint32(f.LinkOff))))
	}
	if f.Size > 0 {
		e.Word(itype(opAddiu, regSP, regSP, uint16(uint32(f.Size))))
	}
	e.Word(rtype(fnJr, 0, regRA, 0))
	e.Word(0) // delay slot
}

func (e *emitter) MovConst(dst uir.Reg, v uint32) {
	switch {
	case v <= 0xFFFF:
		e.Word(itype(opOri, dst, regZero, uint16(v)))
	case int32(v) < 0 && int32(v) >= -0x8000:
		e.Word(itype(opAddiu, dst, regZero, uint16(v)))
	default:
		e.Word(itype(opLui, dst, 0, uint16(v>>16)))
		if v&0xFFFF != 0 {
			e.Word(itype(opOri, dst, dst, uint16(v)))
		}
	}
}

func (e *emitter) MovReg(dst, src uir.Reg) {
	e.Word(rtype(fnAddu, dst, src, regZero))
}

func (e *emitter) Bin(op uir.Op, dst, a, b uir.Reg) {
	switch op {
	case uir.OpAdd:
		e.Word(rtype(fnAddu, dst, a, b))
	case uir.OpSub:
		e.Word(rtype(fnSubu, dst, a, b))
	case uir.OpMul:
		e.Word(r2type(fn2Mul, dst, a, b))
	case uir.OpDivS:
		e.Word(r2type(fn2Sdiv, dst, a, b))
	case uir.OpDivU:
		e.Word(r2type(fn2Udiv, dst, a, b))
	case uir.OpRemS:
		e.Word(r2type(fn2Srem, dst, a, b))
	case uir.OpRemU:
		e.Word(r2type(fn2Urem, dst, a, b))
	case uir.OpAnd:
		e.Word(rtype(fnAnd, dst, a, b))
	case uir.OpOr:
		e.Word(rtype(fnOr, dst, a, b))
	case uir.OpXor:
		e.Word(rtype(fnXor, dst, a, b))
	case uir.OpShl:
		e.Word(rtype(fnSllv, dst, b, a)) // sllv rd, rt(value)=a, rs(count)=b
	case uir.OpShrU:
		e.Word(rtype(fnSrlv, dst, b, a))
	case uir.OpShrS:
		e.Word(rtype(fnSrav, dst, b, a))
	case uir.OpCmpEQ:
		e.Word(rtype(fnXor, regAT, a, b))
		e.Word(itype(opSltiu, dst, regAT, 1))
	case uir.OpCmpNE:
		e.Word(rtype(fnXor, regAT, a, b))
		e.Word(rtype(fnSltu, dst, regZero, regAT))
	case uir.OpCmpLTS:
		e.Word(rtype(fnSlt, dst, a, b))
	case uir.OpCmpLTU:
		e.Word(rtype(fnSltu, dst, a, b))
	case uir.OpCmpLES:
		e.Word(rtype(fnSlt, regAT, b, a))
		e.Word(itype(opXori, dst, regAT, 1))
	case uir.OpCmpLEU:
		e.Word(rtype(fnSltu, regAT, b, a))
		e.Word(itype(opXori, dst, regAT, 1))
	default:
		panic(fmt.Sprintf("mips: unsupported binary op %v", op))
	}
}

func (e *emitter) Un(op uir.Op, dst, a uir.Reg) {
	switch op {
	case uir.OpNot:
		e.Word(rtype(fnNor, dst, a, regZero))
	case uir.OpNeg:
		e.Word(rtype(fnSubu, dst, regZero, a))
	case uir.OpBool:
		e.Word(rtype(fnSltu, dst, regZero, a))
	case uir.OpSext8:
		e.Word(shift(fnSll, regAT, a, 24))
		e.Word(shift(fnSra, dst, regAT, 24))
	case uir.OpSext16:
		e.Word(shift(fnSll, regAT, a, 16))
		e.Word(shift(fnSra, dst, regAT, 16))
	case uir.OpZext8:
		e.Word(itype(opAndi, dst, a, 0xFF))
	case uir.OpZext16:
		e.Word(itype(opAndi, dst, a, 0xFFFF))
	default:
		panic(fmt.Sprintf("mips: unsupported unary op %v", op))
	}
}

func (e *emitter) ShiftImm(op uir.Op, dst, a uir.Reg, k uint8) {
	switch op {
	case uir.OpShl:
		e.Word(shift(fnSll, dst, a, k))
	case uir.OpShrU:
		e.Word(shift(fnSrl, dst, a, k))
	case uir.OpShrS:
		e.Word(shift(fnSra, dst, a, k))
	default:
		panic("mips: bad immediate shift")
	}
}

func (e *emitter) Load(dst, base uir.Reg, off int32, size uint8) {
	op := uint32(opLw)
	if size == 1 {
		op = opLbu
	}
	e.Word(itype(op, dst, base, uint16(uint32(off))))
}

func (e *emitter) Store(base uir.Reg, off int32, src uir.Reg, size uint8) {
	op := uint32(opSw)
	if size == 1 {
		op = opSb
	}
	e.Word(itype(op, src, base, uint16(uint32(off))))
}

func (e *emitter) AddrAdd(dst, base uir.Reg, off int32) {
	e.Word(itype(opAddiu, dst, base, uint16(uint32(off))))
}

func (e *emitter) AddrGlobal(dst uir.Reg, sym string) {
	e.Fixup(0, sym, fmtHiLo)
	e.Word(itype(opLui, dst, 0, 0))
	e.Word(itype(opOri, dst, dst, 0))
}

func (e *emitter) CallSym(sym string) {
	e.transfer(jtype(opJal, 0), nil, 0, sym, fmtJump26)
}

func (e *emitter) JumpBlock(blk int) {
	e.transfer(jtype(opJ, 0), nil, blk, "", fmtJump26)
}

func (e *emitter) branch(op uint32, rs, rt uir.Reg, blk int) {
	e.transfer(itype(op, rt, rs, 0), []uir.Reg{rs, rt}, blk, "", fmtBranch16)
}

// transfer emits a control transfer plus its delay slot. When delay-slot
// filling is on and it is safe, the instruction preceding the transfer is
// hoisted into the delay slot (MIPS executes it before the destination
// either way); otherwise the slot is a nop. Safety: the candidate must be
// inside the current block, carry no fixup, be a simple ALU/memory
// instruction, and must not write a register the branch reads — the
// condition is evaluated before the delay slot runs.
func (e *emitter) transfer(w uint32, reads []uir.Reg, blk int, sym string, format uint8) {
	if e.fillDelay {
		if cand, ok := e.hoistCandidate(reads); ok {
			e.Buf = e.Buf[:len(e.Buf)-4]
			e.Fixup(blk, sym, format)
			e.Word(w)
			e.Word(cand)
			return
		}
	}
	e.Fixup(blk, sym, format)
	e.Word(w)
	e.Word(0) // delay slot: nop
}

// hoistCandidate inspects the previously emitted instruction.
func (e *emitter) hoistCandidate(branchReads []uir.Reg) (uint32, bool) {
	off := len(e.Buf) - 4
	if off <= e.Mark { // strictly inside the block
		return 0, false
	}
	for _, f := range e.Fixups {
		if f.Off == off || (f.Format == fmtHiLo && f.Off+4 == off) {
			return 0, false
		}
	}
	w := binary.BigEndian.Uint32(e.Buf[off:])
	wr, ok := simpleWrite(w)
	if !ok {
		return 0, false
	}
	for _, r := range branchReads {
		if wr == r && wr != regZero {
			return 0, false
		}
	}
	return w, true
}

// simpleWrite classifies a word as a hoistable simple instruction and
// returns the register it writes ($zero for stores).
func simpleWrite(w uint32) (uir.Reg, bool) {
	if w == 0 {
		return 0, false // existing nop: nothing to gain
	}
	op := w >> 26
	rt := uir.Reg(w >> 16 & 31)
	rd := uir.Reg(w >> 11 & 31)
	switch op {
	case opAddiu, opSlti, opSltiu, opAndi, opOri, opXori, opLui, opLw, opLb, opLbu:
		return rt, true
	case opSw, opSb:
		return regZero, true // memory write only
	case opSpecial:
		if w&0x3F == fnJr {
			return 0, false
		}
		return rd, true
	case opSpecial2:
		return rd, true
	}
	return 0, false
}

func (e *emitter) CmpBranch(op uir.Op, a, b uir.Reg, trueB int) {
	switch op {
	case uir.OpCmpEQ:
		e.branch(opBeq, a, b, trueB)
	case uir.OpCmpNE:
		e.branch(opBne, a, b, trueB)
	case uir.OpCmpLTS:
		e.Word(rtype(fnSlt, regAT, a, b))
		e.branch(opBne, regAT, regZero, trueB)
	case uir.OpCmpLTU:
		e.Word(rtype(fnSltu, regAT, a, b))
		e.branch(opBne, regAT, regZero, trueB)
	case uir.OpCmpLES:
		e.Word(rtype(fnSlt, regAT, b, a))
		e.branch(opBeq, regAT, regZero, trueB)
	case uir.OpCmpLEU:
		e.Word(rtype(fnSltu, regAT, b, a))
		e.branch(opBeq, regAT, regZero, trueB)
	default:
		panic("mips: bad compare-branch op")
	}
}

func (e *emitter) CondBranch(cond uir.Reg, trueB int) {
	e.branch(opBne, cond, regZero, trueB)
}

// patch implements isa.Desc.Patch.
func patch(buf []byte, off int, format uint8, instAddr, target uint32) error {
	w := binary.BigEndian
	switch format {
	case fmtBranch16:
		delta := int32(target) - int32(instAddr+4)
		if delta%4 != 0 {
			return fmt.Errorf("mips: misaligned branch target %#x", target)
		}
		wordOff := delta / 4
		if wordOff < -0x8000 || wordOff > 0x7FFF {
			return fmt.Errorf("mips: branch target out of range (%d words)", wordOff)
		}
		w.PutUint32(buf[off:], w.Uint32(buf[off:])|uint32(uint16(wordOff)))
	case fmtJump26:
		w.PutUint32(buf[off:], w.Uint32(buf[off:])&0xFC000000|(target>>2)&0x03FFFFFF)
	case fmtHiLo:
		w.PutUint32(buf[off:], w.Uint32(buf[off:])|target>>16)
		w.PutUint32(buf[off+4:], w.Uint32(buf[off+4:])|target&0xFFFF)
	default:
		return fmt.Errorf("mips: unknown fixup format %d", format)
	}
	return nil
}
