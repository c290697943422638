// Package mips implements the MIPS32-flavored backend: big-endian 32-bit
// fixed-width encodings, $zero semantics, lui/ori constant
// materialization, slt-based comparisons, and branch delay slots — the
// lifting caveat the paper calls out explicitly.
package mips

import (
	"fmt"

	"firmup/internal/isa"
	"firmup/internal/mir"
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

func abi() *uir.ABI {
	return &uir.ABI{
		Arch:    uir.ArchMIPS32,
		ArgRegs: []uir.Reg{4, 5, 6, 7},
		RetReg:  regV0,
		SP:      regSP,
		LinkReg: regRA,
		Scratch: []uir.Reg{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 24, 25},
	}
}

func desc() *isa.Desc {
	return &isa.Desc{
		Arch:    uir.ArchMIPS32,
		ABI:     abi(),
		Alloc:   []uir.Reg{16, 17, 18, 19, 20, 21, 22, 23},
		Scratch: [2]uir.Reg{regT0, regT1},
	}
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

// Backend implements isa.Backend for MIPS32.
type Backend struct{ d *isa.Desc }

// New returns the MIPS backend.
func New() *Backend { return &Backend{d: desc()} }

func init() { isa.Register(New()) }

// Arch implements isa.Backend.
func (b *Backend) Arch() uir.Arch { return uir.ArchMIPS32 }

// ABI implements isa.Backend.
func (b *Backend) ABI() *uir.ABI { return b.d.ABI }

// MinInstSize implements isa.Backend.
func (b *Backend) MinInstSize() uint32 { return 4 }

// Generate implements isa.Backend.
func (b *Backend) Generate(pkg *mir.Package, opt isa.Options) (*isa.Artifact, error) {
	return isa.GenerateWith(pkg, b.d, func(p *isa.Prog) isa.Emitter {
		return &emitter{prog: p, fillDelay: opt.FillDelaySlots}
	}, b, opt)
}

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
	prog      *isa.Prog
	fillDelay bool
	lastMark  int
}

func (e *emitter) word(w uint32) {
	e.prog.Buf = append(e.prog.Buf, byte(w>>24), byte(w>>16), byte(w>>8), byte(w))
}

func (e *emitter) MarkBlock(id int) {
	e.prog.BlockOff[id] = len(e.prog.Buf)
	e.lastMark = len(e.prog.Buf)
}

func (e *emitter) fixup(block int, sym string, format uint8) {
	e.prog.Fixups = append(e.prog.Fixups, isa.Fixup{Off: len(e.prog.Buf), Block: block, Sym: sym, Format: format})
}

func (e *emitter) Prologue(f isa.Frame) {
	if f.Size > 0 {
		e.word(itype(opAddiu, regSP, regSP, uint16(uint32(-f.Size))))
	}
	for _, s := range f.Saves {
		e.word(itype(opSw, s.Reg, regSP, uint16(uint32(s.Off))))
	}
	if f.SaveLink {
		e.word(itype(opSw, regRA, regSP, uint16(uint32(f.LinkOff))))
	}
}

func (e *emitter) Epilogue(f isa.Frame) {
	for _, s := range f.Saves {
		e.word(itype(opLw, s.Reg, regSP, uint16(uint32(s.Off))))
	}
	if f.SaveLink {
		e.word(itype(opLw, regRA, regSP, uint16(uint32(f.LinkOff))))
	}
	if f.Size > 0 {
		e.word(itype(opAddiu, regSP, regSP, uint16(uint32(f.Size))))
	}
	e.word(rtype(fnJr, 0, regRA, 0))
	e.word(0) // delay slot
}

func (e *emitter) MovConst(dst uir.Reg, v uint32) {
	switch {
	case v <= 0xFFFF:
		e.word(itype(opOri, dst, regZero, uint16(v)))
	case int32(v) < 0 && int32(v) >= -0x8000:
		e.word(itype(opAddiu, dst, regZero, uint16(v)))
	default:
		e.word(itype(opLui, dst, 0, uint16(v>>16)))
		if v&0xFFFF != 0 {
			e.word(itype(opOri, dst, dst, uint16(v)))
		}
	}
}

func (e *emitter) MovReg(dst, src uir.Reg) {
	e.word(rtype(fnAddu, dst, src, regZero))
}

func (e *emitter) Bin(op uir.Op, dst, a, b uir.Reg) {
	switch op {
	case uir.OpAdd:
		e.word(rtype(fnAddu, dst, a, b))
	case uir.OpSub:
		e.word(rtype(fnSubu, dst, a, b))
	case uir.OpMul:
		e.word(r2type(fn2Mul, dst, a, b))
	case uir.OpDivS:
		e.word(r2type(fn2Sdiv, dst, a, b))
	case uir.OpDivU:
		e.word(r2type(fn2Udiv, dst, a, b))
	case uir.OpRemS:
		e.word(r2type(fn2Srem, dst, a, b))
	case uir.OpRemU:
		e.word(r2type(fn2Urem, dst, a, b))
	case uir.OpAnd:
		e.word(rtype(fnAnd, dst, a, b))
	case uir.OpOr:
		e.word(rtype(fnOr, dst, a, b))
	case uir.OpXor:
		e.word(rtype(fnXor, dst, a, b))
	case uir.OpShl:
		e.word(rtype(fnSllv, dst, b, a)) // sllv rd, rt(value)=a, rs(count)=b
	case uir.OpShrU:
		e.word(rtype(fnSrlv, dst, b, a))
	case uir.OpShrS:
		e.word(rtype(fnSrav, dst, b, a))
	case uir.OpCmpEQ:
		e.word(rtype(fnXor, regAT, a, b))
		e.word(itype(opSltiu, dst, regAT, 1))
	case uir.OpCmpNE:
		e.word(rtype(fnXor, regAT, a, b))
		e.word(rtype(fnSltu, dst, regZero, regAT))
	case uir.OpCmpLTS:
		e.word(rtype(fnSlt, dst, a, b))
	case uir.OpCmpLTU:
		e.word(rtype(fnSltu, dst, a, b))
	case uir.OpCmpLES:
		e.word(rtype(fnSlt, regAT, b, a))
		e.word(itype(opXori, dst, regAT, 1))
	case uir.OpCmpLEU:
		e.word(rtype(fnSltu, regAT, b, a))
		e.word(itype(opXori, dst, regAT, 1))
	default:
		panic(fmt.Sprintf("mips: unsupported binary op %v", op))
	}
}

func (e *emitter) Un(op uir.Op, dst, a uir.Reg) {
	switch op {
	case uir.OpNot:
		e.word(rtype(fnNor, dst, a, regZero))
	case uir.OpNeg:
		e.word(rtype(fnSubu, dst, regZero, a))
	case uir.OpBool:
		e.word(rtype(fnSltu, dst, regZero, a))
	case uir.OpSext8:
		e.word(shift(fnSll, regAT, a, 24))
		e.word(shift(fnSra, dst, regAT, 24))
	case uir.OpSext16:
		e.word(shift(fnSll, regAT, a, 16))
		e.word(shift(fnSra, dst, regAT, 16))
	case uir.OpZext8:
		e.word(itype(opAndi, dst, a, 0xFF))
	case uir.OpZext16:
		e.word(itype(opAndi, dst, a, 0xFFFF))
	default:
		panic(fmt.Sprintf("mips: unsupported unary op %v", op))
	}
}

func (e *emitter) ShiftImm(op uir.Op, dst, a uir.Reg, k uint8) {
	switch op {
	case uir.OpShl:
		e.word(shift(fnSll, dst, a, k))
	case uir.OpShrU:
		e.word(shift(fnSrl, dst, a, k))
	case uir.OpShrS:
		e.word(shift(fnSra, dst, a, k))
	default:
		panic("mips: bad immediate shift")
	}
}

func (e *emitter) Load(dst, base uir.Reg, off int32, size uint8) {
	op := uint32(opLw)
	if size == 1 {
		op = opLbu
	}
	e.word(itype(op, dst, base, uint16(uint32(off))))
}

func (e *emitter) Store(base uir.Reg, off int32, src uir.Reg, size uint8) {
	op := uint32(opSw)
	if size == 1 {
		op = opSb
	}
	e.word(itype(op, src, base, uint16(uint32(off))))
}

func (e *emitter) AddrAdd(dst, base uir.Reg, off int32) {
	e.word(itype(opAddiu, dst, base, uint16(uint32(off))))
}

func (e *emitter) AddrGlobal(dst uir.Reg, sym string) {
	e.fixup(0, sym, fmtHiLo)
	e.word(itype(opLui, dst, 0, 0))
	e.word(itype(opOri, dst, dst, 0))
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
			e.prog.Buf = e.prog.Buf[:len(e.prog.Buf)-4]
			e.fixup(blk, sym, format)
			e.word(w)
			e.word(cand)
			return
		}
	}
	e.fixup(blk, sym, format)
	e.word(w)
	e.word(0) // delay slot: nop
}

// hoistCandidate inspects the previously emitted instruction.
func (e *emitter) hoistCandidate(branchReads []uir.Reg) (uint32, bool) {
	off := len(e.prog.Buf) - 4
	if off <= e.lastMark { // strictly inside the block
		return 0, false
	}
	for _, f := range e.prog.Fixups {
		if f.Off == off || (f.Format == fmtHiLo && f.Off+4 == off) {
			return 0, false
		}
	}
	w := uint32(e.prog.Buf[off])<<24 | uint32(e.prog.Buf[off+1])<<16 |
		uint32(e.prog.Buf[off+2])<<8 | uint32(e.prog.Buf[off+3])
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
		e.word(rtype(fnSlt, regAT, a, b))
		e.branch(opBne, regAT, regZero, trueB)
	case uir.OpCmpLTU:
		e.word(rtype(fnSltu, regAT, a, b))
		e.branch(opBne, regAT, regZero, trueB)
	case uir.OpCmpLES:
		e.word(rtype(fnSlt, regAT, b, a))
		e.branch(opBeq, regAT, regZero, trueB)
	case uir.OpCmpLEU:
		e.word(rtype(fnSltu, regAT, b, a))
		e.branch(opBeq, regAT, regZero, trueB)
	default:
		panic("mips: bad compare-branch op")
	}
}

func (e *emitter) CondBranch(cond uir.Reg, trueB int) {
	e.branch(opBne, cond, regZero, trueB)
}

func (e *emitter) StoreArgStack(int, uir.Reg)       { panic("mips: register-argument ABI") }
func (e *emitter) LoadArgStack(uir.Reg, int, int32) { panic("mips: register-argument ABI") }

// Patch implements isa.Patcher.
func (b *Backend) Patch(buf []byte, off int, format uint8, instAddr, target uint32) error {
	rd := func(o int) uint32 {
		return uint32(buf[o])<<24 | uint32(buf[o+1])<<16 | uint32(buf[o+2])<<8 | uint32(buf[o+3])
	}
	wr := func(o int, w uint32) {
		buf[o], buf[o+1], buf[o+2], buf[o+3] = byte(w>>24), byte(w>>16), byte(w>>8), byte(w)
	}
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
		wr(off, rd(off)|uint32(uint16(wordOff)))
	case fmtJump26:
		wr(off, rd(off)&0xFC000000|(target>>2)&0x03FFFFFF)
	case fmtHiLo:
		wr(off, rd(off)|target>>16)
		wr(off+4, rd(off+4)|target&0xFFFF)
	default:
		return fmt.Errorf("mips: unknown fixup format %d", format)
	}
	return nil
}
