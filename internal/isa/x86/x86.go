// Package x86 implements the Intel-x86-flavored backend: little-endian
// variable-length encodings, two-operand accumulator-style arithmetic,
// cmp/setcc/jcc through EFLAGS, implicit eax/edx division, and
// stack-passed arguments (cdecl-flavored).
//
// Two synthetic liberties keep the model tractable: call/ret do not
// adjust esp (the return address lives in shadow state rather than on the
// simulated stack), and memory operands never need SIB bytes — any
// register, including esp, may be a base. EFLAGS is modeled as the three
// predicate bits Z/LTS/LTU, mirroring the other backends.
package x86

import (
	"encoding/binary"
	"fmt"

	"firmup/internal/isa"
	"firmup/internal/uir"
)

// Registers 0-7 are the GPRs; 8-10 the flag bits.
const (
	regEAX uir.Reg = 0
	regECX uir.Reg = 1
	regEDX uir.Reg = 2
	regEBX uir.Reg = 3
	regESP uir.Reg = 4
	regEBP uir.Reg = 5
	regESI uir.Reg = 6
	regEDI uir.Reg = 7
	flagZ  uir.Reg = 8
	flagLT uir.Reg = 9
	flagLO uir.Reg = 10
)

var regNames = map[uir.Reg]string{
	0: "eax", 1: "ecx", 2: "edx", 3: "ebx", 4: "esp", 5: "ebp", 6: "esi", 7: "edi",
	8: "zf", 9: "ltf", 10: "bf",
}

// desc describes the x86 backend to isa's shared driver.
var desc = isa.Desc{
	ABI: &uir.ABI{
		Arch:       uir.ArchX86,
		ArgRegs:    nil, // stack-passed arguments
		RetReg:     regEAX,
		SP:         regESP,
		LinkReg:    uir.NoLinkReg,
		Scratch:    []uir.Reg{0, 1, 2, flagZ, flagLT, flagLO},
		StatusRegs: []uir.Reg{flagZ, flagLT, flagLO},
	},
	MinInstSize: 1,
	Order:       binary.LittleEndian,
	Alloc:       []uir.Reg{regEBX, regESI, regEDI, regEBP},
	Scratch:     [2]uir.Reg{regECX, regEDX},
	NewEmitter: func(p *isa.Prog, _ isa.Options) isa.Emitter {
		return &emitter{Prog: p}
	},
	Patch: patch,
}

// Condition-code nibbles (Intel numbering) used in setcc (0F 90+cc) and
// jcc (0F 80+cc).
const (
	ccB  = 0x2 // unsigned <
	ccAE = 0x3
	ccE  = 0x4
	ccNE = 0x5
	ccBE = 0x6
	ccA  = 0x7
	ccL  = 0xC // signed <
	ccGE = 0xD
	ccLE = 0xE
	ccG  = 0xF
)

var ccNames = map[byte]string{
	ccB: "b", ccAE: "ae", ccE: "e", ccNE: "ne", ccBE: "be", ccA: "a",
	ccL: "l", ccGE: "ge", ccLE: "le", ccG: "g",
}

// Fixup formats.
const (
	fmtRel32Op1 uint8 = iota // rel32 at offset+1, 5-byte instruction (jmp/call)
	fmtRel32Op2              // rel32 at offset+2, 6-byte instruction (jcc)
	fmtAbs32Op1              // abs32 at offset+1 (mov r, imm32)
)

// Backend implements isa.Backend for x86: Decode, Lift and Disasm
// here, the rest from desc.
type Backend struct{ isa.Base }

// New returns the x86 backend.
func New() *Backend { return &Backend{isa.Base{Desc: &desc}} }

func init() { isa.Register(New()) }

type emitter struct{ *isa.Prog }

func (e *emitter) by(bs ...byte) { e.Buf = append(e.Buf, bs...) }

func modrmReg(reg, rm uir.Reg) byte   { return 0xC0 | byte(reg)<<3 | byte(rm) }
func modrmMem(reg, base uir.Reg) byte { return 0x80 | byte(reg)<<3 | byte(base) }

// mov dst, src (register).
func (e *emitter) movRR(dst, src uir.Reg) { e.by(0x89, modrmReg(src, dst)) }

func (e *emitter) Prologue(f isa.Frame) {
	if f.Size > 0 {
		e.by(0x81, modrmReg(5, regESP)) // sub esp, imm32
		e.Word(uint32(f.Size))
	}
	for _, s := range f.Saves {
		e.Store(regESP, s.Off, s.Reg, 4)
	}
}

func (e *emitter) Epilogue(f isa.Frame) {
	for _, s := range f.Saves {
		e.Load(s.Reg, regESP, s.Off, 4)
	}
	if f.Size > 0 {
		e.by(0x81, modrmReg(0, regESP)) // add esp, imm32
		e.Word(uint32(f.Size))
	}
	e.by(0xC3) // ret
}

func (e *emitter) MovConst(dst uir.Reg, v uint32) {
	e.by(0xB8 + byte(dst))
	e.Word(v)
}

func (e *emitter) MovReg(dst, src uir.Reg) { e.movRR(dst, src) }

// aluRR emits `op rm, reg` two-operand forms (opcode is the /r form with
// the destination in rm).
func (e *emitter) aluRR(opcode byte, dst, src uir.Reg) {
	e.by(opcode, modrmReg(src, dst))
}

var ccFor = map[uir.Op]byte{
	uir.OpCmpEQ: ccE, uir.OpCmpNE: ccNE,
	uir.OpCmpLTS: ccL, uir.OpCmpLES: ccLE,
	uir.OpCmpLTU: ccB, uir.OpCmpLEU: ccBE,
}

func (e *emitter) Bin(op uir.Op, dst, a, b uir.Reg) {
	switch op {
	case uir.OpAdd, uir.OpSub, uir.OpAnd, uir.OpOr, uir.OpXor:
		opcode := map[uir.Op]byte{uir.OpAdd: 0x01, uir.OpSub: 0x29, uir.OpAnd: 0x21, uir.OpOr: 0x09, uir.OpXor: 0x31}[op]
		e.movRR(regEAX, a)
		e.aluRR(opcode, regEAX, b)
		e.movRR(dst, regEAX)
	case uir.OpMul:
		e.movRR(regEAX, a)
		e.by(0x0F, 0xAF, modrmReg(regEAX, b)) // imul eax, b
		e.movRR(dst, regEAX)
	case uir.OpDivS, uir.OpDivU, uir.OpRemS, uir.OpRemU:
		e.movRR(regEAX, a)
		divisor := b
		if b == regEDX {
			e.movRR(regECX, b)
			divisor = regECX
		}
		if op == uir.OpDivS || op == uir.OpRemS {
			e.by(0x99)                       // cdq
			e.by(0xF7, modrmReg(7, divisor)) // idiv
		} else {
			e.aluRR(0x31, regEDX, regEDX)    // xor edx, edx
			e.by(0xF7, modrmReg(6, divisor)) // div
		}
		if op == uir.OpDivS || op == uir.OpDivU {
			e.movRR(dst, regEAX)
		} else {
			e.movRR(dst, regEDX)
		}
	case uir.OpShl, uir.OpShrU, uir.OpShrS:
		sub := map[uir.Op]byte{uir.OpShl: 4, uir.OpShrU: 5, uir.OpShrS: 7}[op]
		e.movRR(regEAX, a)
		if b != regECX {
			e.movRR(regECX, b)
		}
		e.by(0xD3, modrmReg(uir.Reg(sub), regEAX)) // shift eax, cl
		e.movRR(dst, regEAX)
	case uir.OpCmpEQ, uir.OpCmpNE, uir.OpCmpLTS, uir.OpCmpLTU, uir.OpCmpLES, uir.OpCmpLEU:
		e.aluRR(0x39, a, b) // cmp a, b
		e.by(0x0F, 0x90+ccFor[op], modrmReg(0, dst))
	default:
		panic(fmt.Sprintf("x86: unsupported binary op %v", op))
	}
}

func (e *emitter) cmpImm(a uir.Reg, v uint32) {
	e.by(0x81, modrmReg(7, a)) // cmp a, imm32
	e.Word(v)
}

func (e *emitter) Un(op uir.Op, dst, a uir.Reg) {
	switch op {
	case uir.OpNot:
		if dst != a {
			e.movRR(dst, a)
		}
		e.by(0xF7, modrmReg(2, dst))
	case uir.OpNeg:
		if dst != a {
			e.movRR(dst, a)
		}
		e.by(0xF7, modrmReg(3, dst))
	case uir.OpBool:
		e.cmpImm(a, 0)
		e.by(0x0F, 0x90+ccNE, modrmReg(0, dst))
	case uir.OpSext8:
		e.by(0x0F, 0xBE, modrmReg(dst, a))
	case uir.OpSext16:
		e.by(0x0F, 0xBF, modrmReg(dst, a))
	case uir.OpZext8:
		e.by(0x0F, 0xB6, modrmReg(dst, a))
	case uir.OpZext16:
		e.by(0x0F, 0xB7, modrmReg(dst, a))
	default:
		panic(fmt.Sprintf("x86: unsupported unary op %v", op))
	}
}

func (e *emitter) ShiftImm(op uir.Op, dst, a uir.Reg, k uint8) {
	sub := map[uir.Op]byte{uir.OpShl: 4, uir.OpShrU: 5, uir.OpShrS: 7}[op]
	if dst != a {
		e.movRR(dst, a)
	}
	e.by(0xC1, modrmReg(uir.Reg(sub), dst), k)
}

func (e *emitter) Load(dst, base uir.Reg, off int32, size uint8) {
	if size == 1 {
		e.by(0x0F, 0xB6, modrmMem(dst, base)) // movzx dst, byte [base+disp32]
	} else {
		e.by(0x8B, modrmMem(dst, base)) // mov dst, [base+disp32]
	}
	e.Word(uint32(off))
}

func (e *emitter) Store(base uir.Reg, off int32, src uir.Reg, size uint8) {
	if size == 1 {
		e.by(0x88, modrmMem(src, base)) // mov byte [base+disp32], src
	} else {
		e.by(0x89, modrmMem(src, base)) // mov [base+disp32], src
	}
	e.Word(uint32(off))
}

func (e *emitter) AddrAdd(dst, base uir.Reg, off int32) {
	e.by(0x8D, modrmMem(dst, base)) // lea dst, [base+disp32]
	e.Word(uint32(off))
}

func (e *emitter) AddrGlobal(dst uir.Reg, sym string) {
	e.Fixup(0, sym, fmtAbs32Op1)
	e.MovConst(dst, 0)
}

func (e *emitter) CallSym(sym string) {
	e.Fixup(0, sym, fmtRel32Op1)
	e.by(0xE8)
	e.Word(0)
}

func (e *emitter) JumpBlock(blk int) {
	e.Fixup(blk, "", fmtRel32Op1)
	e.by(0xE9)
	e.Word(0)
}

func (e *emitter) CmpBranch(op uir.Op, a, b uir.Reg, trueB int) {
	e.aluRR(0x39, a, b)
	e.Fixup(trueB, "", fmtRel32Op2)
	e.by(0x0F, 0x80+ccFor[op])
	e.Word(0)
}

func (e *emitter) CondBranch(cond uir.Reg, trueB int) {
	e.cmpImm(cond, 0)
	e.Fixup(trueB, "", fmtRel32Op2)
	e.by(0x0F, 0x80+ccNE)
	e.Word(0)
}

// patch implements isa.Desc.Patch.
func patch(buf []byte, off int, format uint8, instAddr, target uint32) error {
	switch format {
	case fmtRel32Op1:
		binary.LittleEndian.PutUint32(buf[off+1:], target-(instAddr+5))
	case fmtRel32Op2:
		binary.LittleEndian.PutUint32(buf[off+2:], target-(instAddr+6))
	case fmtAbs32Op1:
		binary.LittleEndian.PutUint32(buf[off+1:], target)
	default:
		return fmt.Errorf("x86: unknown fixup format %d", format)
	}
	return nil
}
