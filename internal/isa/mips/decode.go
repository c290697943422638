package mips

import (
	"fmt"

	"firmup/internal/isa"
	"firmup/internal/uir"
)

// Decode implements isa.Backend. It classifies without rendering
// assembly text; Disasm materializes the text on demand.
func (b *Backend) Decode(text []byte, off int, addr uint32) (isa.Inst, error) {
	if off+4 > len(text) {
		return isa.Inst{}, fmt.Errorf("mips: truncated instruction at %#x", addr)
	}
	w := uint32(text[off])<<24 | uint32(text[off+1])<<16 | uint32(text[off+2])<<8 | uint32(text[off+3])
	inst := isa.Inst{Addr: addr, Size: 4, Raw: uint64(w)}
	op := w >> 26
	rs := uir.Reg(w >> 21 & 31)
	imm := uint16(w)
	funct := w & 0x3F

	switch op {
	case opSpecial:
		if w == 0 {
			return inst, nil // nop
		}
		switch funct {
		case fnJr:
			inst.HasDelay = true
			if rs == regRA {
				inst.Kind = isa.KindRet
			} else {
				inst.Kind = isa.KindIndirect
			}
		case fnSll, fnSrl, fnSra,
			fnSllv, fnSrlv, fnSrav, fnAddu, fnSubu, fnAnd, fnOr, fnXor, fnNor, fnSlt, fnSltu:
		default:
			return inst, fmt.Errorf("mips: unknown SPECIAL funct %#x at %#x", funct, addr)
		}
	case opSpecial2:
		switch funct {
		case fn2Mul, fn2Sdiv, fn2Udiv, fn2Srem, fn2Urem:
		default:
			return inst, fmt.Errorf("mips: unknown SPECIAL2 funct %#x at %#x", funct, addr)
		}
	case opJ, opJal:
		inst.HasDelay = true
		inst.Target = (addr+4)&0xF0000000 | (w&0x03FFFFFF)<<2
		if op == opJal {
			inst.Kind = isa.KindCall
		} else {
			inst.Kind = isa.KindJump
		}
	case opBeq, opBne:
		inst.Kind = isa.KindCondBranch
		inst.HasDelay = true
		inst.Target = addr + 4 + uint32(int32(int16(imm))<<2)
	case opAddiu, opSlti, opSltiu, opAndi, opOri, opXori, opLui, opLw, opLb, opLbu, opSw, opSb:
	default:
		return inst, fmt.Errorf("mips: unknown opcode %#x at %#x", op, addr)
	}
	return inst, nil
}

// Disasm implements isa.Backend, reconstructing the assembly text
// from the raw bits off the decode hot path.
func (b *Backend) Disasm(in isa.Inst) string {
	w := uint32(in.Raw)
	op := w >> 26
	rs := uir.Reg(w >> 21 & 31)
	rt := uir.Reg(w >> 16 & 31)
	rd := uir.Reg(w >> 11 & 31)
	imm := uint16(w)
	funct := w & 0x3F

	name := func(r uir.Reg) string { return "$" + regNames[r] }
	switch op {
	case opSpecial:
		if w == 0 {
			return "nop"
		}
		switch funct {
		case fnJr:
			if rs == regRA {
				return "jr $ra"
			}
			return "jr " + name(rs)
		case fnSll, fnSrl, fnSra:
			mn := map[uint32]string{fnSll: "sll", fnSrl: "srl", fnSra: "sra"}[funct]
			return fmt.Sprintf("%s %s, %s, %d", mn, name(rd), name(rt), w>>6&31)
		case fnSllv, fnSrlv, fnSrav, fnAddu, fnSubu, fnAnd, fnOr, fnXor, fnNor, fnSlt, fnSltu:
			mn := map[uint32]string{
				fnSllv: "sllv", fnSrlv: "srlv", fnSrav: "srav", fnAddu: "addu",
				fnSubu: "subu", fnAnd: "and", fnOr: "or", fnXor: "xor",
				fnNor: "nor", fnSlt: "slt", fnSltu: "sltu",
			}[funct]
			return fmt.Sprintf("%s %s, %s, %s", mn, name(rd), name(rs), name(rt))
		}
	case opSpecial2:
		if mn, ok := map[uint32]string{fn2Mul: "mul", fn2Sdiv: "sdiv", fn2Udiv: "udiv", fn2Srem: "srem", fn2Urem: "urem"}[funct]; ok {
			return fmt.Sprintf("%s %s, %s, %s", mn, name(rd), name(rs), name(rt))
		}
	case opJ, opJal:
		if op == opJal {
			return fmt.Sprintf("jal 0x%x", in.Target)
		}
		return fmt.Sprintf("j 0x%x", in.Target)
	case opBeq, opBne:
		mn := "beq"
		if op == opBne {
			mn = "bne"
		}
		return fmt.Sprintf("%s %s, %s, 0x%x", mn, name(rs), name(rt), in.Target)
	case opAddiu, opSlti, opSltiu, opAndi, opOri, opXori:
		mn := map[uint32]string{opAddiu: "addiu", opSlti: "slti", opSltiu: "sltiu", opAndi: "andi", opOri: "ori", opXori: "xori"}[op]
		return fmt.Sprintf("%s %s, %s, 0x%x", mn, name(rt), name(rs), imm)
	case opLui:
		return fmt.Sprintf("lui %s, 0x%x", name(rt), imm)
	case opLw, opLb, opLbu, opSw, opSb:
		mn := map[uint32]string{opLw: "lw", opLb: "lb", opLbu: "lbu", opSw: "sw", opSb: "sb"}[op]
		return fmt.Sprintf("%s %s, %d(%s)", mn, name(rt), int16(imm), name(rs))
	}
	return fmt.Sprintf(".word %#x", w)
}

// special2Ops maps a SPECIAL2 funct to its UIR op.
var special2Ops = map[uint32]uir.Op{fn2Mul: uir.OpMul, fn2Sdiv: uir.OpDivS, fn2Udiv: uir.OpDivU, fn2Srem: uir.OpRemS, fn2Urem: uir.OpRemU}

// Lift implements isa.Backend. $zero reads lift to the constant 0 and
// $zero writes are dropped, so slicing never treats the hard-wired zero
// as a procedure input.
func (b *Backend) Lift(inst isa.Inst, lb *isa.LiftBuilder) error {
	w := uint32(inst.Raw)
	op := w >> 26
	rs := uir.Reg(w >> 21 & 31)
	rt := uir.Reg(w >> 16 & 31)
	rd := uir.Reg(w >> 11 & 31)
	sh := uint8(w >> 6 & 31)
	imm := uint16(w)
	funct := w & 0x3F
	sx := uint32(int32(int16(imm)))
	zx := uint32(imm)

	get := func(r uir.Reg) uir.Operand {
		if r == regZero {
			return uir.C(0)
		}
		return uir.T(lb.GetReg(r))
	}
	put := func(r uir.Reg, v uir.Operand) {
		if r != regZero {
			lb.PutReg(r, v)
		}
	}
	bin := func(op2 uir.Op, dst uir.Reg, a, bb uir.Operand) {
		put(dst, uir.T(lb.Bin(op2, a, bb)))
	}

	switch op {
	case opSpecial:
		if w == 0 {
			return nil // nop
		}
		switch funct {
		case fnJr:
			if rs == regRA {
				lb.Exit(uir.ExitRet, uir.Operand{}, uir.Operand{})
			} else {
				lb.Exit(uir.ExitIndir, uir.Operand{}, get(rs))
			}
		case fnSll:
			bin(uir.OpShl, rd, get(rt), uir.C(uint32(sh)))
		case fnSrl:
			bin(uir.OpShrU, rd, get(rt), uir.C(uint32(sh)))
		case fnSra:
			bin(uir.OpShrS, rd, get(rt), uir.C(uint32(sh)))
		case fnSllv:
			bin(uir.OpShl, rd, get(rt), get(rs))
		case fnSrlv:
			bin(uir.OpShrU, rd, get(rt), get(rs))
		case fnSrav:
			bin(uir.OpShrS, rd, get(rt), get(rs))
		case fnAddu:
			bin(uir.OpAdd, rd, get(rs), get(rt))
		case fnSubu:
			bin(uir.OpSub, rd, get(rs), get(rt))
		case fnAnd:
			bin(uir.OpAnd, rd, get(rs), get(rt))
		case fnOr:
			bin(uir.OpOr, rd, get(rs), get(rt))
		case fnXor:
			bin(uir.OpXor, rd, get(rs), get(rt))
		case fnNor:
			t := lb.Bin(uir.OpOr, get(rs), get(rt))
			put(rd, uir.T(lb.Un(uir.OpNot, uir.T(t))))
		case fnSlt:
			bin(uir.OpCmpLTS, rd, get(rs), get(rt))
		case fnSltu:
			bin(uir.OpCmpLTU, rd, get(rs), get(rt))
		default:
			return fmt.Errorf("mips: cannot lift SPECIAL funct %#x", funct)
		}
	case opSpecial2:
		o, ok := special2Ops[funct]
		if !ok {
			return fmt.Errorf("mips: cannot lift SPECIAL2 funct %#x", funct)
		}
		bin(o, rd, get(rs), get(rt))
	case opJ:
		lb.Exit(uir.ExitJump, uir.Operand{}, uir.CK(inst.Target, uir.ConstCode))
	case opJal:
		lb.Call(uir.CK(inst.Target, uir.ConstCode))
	case opBeq, opBne:
		cmpOp := uir.OpCmpEQ
		if op == opBne {
			cmpOp = uir.OpCmpNE
		}
		t := lb.Bin(cmpOp, get(rs), get(rt))
		lb.Exit(uir.ExitCond, uir.T(t), uir.CK(inst.Target, uir.ConstCode))
	case opAddiu:
		bin(uir.OpAdd, rt, get(rs), uir.C(sx))
	case opSlti:
		bin(uir.OpCmpLTS, rt, get(rs), uir.C(sx))
	case opSltiu:
		bin(uir.OpCmpLTU, rt, get(rs), uir.C(sx))
	case opAndi:
		bin(uir.OpAnd, rt, get(rs), uir.C(zx))
	case opOri:
		bin(uir.OpOr, rt, get(rs), uir.C(zx))
	case opXori:
		bin(uir.OpXor, rt, get(rs), uir.C(zx))
	case opLui:
		put(rt, uir.C(uint32(imm)<<16))
	case opLw, opLbu, opLb:
		addr := lb.Bin(uir.OpAdd, get(rs), uir.C(sx))
		size := uint8(4)
		if op != opLw {
			size = 1
		}
		t := lb.Load(uir.T(addr), size)
		if op == opLb {
			put(rt, uir.T(lb.Un(uir.OpSext8, uir.T(t))))
		} else {
			put(rt, uir.T(t))
		}
	case opSw, opSb:
		addr := lb.Bin(uir.OpAdd, get(rs), uir.C(sx))
		size := uint8(4)
		if op == opSb {
			size = 1
		}
		lb.Store(uir.T(addr), get(rt), size)
	default:
		return fmt.Errorf("mips: cannot lift opcode %#x", op)
	}
	return nil
}
