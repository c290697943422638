package ppc

import (
	"fmt"

	"firmup/internal/isa"
	"firmup/internal/uir"
)

// Decode implements isa.Backend. It classifies without rendering
// assembly text; Disasm materializes the text on demand.
func (b *Backend) Decode(text []byte, off int, addr uint32) (isa.Inst, error) {
	if off+4 > len(text) {
		return isa.Inst{}, fmt.Errorf("ppc: truncated instruction at %#x", addr)
	}
	w := uint32(text[off])<<24 | uint32(text[off+1])<<16 | uint32(text[off+2])<<8 | uint32(text[off+3])
	inst := isa.Inst{Addr: addr, Size: 4, Raw: uint64(w)}
	op := w >> 26
	switch op {
	case opAddi, opAddis, opOri, opXori, opAndi, opLwz, opLbz, opStw, opStb:
	case opB:
		li := int32(w<<6) >> 6 &^ 3 // sign-extend bits 2-25, clear low bits
		inst.Target = uint32(int32(addr) + li)
		if w&1 == 1 {
			inst.Kind = isa.KindCall
		} else {
			inst.Kind = isa.KindJump
		}
	case opBc:
		bd := int32(int16(w &^ 3))
		inst.Target = uint32(int32(addr) + bd)
		inst.Kind = isa.KindCondBranch
	case opOp19:
		if w>>1&0x3FF == xoBlr {
			inst.Kind = isa.KindRet
			return inst, nil
		}
		return inst, fmt.Errorf("ppc: unknown op19 form at %#x", addr)
	case opOp31:
		switch xo := w >> 1 & 0x3FF; xo {
		case xoCmpw, xoCmplw, xoMflr, xoMtlr, xoSetb, xoNeg, xoExtsb, xoExtsh,
			xoSlwi, xoSrwi, xoSrawi,
			xoAdd, xoSubf, xoMullw, xoDivw, xoDivwu, xoSrem, xoUrem,
			xoAnd, xoOr, xoXor, xoSlw, xoSrw, xoSraw, xoNor:
		default:
			return inst, fmt.Errorf("ppc: unknown op31 xo %d at %#x", xo, addr)
		}
	default:
		return inst, fmt.Errorf("ppc: unknown opcode %d at %#x", op, addr)
	}
	return inst, nil
}

// Disasm implements isa.Backend, reconstructing the assembly text
// from the raw bits off the decode hot path.
func (b *Backend) Disasm(in isa.Inst) string {
	w := uint32(in.Raw)
	op := w >> 26
	rt := uir.Reg(w >> 21 & 31)
	ra := uir.Reg(w >> 16 & 31)
	rb := uir.Reg(w >> 11 & 31)
	imm := uint16(w)
	names := regNames()
	n := func(r uir.Reg) string { return names[r] }
	switch op {
	case opAddi:
		if ra == 0 {
			return fmt.Sprintf("li %s, %d", n(rt), int16(imm))
		}
		return fmt.Sprintf("addi %s, %s, %d", n(rt), n(ra), int16(imm))
	case opAddis:
		return fmt.Sprintf("lis %s, 0x%x", n(rt), imm)
	case opOri, opXori, opAndi:
		mn := map[uint32]string{opOri: "ori", opXori: "xori", opAndi: "andi."}[op]
		return fmt.Sprintf("%s %s, %s, 0x%x", mn, n(ra), n(rt), imm)
	case opLwz, opLbz, opStw, opStb:
		mn := map[uint32]string{opLwz: "lwz", opLbz: "lbz", opStw: "stw", opStb: "stb"}[op]
		return fmt.Sprintf("%s %s, %d(%s)", mn, n(rt), int16(imm), n(ra))
	case opB:
		if w&1 == 1 {
			return fmt.Sprintf("bl 0x%x", in.Target)
		}
		return fmt.Sprintf("b 0x%x", in.Target)
	case opBc:
		bo := w >> 21 & 31
		bi := w >> 16 & 31
		sense := "t"
		if bo == boFalse {
			sense = "f"
		}
		return fmt.Sprintf("bc%s cr0[%d], 0x%x", sense, bi, in.Target)
	case opOp19:
		if w>>1&0x3FF == xoBlr {
			return "blr"
		}
	case opOp31:
		switch xo := w >> 1 & 0x3FF; xo {
		case xoCmpw:
			return fmt.Sprintf("cmpw %s, %s", n(ra), n(rb))
		case xoCmplw:
			return fmt.Sprintf("cmplw %s, %s", n(ra), n(rb))
		case xoMflr:
			return "mflr " + n(rt)
		case xoMtlr:
			return "mtlr " + n(rt)
		case xoSetb:
			return fmt.Sprintf("setb %s, cr0[%d]", n(rt), ra)
		case xoNeg:
			return fmt.Sprintf("neg %s, %s", n(rt), n(ra))
		case xoExtsb, xoExtsh:
			mn := map[uint32]string{xoExtsb: "extsb", xoExtsh: "extsh"}[xo]
			return fmt.Sprintf("%s %s, %s", mn, n(ra), n(rt))
		case xoSlwi, xoSrwi, xoSrawi:
			mn := map[uint32]string{xoSlwi: "slwi", xoSrwi: "srwi", xoSrawi: "srawi"}[xo]
			return fmt.Sprintf("%s %s, %s, %d", mn, n(ra), n(rt), rb)
		case xoAdd, xoSubf, xoMullw, xoDivw, xoDivwu, xoSrem, xoUrem:
			mn := map[uint32]string{xoAdd: "add", xoSubf: "subf", xoMullw: "mullw",
				xoDivw: "divw", xoDivwu: "divwu", xoSrem: "srem", xoUrem: "urem"}[xo]
			return fmt.Sprintf("%s %s, %s, %s", mn, n(rt), n(ra), n(rb))
		case xoAnd, xoOr, xoXor, xoSlw, xoSrw, xoSraw, xoNor:
			mn := map[uint32]string{xoAnd: "and", xoOr: "or", xoXor: "xor",
				xoSlw: "slw", xoSrw: "srw", xoSraw: "sraw", xoNor: "nor"}[xo]
			return fmt.Sprintf("%s %s, %s, %s", mn, n(ra), n(rt), n(rb))
		}
	}
	return fmt.Sprintf(".word %#x", w)
}

// xoOps maps an opcode-31 extended opcode to its UIR op, for the X-form
// ALU instructions that are one binary operation over two registers.
var xoOps = map[uint32]uir.Op{
	xoAdd: uir.OpAdd, xoMullw: uir.OpMul,
	xoDivw: uir.OpDivS, xoDivwu: uir.OpDivU, xoSrem: uir.OpRemS, xoUrem: uir.OpRemU,
	xoAnd: uir.OpAnd, xoOr: uir.OpOr, xoXor: uir.OpXor,
	xoSlw: uir.OpShl, xoSrw: uir.OpShrU, xoSraw: uir.OpShrS,
}

// Lift implements isa.Backend.
func (b *Backend) Lift(inst isa.Inst, lb *isa.LiftBuilder) error {
	w := uint32(inst.Raw)
	op := w >> 26
	rt := uir.Reg(w >> 21 & 31)
	ra := uir.Reg(w >> 16 & 31)
	rb := uir.Reg(w >> 11 & 31)
	imm := uint16(w)
	sx := uint32(int32(int16(imm)))
	zx := uint32(imm)

	get := func(r uir.Reg) uir.Operand { return uir.T(lb.GetReg(r)) }

	switch op {
	case opAddi:
		if ra == 0 {
			lb.PutReg(rt, uir.C(sx))
		} else {
			lb.PutReg(rt, uir.T(lb.Bin(uir.OpAdd, get(ra), uir.C(sx))))
		}
	case opAddis:
		if ra == 0 {
			lb.PutReg(rt, uir.C(zx<<16))
		} else {
			lb.PutReg(rt, uir.T(lb.Bin(uir.OpAdd, get(ra), uir.C(zx<<16))))
		}
	case opOri:
		lb.PutReg(ra, uir.T(lb.Bin(uir.OpOr, get(rt), uir.C(zx))))
	case opXori:
		lb.PutReg(ra, uir.T(lb.Bin(uir.OpXor, get(rt), uir.C(zx))))
	case opAndi:
		lb.PutReg(ra, uir.T(lb.Bin(uir.OpAnd, get(rt), uir.C(zx))))
	case opLwz, opLbz:
		size := uint8(4)
		if op == opLbz {
			size = 1
		}
		addr := lb.Bin(uir.OpAdd, get(ra), uir.C(sx))
		t := lb.Load(uir.T(addr), size)
		lb.PutReg(rt, uir.T(t))
	case opStw, opStb:
		size := uint8(4)
		if op == opStb {
			size = 1
		}
		addr := lb.Bin(uir.OpAdd, get(ra), uir.C(sx))
		lb.Store(uir.T(addr), get(rt), size)
	case opB:
		if w&1 == 1 {
			lb.Call(uir.CK(inst.Target, uir.ConstCode))
		} else {
			lb.Exit(uir.ExitJump, uir.Operand{}, uir.CK(inst.Target, uir.ConstCode))
		}
	case opBc:
		bo := w >> 21 & 31
		bi := w >> 16 & 31
		reg, ok := biReg[bi]
		if !ok {
			return fmt.Errorf("ppc: cannot lift cr0 bit %d", bi)
		}
		cond := get(reg)
		if bo == boFalse {
			cond = uir.T(lb.Bin(uir.OpXor, cond, uir.C(1)))
		}
		lb.Exit(uir.ExitCond, cond, uir.CK(inst.Target, uir.ConstCode))
	case opOp19:
		lb.Exit(uir.ExitRet, uir.Operand{}, uir.Operand{})
	case opOp31:
		xo := w >> 1 & 0x3FF
		switch xo {
		case xoCmpw:
			a, bb := get(ra), get(rb)
			lb.PutReg(crLT, uir.T(lb.Bin(uir.OpCmpLTS, a, bb)))
			lb.PutReg(crGT, uir.T(lb.Bin(uir.OpCmpLTS, bb, a)))
			lb.PutReg(crEQ, uir.T(lb.Bin(uir.OpCmpEQ, a, bb)))
		case xoCmplw:
			a, bb := get(ra), get(rb)
			lb.PutReg(crLTU, uir.T(lb.Bin(uir.OpCmpLTU, a, bb)))
			lb.PutReg(crGTU, uir.T(lb.Bin(uir.OpCmpLTU, bb, a)))
			lb.PutReg(crEQ, uir.T(lb.Bin(uir.OpCmpEQ, a, bb)))
		case xoSetb:
			reg, ok := biReg[uint32(ra)]
			if !ok {
				return fmt.Errorf("ppc: setb of unknown cr0 bit %d", ra)
			}
			lb.PutReg(rt, get(reg))
		case xoMflr:
			lb.PutReg(rt, get(regLR))
		case xoMtlr:
			lb.PutReg(regLR, get(rt))
		case xoNeg:
			lb.PutReg(rt, uir.T(lb.Un(uir.OpNeg, get(ra))))
		case xoExtsb:
			lb.PutReg(ra, uir.T(lb.Un(uir.OpSext8, get(rt))))
		case xoExtsh:
			lb.PutReg(ra, uir.T(lb.Un(uir.OpSext16, get(rt))))
		case xoSlwi:
			lb.PutReg(ra, uir.T(lb.Bin(uir.OpShl, get(rt), uir.C(uint32(rb)))))
		case xoSrwi:
			lb.PutReg(ra, uir.T(lb.Bin(uir.OpShrU, get(rt), uir.C(uint32(rb)))))
		case xoSrawi:
			lb.PutReg(ra, uir.T(lb.Bin(uir.OpShrS, get(rt), uir.C(uint32(rb)))))
		case xoAdd, xoSubf, xoMullw, xoDivw, xoDivwu, xoSrem, xoUrem:
			if xo == xoSubf {
				lb.PutReg(rt, uir.T(lb.Bin(uir.OpSub, get(rb), get(ra))))
			} else {
				lb.PutReg(rt, uir.T(lb.Bin(xoOps[xo], get(ra), get(rb))))
			}
		case xoNor:
			t := lb.Bin(uir.OpOr, get(rt), get(rb))
			lb.PutReg(ra, uir.T(lb.Un(uir.OpNot, uir.T(t))))
		case xoAnd, xoOr, xoXor, xoSlw, xoSrw, xoSraw:
			lb.PutReg(ra, uir.T(lb.Bin(xoOps[xo], get(rt), get(rb))))
		default:
			return fmt.Errorf("ppc: cannot lift op31 xo %d", xo)
		}
	default:
		return fmt.Errorf("ppc: cannot lift opcode %d", op)
	}
	return nil
}
