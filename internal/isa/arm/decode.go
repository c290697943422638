package arm

import (
	"fmt"

	"firmup/internal/isa"
	"firmup/internal/uir"
)

var dpNames = map[uint32]string{
	dpAnd: "and", dpEor: "eor", dpSub: "sub", dpRsb: "rsb", dpAdd: "add",
	dpOrr: "orr", dpMov: "mov", dpMvn: "mvn", dpCmp: "cmp",
	dpLsl: "lsl", dpLsr: "lsr", dpAsr: "asr",
}

var mdNames = map[uint32]string{
	mdMul: "mul", mdSdiv: "sdiv", mdUdiv: "udiv", mdSrem: "srem", mdUrem: "urem",
}

// Decode implements isa.Backend. It classifies without rendering
// assembly text; Disasm materializes the text on demand.
func (b *Backend) Decode(text []byte, off int, addr uint32) (isa.Inst, error) {
	if off+4 > len(text) {
		return isa.Inst{}, fmt.Errorf("arm: truncated instruction at %#x", addr)
	}
	w := uint32(text[off]) | uint32(text[off+1])<<8 | uint32(text[off+2])<<16 | uint32(text[off+3])<<24
	inst := isa.Inst{Addr: addr, Size: 4, Raw: uint64(w)}
	cond := w >> 28
	class := w >> 24 & 0xF
	switch class {
	case clDPReg, clDPImm:
		op := w >> 20 & 0xF
		if _, ok := dpNames[op]; !ok {
			return inst, fmt.Errorf("arm: unknown dp opcode %d at %#x", op, addr)
		}
	case clMovw, clMovt, clMemW, clMemB:
	case clBranch, clBL:
		words := int32(w<<8) >> 8 // sign-extend imm24
		inst.Target = uint32(int32(addr+8) + words*4)
		if class == clBL {
			inst.Kind = isa.KindCall
		} else if cond == condAL {
			inst.Kind = isa.KindJump
		} else {
			inst.Kind = isa.KindCondBranch
		}
	case clBX:
		if uir.Reg(w&0xF) == regLR {
			inst.Kind = isa.KindRet
		} else {
			inst.Kind = isa.KindIndirect
		}
	case clMulDiv:
		op := w >> 20 & 0xF
		if _, ok := mdNames[op]; !ok {
			return inst, fmt.Errorf("arm: unknown muldiv opcode %d at %#x", op, addr)
		}
	default:
		return inst, fmt.Errorf("arm: unknown instruction class %d at %#x", class, addr)
	}
	return inst, nil
}

// Disasm implements isa.Backend, reconstructing the assembly text
// from the raw bits off the decode hot path.
func (b *Backend) Disasm(in isa.Inst) string {
	w := uint32(in.Raw)
	cond := w >> 28
	class := w >> 24 & 0xF
	rn := func(r uir.Reg) string { return regNames[r] }
	switch class {
	case clDPReg, clDPImm:
		op := w >> 20 & 0xF
		rd := uir.Reg(w >> 16 & 0xF)
		rnn := uir.Reg(w >> 12 & 0xF)
		name, ok := dpNames[op]
		if !ok {
			break
		}
		if class == clDPReg {
			rm := uir.Reg(w >> 8 & 0xF)
			return fmt.Sprintf("%s%s %s, %s, %s", name, condNames[cond], rn(rd), rn(rnn), rn(rm))
		}
		return fmt.Sprintf("%s%s %s, %s, #%d", name, condNames[cond], rn(rd), rn(rnn), w&0xFFF)
	case clMovw:
		return fmt.Sprintf("movw %s, #0x%x", rn(uir.Reg(w>>16&0xF)), w&0xFFFF)
	case clMovt:
		return fmt.Sprintf("movt %s, #0x%x", rn(uir.Reg(w>>16&0xF)), w&0xFFFF)
	case clMemW, clMemB:
		mn := "str"
		if w>>23&1 == 1 {
			mn = "ldr"
		}
		if class == clMemB {
			mn += "b"
		}
		return fmt.Sprintf("%s %s, [%s, #%d]", mn, rn(uir.Reg(w>>16&0xF)), rn(uir.Reg(w>>12&0xF)), w&0xFFF)
	case clBranch, clBL:
		if class == clBL {
			return fmt.Sprintf("bl 0x%x", in.Target)
		}
		if cond == condAL {
			return fmt.Sprintf("b 0x%x", in.Target)
		}
		return fmt.Sprintf("b%s 0x%x", condNames[cond], in.Target)
	case clBX:
		rm := uir.Reg(w & 0xF)
		if rm == regLR {
			return "bx lr"
		}
		return "bx " + rn(rm)
	case clMulDiv:
		if name, ok := mdNames[w>>20&0xF]; ok {
			return fmt.Sprintf("%s %s, %s, %s", name, rn(uir.Reg(w>>16&0xF)), rn(uir.Reg(w>>12&0xF)), rn(uir.Reg(w>>8&0xF)))
		}
	}
	return fmt.Sprintf(".word %#x", w)
}

// condExpr builds the boolean UIR expression for an ARM condition code
// over the synthetic Z/LTS/LTU flags.
func condExpr(lb *isa.LiftBuilder, cond uint32) (uir.Operand, error) {
	z := func() uir.Operand { return uir.T(lb.GetReg(flagZ)) }
	lt := func() uir.Operand { return uir.T(lb.GetReg(flagLT)) }
	lo := func() uir.Operand { return uir.T(lb.GetReg(flagLO)) }
	not := func(x uir.Operand) uir.Operand { return uir.T(lb.Bin(uir.OpXor, x, uir.C(1))) }
	or := func(x, y uir.Operand) uir.Operand { return uir.T(lb.Bin(uir.OpOr, x, y)) }
	switch cond {
	case condEQ:
		return z(), nil
	case condNE:
		return not(z()), nil
	case condLO:
		return lo(), nil
	case condHS:
		return not(lo()), nil
	case condLS:
		return or(lo(), z()), nil
	case condHI:
		return not(or(lo(), z())), nil
	case condLT:
		return lt(), nil
	case condGE:
		return not(lt()), nil
	case condLE:
		return or(lt(), z()), nil
	case condGT:
		return not(or(lt(), z())), nil
	}
	return uir.Operand{}, fmt.Errorf("arm: cannot lift condition %d", cond)
}

// mulDivOps maps the multiply/divide class's op field to its UIR op.
var mulDivOps = map[uint32]uir.Op{mdMul: uir.OpMul, mdSdiv: uir.OpDivS, mdUdiv: uir.OpDivU, mdSrem: uir.OpRemS, mdUrem: uir.OpRemU}

// Lift implements isa.Backend. A cmp writes the three predicate flags; a
// predicated mov lifts to a Sel over the condition expression.
func (b *Backend) Lift(inst isa.Inst, lb *isa.LiftBuilder) error {
	w := uint32(inst.Raw)
	cond := w >> 28
	class := w >> 24 & 0xF

	setFlags := func(a, bb uir.Operand) {
		lb.PutReg(flagZ, uir.T(lb.Bin(uir.OpCmpEQ, a, bb)))
		lb.PutReg(flagLT, uir.T(lb.Bin(uir.OpCmpLTS, a, bb)))
		lb.PutReg(flagLO, uir.T(lb.Bin(uir.OpCmpLTU, a, bb)))
	}

	switch class {
	case clDPReg, clDPImm:
		op := w >> 20 & 0xF
		rd := uir.Reg(w >> 16 & 0xF)
		rnn := uir.Reg(w >> 12 & 0xF)
		var b2 uir.Operand
		if class == clDPReg {
			b2 = uir.T(lb.GetReg(uir.Reg(w >> 8 & 0xF)))
		} else {
			b2 = uir.C(w & 0xFFF)
		}
		// Conditionally-executed writes lift to Sel.
		write := func(val uir.Operand) {
			if cond == condAL {
				lb.PutReg(rd, val)
				return
			}
			c, err := condExpr(lb, cond)
			if err != nil {
				return
			}
			old := uir.T(lb.GetReg(rd))
			t := lb.Sel(c, val, old)
			lb.PutReg(rd, uir.T(t))
		}
		switch op {
		case dpCmp:
			setFlags(uir.T(lb.GetReg(rnn)), b2)
		case dpMov:
			write(b2)
		case dpMvn:
			write(uir.T(lb.Un(uir.OpNot, b2)))
		case dpRsb:
			write(uir.T(lb.Bin(uir.OpSub, b2, uir.T(lb.GetReg(rnn)))))
		default:
			var o uir.Op
			switch op {
			case dpAnd:
				o = uir.OpAnd
			case dpEor:
				o = uir.OpXor
			case dpSub:
				o = uir.OpSub
			case dpAdd:
				o = uir.OpAdd
			case dpOrr:
				o = uir.OpOr
			case dpLsl:
				o = uir.OpShl
			case dpLsr:
				o = uir.OpShrU
			case dpAsr:
				o = uir.OpShrS
			default:
				return fmt.Errorf("arm: cannot lift dp op %d", op)
			}
			write(uir.T(lb.Bin(o, uir.T(lb.GetReg(rnn)), b2)))
		}
	case clMovw:
		lb.PutReg(uir.Reg(w>>16&0xF), uir.C(w&0xFFFF))
	case clMovt:
		rd := uir.Reg(w >> 16 & 0xF)
		low := lb.Bin(uir.OpAnd, uir.T(lb.GetReg(rd)), uir.C(0xFFFF))
		hi := uir.C((w & 0xFFFF) << 16)
		lb.PutReg(rd, uir.T(lb.Bin(uir.OpOr, uir.T(low), hi)))
	case clMemW, clMemB:
		load := w>>23&1 == 1
		rd := uir.Reg(w >> 16 & 0xF)
		base := uir.Reg(w >> 12 & 0xF)
		size := uint8(4)
		if class == clMemB {
			size = 1
		}
		addr := lb.Bin(uir.OpAdd, uir.T(lb.GetReg(base)), uir.C(w&0xFFF))
		if load {
			t := lb.Load(uir.T(addr), size)
			lb.PutReg(rd, uir.T(t))
		} else {
			lb.Store(uir.T(addr), uir.T(lb.GetReg(rd)), size)
		}
	case clBranch:
		if cond == condAL {
			lb.Exit(uir.ExitJump, uir.Operand{}, uir.CK(inst.Target, uir.ConstCode))
		} else {
			c, err := condExpr(lb, cond)
			if err != nil {
				return err
			}
			lb.Exit(uir.ExitCond, c, uir.CK(inst.Target, uir.ConstCode))
		}
	case clBL:
		lb.Call(uir.CK(inst.Target, uir.ConstCode))
	case clBX:
		rm := uir.Reg(w & 0xF)
		if rm == regLR {
			lb.Exit(uir.ExitRet, uir.Operand{}, uir.Operand{})
		} else {
			lb.Exit(uir.ExitIndir, uir.Operand{}, uir.T(lb.GetReg(rm)))
		}
	case clMulDiv:
		o, ok := mulDivOps[w>>20&0xF]
		if !ok {
			return fmt.Errorf("arm: cannot lift muldiv op %d", w>>20&0xF)
		}
		rd := uir.Reg(w >> 16 & 0xF)
		a := uir.T(lb.GetReg(uir.Reg(w >> 12 & 0xF)))
		bb := uir.T(lb.GetReg(uir.Reg(w >> 8 & 0xF)))
		lb.PutReg(rd, uir.T(lb.Bin(o, a, bb)))
	default:
		return fmt.Errorf("arm: cannot lift class %d", class)
	}
	return nil
}
