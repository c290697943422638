package x86

import (
	"fmt"

	"firmup/internal/isa"
	"firmup/internal/uir"
)

// operand layout extracted from a modrm byte.
type modrm struct {
	mod  byte
	reg  uir.Reg
	rm   uir.Reg
	disp int32 // valid when mod == 10
}

func readU32(b []byte, o int) uint32 {
	return uint32(b[o]) | uint32(b[o+1])<<8 | uint32(b[o+2])<<16 | uint32(b[o+3])<<24
}

// parseModrm decodes the modrm byte (and disp32 for memory forms),
// returning the structure and total bytes consumed.
func parseModrm(text []byte, off int) (modrm, int, error) {
	if off >= len(text) {
		return modrm{}, 0, fmt.Errorf("x86: truncated modrm")
	}
	m := modrm{
		mod: text[off] >> 6,
		reg: uir.Reg(text[off] >> 3 & 7),
		rm:  uir.Reg(text[off] & 7),
	}
	switch m.mod {
	case 3:
		return m, 1, nil
	case 2:
		if off+5 > len(text) {
			return modrm{}, 0, fmt.Errorf("x86: truncated disp32")
		}
		m.disp = int32(readU32(text, off+1))
		return m, 5, nil
	default:
		return modrm{}, 0, fmt.Errorf("x86: unsupported mod %d", m.mod)
	}
}

var aluNames = map[byte]string{0x01: "add", 0x29: "sub", 0x21: "and", 0x09: "or", 0x31: "xor", 0x39: "cmp"}

// Decode implements isa.Backend. It classifies without rendering
// assembly text; Disasm materializes the text on demand.
func (b *Backend) Decode(text []byte, off int, addr uint32) (isa.Inst, error) {
	if off >= len(text) {
		return isa.Inst{}, fmt.Errorf("x86: truncated instruction at %#x", addr)
	}
	op := text[off]
	inst := isa.Inst{Addr: addr}
	fin := func(size int, raw uint64) (isa.Inst, error) {
		inst.Size = uint32(size)
		inst.Raw = raw
		return inst, nil
	}
	// Raw packing: opcode byte(s) in the low bits, then modrm, then
	// immediate — enough for Lift and Disasm to re-decode without the
	// text slice.
	switch {
	case op == 0xC3:
		inst.Kind = isa.KindRet
		return fin(1, uint64(op))
	case op == 0x99:
		return fin(1, uint64(op))
	case op == 0xE8 || op == 0xE9:
		if off+5 > len(text) {
			return inst, fmt.Errorf("x86: truncated rel32 at %#x", addr)
		}
		rel := int32(readU32(text, off+1))
		inst.Target = uint32(int32(addr+5) + rel)
		if op == 0xE8 {
			inst.Kind = isa.KindCall
		} else {
			inst.Kind = isa.KindJump
		}
		return fin(5, uint64(op))
	case op >= 0xB8 && op <= 0xBF:
		if off+5 > len(text) {
			return inst, fmt.Errorf("x86: truncated mov imm32 at %#x", addr)
		}
		v := readU32(text, off+1)
		return fin(5, uint64(op)|uint64(v)<<8)
	case op == 0x89 || op == 0x8B || op == 0x88 || op == 0x8D || op == 0x01 || op == 0x29 || op == 0x21 || op == 0x09 || op == 0x31 || op == 0x39:
		m, used, err := parseModrm(text, off+1)
		if err != nil {
			return inst, err
		}
		if op != 0x89 && op != 0x8B && op != 0x88 && op != 0x8D && m.mod != 3 {
			return inst, fmt.Errorf("x86: alu with memory operand at %#x", addr)
		}
		return fin(1+used, uint64(op)|uint64(text[off+1])<<8|uint64(uint32(m.disp))<<16)
	case op == 0x81:
		m, _, err := parseModrm(text, off+1)
		if err != nil || m.mod != 3 {
			return inst, fmt.Errorf("x86: bad 0x81 form at %#x", addr)
		}
		if off+6 > len(text) {
			return inst, fmt.Errorf("x86: truncated imm32 at %#x", addr)
		}
		if m.reg != 0 && m.reg != 5 && m.reg != 7 {
			return inst, fmt.Errorf("x86: unknown 0x81 /%d at %#x", m.reg, addr)
		}
		v := readU32(text, off+2)
		return fin(6, uint64(op)|uint64(text[off+1])<<8|uint64(v)<<16)
	case op == 0xF7:
		m, _, err := parseModrm(text, off+1)
		if err != nil || m.mod != 3 {
			return inst, fmt.Errorf("x86: bad 0xF7 form at %#x", addr)
		}
		if m.reg != 2 && m.reg != 3 && m.reg != 6 && m.reg != 7 {
			return inst, fmt.Errorf("x86: unknown 0xF7 /%d at %#x", m.reg, addr)
		}
		return fin(2, uint64(op)|uint64(text[off+1])<<8)
	case op == 0xD3:
		m, _, err := parseModrm(text, off+1)
		if err != nil || m.mod != 3 {
			return inst, fmt.Errorf("x86: bad 0xD3 form at %#x", addr)
		}
		if m.reg != 4 && m.reg != 5 && m.reg != 7 {
			return inst, fmt.Errorf("x86: unknown 0xD3 /%d at %#x", m.reg, addr)
		}
		return fin(2, uint64(op)|uint64(text[off+1])<<8)
	case op == 0xC1:
		m, _, err := parseModrm(text, off+1)
		if err != nil || m.mod != 3 || off+3 > len(text) {
			return inst, fmt.Errorf("x86: bad 0xC1 form at %#x", addr)
		}
		if m.reg != 4 && m.reg != 5 && m.reg != 7 {
			return inst, fmt.Errorf("x86: unknown 0xC1 /%d at %#x", m.reg, addr)
		}
		return fin(3, uint64(op)|uint64(text[off+1])<<8|uint64(text[off+2])<<16)
	case op == 0x0F:
		if off+2 > len(text) {
			return inst, fmt.Errorf("x86: truncated 0x0F escape at %#x", addr)
		}
		op2 := text[off+1]
		switch {
		case op2 >= 0x80 && op2 <= 0x8F:
			if off+6 > len(text) {
				return inst, fmt.Errorf("x86: truncated jcc at %#x", addr)
			}
			rel := int32(readU32(text, off+2))
			inst.Target = uint32(int32(addr+6) + rel)
			inst.Kind = isa.KindCondBranch
			return fin(6, uint64(op)|uint64(op2)<<8)
		case op2 >= 0x90 && op2 <= 0x9F:
			m, _, err := parseModrm(text, off+2)
			if err != nil || m.mod != 3 {
				return inst, fmt.Errorf("x86: bad setcc at %#x", addr)
			}
			return fin(3, uint64(op)|uint64(op2)<<8|uint64(text[off+2])<<16)
		case op2 == 0xAF:
			m, _, err := parseModrm(text, off+2)
			if err != nil || m.mod != 3 {
				return inst, fmt.Errorf("x86: bad imul at %#x", addr)
			}
			return fin(3, uint64(op)|uint64(op2)<<8|uint64(text[off+2])<<16)
		case op2 == 0xB6 || op2 == 0xB7 || op2 == 0xBE || op2 == 0xBF:
			m, used, err := parseModrm(text, off+2)
			if err != nil {
				return inst, err
			}
			return fin(2+used, uint64(op)|uint64(op2)<<8|uint64(text[off+2])<<16|uint64(uint32(m.disp))<<24)
		}
		return inst, fmt.Errorf("x86: unknown 0x0F %02x at %#x", op2, addr)
	}
	return inst, fmt.Errorf("x86: unknown opcode %#02x at %#x", op, addr)
}

// Disasm implements isa.Backend, reconstructing the assembly text
// from the packed raw bits off the decode hot path.
func (b *Backend) Disasm(in isa.Inst) string {
	raw := in.Raw
	op := byte(raw)
	n := func(r uir.Reg) string { return regNames[r] }
	mr := func(shift uint) modrm {
		mb := byte(raw >> shift)
		return modrm{mod: mb >> 6, reg: uir.Reg(mb >> 3 & 7), rm: uir.Reg(mb & 7)}
	}
	switch {
	case op == 0xC3:
		return "ret"
	case op == 0x99:
		return "cdq"
	case op == 0xE8:
		return fmt.Sprintf("call 0x%x", in.Target)
	case op == 0xE9:
		return fmt.Sprintf("jmp 0x%x", in.Target)
	case op >= 0xB8 && op <= 0xBF:
		return fmt.Sprintf("mov %s, 0x%x", n(uir.Reg(op-0xB8)), uint32(raw>>8))
	case op == 0x89 || op == 0x8B || op == 0x88 || op == 0x8D || op == 0x01 || op == 0x29 || op == 0x21 || op == 0x09 || op == 0x31 || op == 0x39:
		m := mr(8)
		disp := int32(uint32(raw >> 16))
		switch {
		case op == 0x89 && m.mod == 3:
			return fmt.Sprintf("mov %s, %s", n(m.rm), n(m.reg))
		case op == 0x89:
			return fmt.Sprintf("mov [%s%+d], %s", n(m.rm), disp, n(m.reg))
		case op == 0x8B:
			return fmt.Sprintf("mov %s, [%s%+d]", n(m.reg), n(m.rm), disp)
		case op == 0x88:
			return fmt.Sprintf("mov byte [%s%+d], %s", n(m.rm), disp, n(m.reg))
		case op == 0x8D:
			return fmt.Sprintf("lea %s, [%s%+d]", n(m.reg), n(m.rm), disp)
		default:
			return fmt.Sprintf("%s %s, %s", aluNames[op], n(m.rm), n(m.reg))
		}
	case op == 0x81:
		m := mr(8)
		if mn := map[uir.Reg]string{0: "add", 5: "sub", 7: "cmp"}[m.reg]; mn != "" {
			return fmt.Sprintf("%s %s, 0x%x", mn, n(m.rm), uint32(raw>>16))
		}
	case op == 0xF7:
		m := mr(8)
		if mn := map[uir.Reg]string{2: "not", 3: "neg", 6: "div", 7: "idiv"}[m.reg]; mn != "" {
			return fmt.Sprintf("%s %s", mn, n(m.rm))
		}
	case op == 0xD3:
		m := mr(8)
		if mn := map[uir.Reg]string{4: "shl", 5: "shr", 7: "sar"}[m.reg]; mn != "" {
			return fmt.Sprintf("%s %s, cl", mn, n(m.rm))
		}
	case op == 0xC1:
		m := mr(8)
		if mn := map[uir.Reg]string{4: "shl", 5: "shr", 7: "sar"}[m.reg]; mn != "" {
			return fmt.Sprintf("%s %s, %d", mn, n(m.rm), byte(raw>>16))
		}
	case op == 0x0F:
		op2 := byte(raw >> 8)
		switch {
		case op2 >= 0x80 && op2 <= 0x8F:
			return fmt.Sprintf("j%s 0x%x", ccNames[op2-0x80], in.Target)
		case op2 >= 0x90 && op2 <= 0x9F:
			return fmt.Sprintf("set%s %s", ccNames[op2-0x90], n(mr(16).rm))
		case op2 == 0xAF:
			m := mr(16)
			return fmt.Sprintf("imul %s, %s", n(m.reg), n(m.rm))
		case op2 == 0xB6 || op2 == 0xB7 || op2 == 0xBE || op2 == 0xBF:
			m := mr(16)
			mn := map[byte]string{0xB6: "movzx.b", 0xB7: "movzx.w", 0xBE: "movsx.b", 0xBF: "movsx.w"}[op2]
			if m.mod == 3 {
				return fmt.Sprintf("%s %s, %s", mn, n(m.reg), n(m.rm))
			}
			return fmt.Sprintf("%s %s, [%s%+d]", mn, n(m.reg), n(m.rm), int32(uint32(raw>>24)))
		}
	}
	return fmt.Sprintf(".word %#x", raw)
}

// ccExpr builds the boolean expression for an Intel condition code over
// the synthetic Z/LTS/LTU flags.
func ccExpr(lb *isa.LiftBuilder, cc byte) (uir.Operand, error) {
	z := func() uir.Operand { return uir.T(lb.GetReg(flagZ)) }
	lt := func() uir.Operand { return uir.T(lb.GetReg(flagLT)) }
	lo := func() uir.Operand { return uir.T(lb.GetReg(flagLO)) }
	not := func(x uir.Operand) uir.Operand { return uir.T(lb.Bin(uir.OpXor, x, uir.C(1))) }
	or := func(x, y uir.Operand) uir.Operand { return uir.T(lb.Bin(uir.OpOr, x, y)) }
	switch cc {
	case ccE:
		return z(), nil
	case ccNE:
		return not(z()), nil
	case ccB:
		return lo(), nil
	case ccAE:
		return not(lo()), nil
	case ccBE:
		return or(lo(), z()), nil
	case ccA:
		return not(or(lo(), z())), nil
	case ccL:
		return lt(), nil
	case ccGE:
		return not(lt()), nil
	case ccLE:
		return or(lt(), z()), nil
	case ccG:
		return not(or(lt(), z())), nil
	}
	return uir.Operand{}, fmt.Errorf("x86: cannot lift condition %#x", cc)
}

// Lift implements isa.Backend.
func (b *Backend) Lift(inst isa.Inst, lb *isa.LiftBuilder) error {
	raw := inst.Raw
	op := byte(raw)
	get := func(r uir.Reg) uir.Operand { return uir.T(lb.GetReg(r)) }
	setFlags := func(a, bb uir.Operand) {
		lb.PutReg(flagZ, uir.T(lb.Bin(uir.OpCmpEQ, a, bb)))
		lb.PutReg(flagLT, uir.T(lb.Bin(uir.OpCmpLTS, a, bb)))
		lb.PutReg(flagLO, uir.T(lb.Bin(uir.OpCmpLTU, a, bb)))
	}
	mr := func(shift uint) modrm {
		mb := byte(raw >> shift)
		return modrm{mod: mb >> 6, reg: uir.Reg(mb >> 3 & 7), rm: uir.Reg(mb & 7)}
	}
	switch {
	case op == 0xC3:
		lb.Exit(uir.ExitRet, uir.Operand{}, uir.Operand{})
	case op == 0x99: // cdq
		lb.PutReg(regEDX, uir.T(lb.Bin(uir.OpShrS, get(regEAX), uir.C(31))))
	case op == 0xE8:
		lb.Call(uir.CK(inst.Target, uir.ConstCode))
	case op == 0xE9:
		lb.Exit(uir.ExitJump, uir.Operand{}, uir.CK(inst.Target, uir.ConstCode))
	case op >= 0xB8 && op <= 0xBF:
		lb.PutReg(uir.Reg(op-0xB8), uir.C(uint32(raw>>8)))
	case op == 0x89 || op == 0x8B || op == 0x88 || op == 0x8D:
		m := mr(8)
		disp := uir.C(uint32(raw >> 16))
		switch {
		case op == 0x89 && m.mod == 3:
			lb.PutReg(m.rm, get(m.reg))
		case op == 0x89:
			addr := lb.Bin(uir.OpAdd, get(m.rm), disp)
			lb.Store(uir.T(addr), get(m.reg), 4)
		case op == 0x8B:
			addr := lb.Bin(uir.OpAdd, get(m.rm), disp)
			t := lb.Load(uir.T(addr), 4)
			lb.PutReg(m.reg, uir.T(t))
		case op == 0x88:
			addr := lb.Bin(uir.OpAdd, get(m.rm), disp)
			lb.Store(uir.T(addr), get(m.reg), 1)
		case op == 0x8D:
			lb.PutReg(m.reg, uir.T(lb.Bin(uir.OpAdd, get(m.rm), disp)))
		}
	case op == 0x01 || op == 0x29 || op == 0x21 || op == 0x09 || op == 0x31:
		m := mr(8)
		o := map[byte]uir.Op{0x01: uir.OpAdd, 0x29: uir.OpSub, 0x21: uir.OpAnd, 0x09: uir.OpOr, 0x31: uir.OpXor}[op]
		lb.PutReg(m.rm, uir.T(lb.Bin(o, get(m.rm), get(m.reg))))
	case op == 0x39:
		m := mr(8)
		setFlags(get(m.rm), get(m.reg))
	case op == 0x81:
		m := mr(8)
		v := uir.C(uint32(raw >> 16))
		switch m.reg {
		case 0:
			lb.PutReg(m.rm, uir.T(lb.Bin(uir.OpAdd, get(m.rm), v)))
		case 5:
			lb.PutReg(m.rm, uir.T(lb.Bin(uir.OpSub, get(m.rm), v)))
		case 7:
			setFlags(get(m.rm), v)
		}
	case op == 0xF7:
		m := mr(8)
		switch m.reg {
		case 2:
			lb.PutReg(m.rm, uir.T(lb.Un(uir.OpNot, get(m.rm))))
		case 3:
			lb.PutReg(m.rm, uir.T(lb.Un(uir.OpNeg, get(m.rm))))
		case 6:
			a, d := get(regEAX), get(m.rm)
			lb.PutReg(regEAX, uir.T(lb.Bin(uir.OpDivU, a, d)))
			lb.PutReg(regEDX, uir.T(lb.Bin(uir.OpRemU, a, d)))
		case 7:
			a, d := get(regEAX), get(m.rm)
			lb.PutReg(regEAX, uir.T(lb.Bin(uir.OpDivS, a, d)))
			lb.PutReg(regEDX, uir.T(lb.Bin(uir.OpRemS, a, d)))
		}
	case op == 0xD3:
		m := mr(8)
		o := map[uir.Reg]uir.Op{4: uir.OpShl, 5: uir.OpShrU, 7: uir.OpShrS}[m.reg]
		cnt := lb.Bin(uir.OpAnd, get(regECX), uir.C(31))
		lb.PutReg(m.rm, uir.T(lb.Bin(o, get(m.rm), uir.T(cnt))))
	case op == 0xC1:
		m := mr(8)
		o := map[uir.Reg]uir.Op{4: uir.OpShl, 5: uir.OpShrU, 7: uir.OpShrS}[m.reg]
		lb.PutReg(m.rm, uir.T(lb.Bin(o, get(m.rm), uir.C(uint32(byte(raw>>16))))))
	case op == 0x0F:
		op2 := byte(raw >> 8)
		switch {
		case op2 >= 0x80 && op2 <= 0x8F:
			c, err := ccExpr(lb, op2-0x80)
			if err != nil {
				return err
			}
			lb.Exit(uir.ExitCond, c, uir.CK(inst.Target, uir.ConstCode))
		case op2 >= 0x90 && op2 <= 0x9F:
			m := mr(16)
			c, err := ccExpr(lb, op2-0x90)
			if err != nil {
				return err
			}
			lb.PutReg(m.rm, c)
		case op2 == 0xAF:
			m := mr(16)
			lb.PutReg(m.reg, uir.T(lb.Bin(uir.OpMul, get(m.reg), get(m.rm))))
		case op2 == 0xB6 || op2 == 0xB7 || op2 == 0xBE || op2 == 0xBF:
			m := mr(16)
			if m.mod == 3 {
				o := map[byte]uir.Op{0xB6: uir.OpZext8, 0xB7: uir.OpZext16, 0xBE: uir.OpSext8, 0xBF: uir.OpSext16}[op2]
				lb.PutReg(m.reg, uir.T(lb.Un(o, get(m.rm))))
				return nil
			}
			disp := uir.C(uint32(raw >> 24))
			addr := lb.Bin(uir.OpAdd, get(m.rm), disp)
			size := uint8(1)
			if op2 == 0xB7 || op2 == 0xBF {
				size = 2
			}
			t := lb.Load(uir.T(addr), size)
			val := uir.T(t)
			if op2 == 0xBE {
				val = uir.T(lb.Un(uir.OpSext8, val))
			} else if op2 == 0xBF {
				val = uir.T(lb.Un(uir.OpSext16, val))
			}
			lb.PutReg(m.reg, val)
		default:
			return fmt.Errorf("x86: cannot lift 0x0F %02x", op2)
		}
	default:
		return fmt.Errorf("x86: cannot lift opcode %#02x", op)
	}
	return nil
}
