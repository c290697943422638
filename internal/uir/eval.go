package uir

import "fmt"

// Machine is a reference interpreter over UIR blocks. It exists for
// testing: lifter correctness and canonicalizer semantics-preservation are
// both checked by executing code under this machine.
type Machine struct {
	Regs map[Reg]uint32
	Mem  map[uint32]byte
	// Calls records the targets of Call statements, in execution order.
	Calls []Operand
	// Exited holds the taken StmtExit, if any.
	Exited *Stmt
}

// NewMachine returns an empty machine; unset registers and memory read as
// zero.
func NewMachine() *Machine {
	return &Machine{Regs: map[Reg]uint32{}, Mem: map[uint32]byte{}}
}

// ReadMem loads size bytes little-endian at addr.
func (m *Machine) ReadMem(addr uint32, size uint8) uint32 {
	var v uint32
	for i := uint8(0); i < size; i++ {
		v |= uint32(m.Mem[addr+uint32(i)]) << (8 * i)
	}
	return v
}

// WriteMem stores the low size bytes of v little-endian at addr.
func (m *Machine) WriteMem(addr uint32, v uint32, size uint8) {
	for i := uint8(0); i < size; i++ {
		m.Mem[addr+uint32(i)] = byte(v >> (8 * i))
	}
}

// EvalBin computes a binary operation; division by zero yields zero, the
// convention shared with the canonicalizer's constant folder.
func EvalBin(op Op, a, b uint32) uint32 {
	switch op {
	case OpAdd:
		return a + b
	case OpSub:
		return a - b
	case OpMul:
		return a * b
	case OpDivU:
		if b == 0 {
			return 0
		}
		return a / b
	case OpDivS:
		if b == 0 {
			return 0
		}
		if int32(a) == -1<<31 && int32(b) == -1 {
			return a // matches hardware wraparound
		}
		return uint32(int32(a) / int32(b))
	case OpRemU:
		if b == 0 {
			return 0
		}
		return a % b
	case OpRemS:
		if b == 0 {
			return 0
		}
		if int32(a) == -1<<31 && int32(b) == -1 {
			return 0
		}
		return uint32(int32(a) % int32(b))
	case OpAnd:
		return a & b
	case OpOr:
		return a | b
	case OpXor:
		return a ^ b
	case OpShl:
		return a << (b & 31)
	case OpShrU:
		return a >> (b & 31)
	case OpShrS:
		return uint32(int32(a) >> (b & 31))
	case OpCmpEQ:
		return b2u(a == b)
	case OpCmpNE:
		return b2u(a != b)
	case OpCmpLTU:
		return b2u(a < b)
	case OpCmpLTS:
		return b2u(int32(a) < int32(b))
	case OpCmpLEU:
		return b2u(a <= b)
	case OpCmpLES:
		return b2u(int32(a) <= int32(b))
	}
	panic(fmt.Sprintf("uir: EvalBin on non-binary op %v", op))
}

// EvalUn computes a unary operation.
func EvalUn(op Op, a uint32) uint32 {
	switch op {
	case OpNot:
		return ^a
	case OpNeg:
		return -a
	case OpBool:
		return b2u(a != 0)
	case OpSext8:
		return uint32(int32(int8(a)))
	case OpSext16:
		return uint32(int32(int16(a)))
	case OpZext8:
		return a & 0xFF
	case OpZext16:
		return a & 0xFFFF
	}
	panic(fmt.Sprintf("uir: EvalUn on non-unary op %v", op))
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// RunBlock executes the statements of b until the first taken Exit (or the
// end of the block) and returns the machine for inspection. Temporaries
// are block-local.
func (m *Machine) RunBlock(b *Block) error {
	temps := map[Temp]uint32{}
	val := func(o Operand) uint32 {
		if o.IsConst {
			return o.Val
		}
		return temps[o.Temp]
	}
	for i := range b.Stmts {
		s := &b.Stmts[i]
		switch s.Kind {
		case StmtGet:
			temps[s.Dst] = m.Regs[s.Reg]
		case StmtPut:
			m.Regs[s.Reg] = val(s.A)
		case StmtLoad:
			temps[s.Dst] = m.ReadMem(val(s.A), s.Size)
		case StmtStore:
			m.WriteMem(val(s.A), val(s.B), s.Size)
		case StmtBin:
			temps[s.Dst] = EvalBin(s.Op, val(s.A), val(s.B))
		case StmtUn:
			temps[s.Dst] = EvalUn(s.Op, val(s.A))
		case StmtMov:
			temps[s.Dst] = val(s.A)
		case StmtSel:
			if val(s.C) != 0 {
				temps[s.Dst] = val(s.A)
			} else {
				temps[s.Dst] = val(s.B)
			}
		case StmtCall:
			m.Calls = append(m.Calls, s.A)
		case StmtExit:
			if s.Exit != ExitCond || val(s.C) != 0 {
				e := *s
				// Resolve indirect targets so callers can follow them.
				if !e.A.IsConst && e.Exit != ExitRet {
					e.A = C(val(e.A))
				}
				m.Exited = &e
				return nil
			}
		default:
			return fmt.Errorf("uir: unknown statement kind %d", s.Kind)
		}
	}
	return nil
}
