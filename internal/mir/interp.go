package mir

import (
	"fmt"

	"firmup/internal/uir"
)

// Interp is a reference interpreter for MIR packages. It exists for
// testing: the compiler's optimization passes must preserve the observable
// behavior (return value, global memory, call trace) of every procedure,
// and generated corpus procedures are checked for termination under fuel.
type Interp struct {
	Pkg  *Package
	Mem  map[uint32]byte
	base map[string]uint32 // global name -> address
	next uint32
	// Trace records "name(arg0,...)" strings of every call executed.
	Trace []string
	// Fuel bounds total executed instructions; ErrOutOfFuel on exhaustion.
	Fuel int64
}

// ErrOutOfFuel is returned when execution exceeds the interpreter's fuel.
var ErrOutOfFuel = fmt.Errorf("mir: out of fuel")

const (
	globalBase = 0x10000000
	stackBase  = 0x7FFF0000
)

// NewInterp prepares an interpreter with globals laid out in memory.
func NewInterp(pkg *Package) *Interp {
	in := &Interp{
		Pkg:  pkg,
		Mem:  map[uint32]byte{},
		base: map[string]uint32{},
		next: globalBase,
		Fuel: 1 << 22,
	}
	for _, g := range pkg.Globals {
		in.base[g.Name] = in.next
		for i, b := range g.Data {
			in.Mem[in.next+uint32(i)] = b
		}
		in.next += uint32(len(g.Data))
		// Pad and align.
		in.next = (in.next + 7) &^ 3
	}
	return in
}

// Call runs the named procedure with the given arguments and returns its
// result.
func (in *Interp) Call(name string, args ...uint32) (uint32, error) {
	return in.call(name, args, stackBase)
}

func (in *Interp) call(name string, args []uint32, sp uint32) (uint32, error) {
	p := in.Pkg.Proc(name)
	if p == nil {
		return 0, fmt.Errorf("mir: call to unknown procedure %s", name)
	}
	in.Trace = append(in.Trace, fmt.Sprintf("%s/%d", name, len(args)))
	regs := make([]uint32, p.NVRegs)
	copy(regs, args)
	// Lay out stack slots below sp.
	slotAddr := make([]uint32, len(p.Slots))
	for i, s := range p.Slots {
		sz := uint32(s.Size+3) &^ 3
		sp -= sz
		slotAddr[i] = sp
	}
	bi := 0
	for {
		b := p.Blocks[bi]
		for i := range b.Instrs {
			if in.Fuel--; in.Fuel < 0 {
				return 0, ErrOutOfFuel
			}
			ins := &b.Instrs[i]
			switch ins.Kind {
			case KBin:
				regs[ins.Dst] = uir.EvalBin(ins.Op, regs[ins.A], regs[ins.B])
			case KUn:
				regs[ins.Dst] = uir.EvalUn(ins.Op, regs[ins.A])
			case KMovConst:
				regs[ins.Dst] = ins.Const
			case KMovReg:
				regs[ins.Dst] = regs[ins.A]
			case KAddrGlobal:
				a, ok := in.base[ins.Sym]
				if !ok {
					return 0, fmt.Errorf("mir: %s references unknown global %s", name, ins.Sym)
				}
				regs[ins.Dst] = a
			case KAddrStack:
				regs[ins.Dst] = slotAddr[ins.Const]
			case KLoad:
				var v uint32
				for k := uint8(0); k < ins.Size; k++ {
					v |= uint32(in.Mem[regs[ins.A]+uint32(k)]) << (8 * k)
				}
				regs[ins.Dst] = v
			case KStore:
				v := regs[ins.B]
				for k := uint8(0); k < ins.Size; k++ {
					in.Mem[regs[ins.A]+uint32(k)] = byte(v >> (8 * k))
				}
			case KCall:
				callArgs := make([]uint32, len(ins.Args))
				for k, a := range ins.Args {
					callArgs[k] = regs[a]
				}
				ret, err := in.call(ins.Sym, callArgs, sp)
				if err != nil {
					return 0, err
				}
				if ins.Dst != NoReg {
					regs[ins.Dst] = ret
				}
			}
		}
		switch b.Term.Kind {
		case TRet:
			if b.Term.RetVal == NoReg {
				return 0, nil
			}
			return regs[b.Term.RetVal], nil
		case TJump:
			bi = b.Term.True
		case TBranch:
			if regs[b.Term.Cond] != 0 {
				bi = b.Term.True
			} else {
				bi = b.Term.False
			}
		}
		if in.Fuel--; in.Fuel < 0 {
			return 0, ErrOutOfFuel
		}
	}
}
