// Package mir defines the compiler's target-independent mid-level IR.
//
// firmlang source is lowered to MIR (three-address code over unlimited
// virtual registers, explicit basic blocks), optimized, and then handed to
// one of the per-ISA backends in internal/isa. MIR reuses the operation
// vocabulary of internal/uir so that arithmetic semantics are defined in
// exactly one place.
package mir

import (
	"fmt"
	"maps"
	"strings"

	"firmup/internal/uir"
)

// VReg is a virtual register. Parameters occupy v0..v(NParams-1) on entry.
// NoReg marks an absent operand.
type VReg int32

// NoReg is the absent-register sentinel.
const NoReg VReg = -1

// InstrKind discriminates MIR instructions.
type InstrKind uint8

// Instruction kinds.
const (
	KBin        InstrKind = iota // Dst = Op(A, B)
	KUn                          // Dst = Op(A)
	KMovConst                    // Dst = Const
	KMovReg                      // Dst = A
	KAddrGlobal                  // Dst = &Sym
	KAddrStack                   // Dst = &slot[Const]
	KLoad                        // Dst = *(A) (Size bytes)
	KStore                       // *(A) = B (Size bytes)
	KCall                        // Dst = Sym(Args...); Dst may be NoReg
)

// Instr is a single three-address instruction.
type Instr struct {
	Kind  InstrKind
	Op    uir.Op // for KBin/KUn
	Dst   VReg
	A, B  VReg
	Const uint32
	Sym   string
	Size  uint8  // for KLoad/KStore: 1 or 4
	Args  []VReg // for KCall
}

// TermKind discriminates block terminators.
type TermKind uint8

// Terminator kinds.
const (
	TRet    TermKind = iota // return RetVal (or nothing when NoReg)
	TJump                   // goto True
	TBranch                 // if Cond != 0 goto True else goto False
)

// Term ends a basic block.
type Term struct {
	Kind   TermKind
	Cond   VReg
	True   int // block index
	False  int
	RetVal VReg
}

// Block is a MIR basic block.
type Block struct {
	ID     int
	Instrs []Instr
	Term   Term
}

// Slot describes one stack-allocated local array.
type Slot struct {
	Name string
	Size int // bytes
}

// Proc is a MIR procedure.
type Proc struct {
	Name    string
	NParams int
	NVRegs  int
	Blocks  []*Block
	Slots   []Slot
	Feature string
}

// NewVReg allocates a fresh virtual register.
func (p *Proc) NewVReg() VReg {
	v := VReg(p.NVRegs)
	p.NVRegs++
	return v
}

// Global is a package-level variable laid out in a data section.
type Global struct {
	Name string
	Data []byte
	RO   bool // read-only (string literals)
}

// Package is a compiled-to-MIR firmlang package.
type Package struct {
	Name    string
	Version string
	Globals []Global
	Procs   []*Proc
}

// Proc returns the procedure with the given name, or nil.
func (pkg *Package) Proc(name string) *Proc {
	for _, p := range pkg.Procs {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// String renders an instruction for debugging.
func (in Instr) String() string {
	switch in.Kind {
	case KBin:
		return fmt.Sprintf("v%d = %s v%d, v%d", in.Dst, in.Op, in.A, in.B)
	case KUn:
		return fmt.Sprintf("v%d = %s v%d", in.Dst, in.Op, in.A)
	case KMovConst:
		return fmt.Sprintf("v%d = 0x%x", in.Dst, in.Const)
	case KMovReg:
		return fmt.Sprintf("v%d = v%d", in.Dst, in.A)
	case KAddrGlobal:
		return fmt.Sprintf("v%d = &%s", in.Dst, in.Sym)
	case KAddrStack:
		return fmt.Sprintf("v%d = &slot%d", in.Dst, in.Const)
	case KLoad:
		return fmt.Sprintf("v%d = load%d [v%d]", in.Dst, in.Size, in.A)
	case KStore:
		return fmt.Sprintf("store%d [v%d] = v%d", in.Size, in.A, in.B)
	case KCall:
		args := make([]string, len(in.Args))
		for i, a := range in.Args {
			args[i] = fmt.Sprintf("v%d", a)
		}
		if in.Dst == NoReg {
			return fmt.Sprintf("call %s(%s)", in.Sym, strings.Join(args, ", "))
		}
		return fmt.Sprintf("v%d = call %s(%s)", in.Dst, in.Sym, strings.Join(args, ", "))
	}
	return "?"
}

// String renders a terminator for debugging.
func (t Term) String() string {
	switch t.Kind {
	case TRet:
		if t.RetVal == NoReg {
			return "ret"
		}
		return fmt.Sprintf("ret v%d", t.RetVal)
	case TJump:
		return fmt.Sprintf("jump b%d", t.True)
	default:
		return fmt.Sprintf("branch v%d ? b%d : b%d", t.Cond, t.True, t.False)
	}
}

// String renders the whole procedure.
func (p *Proc) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "proc %s (%d params, %d vregs)\n", p.Name, p.NParams, p.NVRegs)
	for _, b := range p.Blocks {
		fmt.Fprintf(&sb, "b%d:\n", b.ID)
		for _, in := range b.Instrs {
			fmt.Fprintf(&sb, "  %s\n", in)
		}
		fmt.Fprintf(&sb, "  %s\n", b.Term)
	}
	return sb.String()
}

// Uses returns the virtual registers read by the instruction.
func (in *Instr) Uses() []VReg {
	switch in.Kind {
	case KBin, KStore:
		return []VReg{in.A, in.B}
	case KUn, KMovReg, KLoad:
		return []VReg{in.A}
	case KCall:
		return in.Args
	}
	return nil
}

// MapUses replaces each register the instruction reads, r, by f(r) in
// place (a call's Args included), reporting whether any changed.
func (in *Instr) MapUses(f func(VReg) VReg) bool {
	changed := false
	set := func(r *VReg) {
		if n := f(*r); n != *r {
			*r = n
			changed = true
		}
	}
	switch in.Kind {
	case KBin, KStore:
		set(&in.A)
		set(&in.B)
	case KUn, KMovReg, KLoad:
		set(&in.A)
	case KCall:
		for k := range in.Args {
			set(&in.Args[k])
		}
	}
	return changed
}

// HasCall reports whether any block of the procedure calls.
func (p *Proc) HasCall() bool {
	for _, b := range p.Blocks {
		for _, in := range b.Instrs {
			if in.Kind == KCall {
				return true
			}
		}
	}
	return false
}

// Def returns the register defined by the instruction, or NoReg.
func (in *Instr) Def() VReg {
	if in.Kind == KStore {
		return NoReg
	}
	return in.Dst
}

// Succs returns successor block IDs of the terminator.
func (t Term) Succs() []int {
	switch t.Kind {
	case TJump:
		return []int{t.True}
	case TBranch:
		return []int{t.True, t.False}
	}
	return nil
}

// Uses returns the virtual registers read by the terminator: a branch's
// Cond, a return's RetVal.
func (t Term) Uses() []VReg {
	switch {
	case t.Kind == TBranch:
		return []VReg{t.Cond}
	case t.Kind == TRet && t.RetVal != NoReg:
		return []VReg{t.RetVal}
	}
	return nil
}

// LiveIn returns, per block index, the set of registers live on entry to
// the block, computed by backward iteration to a fixed point.
func (p *Proc) LiveIn() []map[VReg]bool {
	liveIn := make([]map[VReg]bool, len(p.Blocks))
	for i := range liveIn {
		liveIn[i] = map[VReg]bool{}
	}
	for changed := true; changed; {
		changed = false
		for bi := len(p.Blocks) - 1; bi >= 0; bi-- {
			live := p.LiveOut(liveIn, bi)
			instrs := p.Blocks[bi].Instrs
			for i := len(instrs) - 1; i >= 0; i-- {
				in := &instrs[i]
				if d := in.Def(); d != NoReg {
					delete(live, d)
				}
				for _, u := range in.Uses() {
					live[u] = true
				}
			}
			if !maps.Equal(liveIn[bi], live) {
				liveIn[bi] = live
				changed = true
			}
		}
	}
	return liveIn
}

// LiveOut returns a fresh set of the registers live at the end of block
// bi, given every block's live-in set: its successors' live-in registers
// and those its terminator reads.
func (p *Proc) LiveOut(liveIn []map[VReg]bool, bi int) map[VReg]bool {
	t := p.Blocks[bi].Term
	live := map[VReg]bool{}
	for _, s := range t.Succs() {
		maps.Copy(live, liveIn[s])
	}
	for _, u := range t.Uses() {
		live[u] = true
	}
	return live
}

// Validate checks structural invariants: block IDs match indices,
// terminator targets are in range, all registers are allocated, and every
// use is dominated by a def on some path (approximated as "defined
// somewhere", since lowering guarantees proper dominance).
func (p *Proc) Validate() error {
	defined := make([]bool, p.NVRegs)
	for i := 0; i < p.NParams; i++ {
		if i >= p.NVRegs {
			return fmt.Errorf("proc %s: param v%d beyond NVRegs %d", p.Name, i, p.NVRegs)
		}
		defined[i] = true
	}
	for i, b := range p.Blocks {
		if b.ID != i {
			return fmt.Errorf("proc %s: block at index %d has ID %d", p.Name, i, b.ID)
		}
		for _, t := range b.Term.Succs() {
			if t < 0 || t >= len(p.Blocks) {
				return fmt.Errorf("proc %s: block %d jumps to invalid block %d", p.Name, i, t)
			}
		}
		if b.Term.Kind == TBranch && !valid(b.Term.Cond, p.NVRegs) {
			return fmt.Errorf("proc %s: block %d branch on invalid v%d", p.Name, i, b.Term.Cond)
		}
		if b.Term.Kind == TRet && b.Term.RetVal != NoReg && !valid(b.Term.RetVal, p.NVRegs) {
			return fmt.Errorf("proc %s: block %d returns invalid v%d", p.Name, i, b.Term.RetVal)
		}
		for _, in := range b.Instrs {
			for _, u := range in.Uses() {
				if !valid(u, p.NVRegs) {
					return fmt.Errorf("proc %s: block %d: %s uses invalid register", p.Name, i, in.String())
				}
			}
			if d := in.Def(); d != NoReg {
				if !valid(d, p.NVRegs) {
					return fmt.Errorf("proc %s: block %d: %s defines invalid register", p.Name, i, in.String())
				}
				defined[d] = true
			}
			if in.Kind == KAddrStack && int(in.Const) >= len(p.Slots) {
				return fmt.Errorf("proc %s: block %d references missing slot %d", p.Name, i, in.Const)
			}
			if (in.Kind == KLoad || in.Kind == KStore) && in.Size != 1 && in.Size != 4 {
				return fmt.Errorf("proc %s: block %d: bad access size %d", p.Name, i, in.Size)
			}
		}
	}
	for i, b := range p.Blocks {
		for _, in := range b.Instrs {
			for _, u := range in.Uses() {
				if !defined[u] {
					return fmt.Errorf("proc %s: block %d uses v%d which is never defined", p.Name, i, u)
				}
			}
		}
	}
	return nil
}

func valid(v VReg, n int) bool { return v >= 0 && int(v) < n }
