// Package uir defines the micro intermediate representation (UIR) that
// machine code is lifted into before strand extraction.
//
// UIR plays the role VEX-IR plays in the FirmUp paper: a small, explicit,
// side-effect-complete representation of 32-bit machine state. Every
// architectural effect of an instruction — including condition flags and
// the program counter — appears as an explicit statement, and every
// intermediate value is held in a single-assignment temporary, so basic
// blocks are in SSA form by construction (a property Algorithm 1 of the
// paper relies on).
package uir

import (
	"fmt"
	"strings"
)

// Arch identifies the source architecture of lifted code.
type Arch uint8

// Architectures supported by the lifters, matching the four prevalent
// embedded architectures evaluated in the paper.
const (
	ArchNone Arch = iota
	ArchMIPS32
	ArchARM32
	ArchPPC32
	ArchX86
)

// String returns the conventional lowercase name of the architecture.
func (a Arch) String() string {
	switch a {
	case ArchMIPS32:
		return "mips32"
	case ArchARM32:
		return "arm32"
	case ArchPPC32:
		return "ppc32"
	case ArchX86:
		return "x86"
	default:
		return "none"
	}
}

// Temp is an SSA temporary. Each Temp is assigned exactly once within a
// basic block; lifters allocate them densely from zero.
type Temp int32

// Reg names an architectural register in the lifter's arch-specific
// namespace. Condition flags and other implicit state are registers too.
type Reg uint16

// ConstKind classifies constants so the canonicalizer can perform offset
// elimination: constants that point into the binary's code or data
// sections are abstracted away, while plain integers (including stack and
// struct offsets, which the paper deliberately retains) are kept.
type ConstKind uint8

const (
	// ConstPlain is an ordinary integer constant.
	ConstPlain ConstKind = iota
	// ConstCode is an address inside the text section (jump/call target).
	ConstCode
	// ConstData is an address inside a static data section.
	ConstData
)

// Operand is either an SSA temporary or an immediate constant. The two
// one-byte fields come last so the struct packs into 12 bytes; a Stmt
// carries three.
type Operand struct {
	Temp    Temp
	Val     uint32
	IsConst bool
	Kind    ConstKind
}

// T returns a temporary operand.
func T(t Temp) Operand { return Operand{Temp: t} }

// C returns a plain constant operand.
func C(v uint32) Operand { return Operand{IsConst: true, Val: v} }

// CK returns a constant operand with an explicit kind.
func CK(v uint32, k ConstKind) Operand { return Operand{IsConst: true, Val: v, Kind: k} }

// String renders the operand for debugging.
func (o Operand) String() string {
	if !o.IsConst {
		return fmt.Sprintf("t%d", o.Temp)
	}
	switch o.Kind {
	case ConstCode:
		return fmt.Sprintf("code:0x%x", o.Val)
	case ConstData:
		return fmt.Sprintf("data:0x%x", o.Val)
	default:
		return fmt.Sprintf("0x%x", o.Val)
	}
}

// Op enumerates UIR operations. All arithmetic is 32-bit with wraparound;
// comparison ops produce 0 or 1.
type Op uint8

// Binary and unary operations.
const (
	OpAdd Op = iota
	OpSub
	OpMul
	OpDivU
	OpDivS
	OpRemU
	OpRemS
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShrU // logical shift right
	OpShrS // arithmetic shift right
	OpCmpEQ
	OpCmpNE
	OpCmpLTU
	OpCmpLTS
	OpCmpLEU
	OpCmpLES
	// Unary.
	OpNot  // bitwise complement
	OpNeg  // two's complement negation
	OpBool // normalize to 0/1 (x != 0)
	OpSext8
	OpSext16
	OpZext8
	OpZext16

	opCount // sentinel
)

var opNames = [...]string{
	OpAdd: "add", OpSub: "sub", OpMul: "mul",
	OpDivU: "udiv", OpDivS: "sdiv", OpRemU: "urem", OpRemS: "srem",
	OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpShl: "shl", OpShrU: "lshr", OpShrS: "ashr",
	OpCmpEQ: "icmp.eq", OpCmpNE: "icmp.ne",
	OpCmpLTU: "icmp.ult", OpCmpLTS: "icmp.slt",
	OpCmpLEU: "icmp.ule", OpCmpLES: "icmp.sle",
	OpNot: "not", OpNeg: "neg", OpBool: "bool",
	OpSext8: "sext8", OpSext16: "sext16",
	OpZext8: "zext8", OpZext16: "zext16",
}

// String returns the mnemonic for the operation.
func (op Op) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// IsCommutative reports whether operand order is semantically irrelevant.
func (op Op) IsCommutative() bool {
	switch op {
	case OpAdd, OpMul, OpAnd, OpOr, OpXor, OpCmpEQ, OpCmpNE:
		return true
	}
	return false
}

// IsCompare reports whether the op is a comparison producing 0/1.
func (op Op) IsCompare() bool { return op >= OpCmpEQ && op <= OpCmpLES }

// StmtKind tags a statement with its operation.
type StmtKind uint8

// Statement kinds. The zero value is not a statement.
const (
	// StmtGet reads architectural register Reg into Dst.
	StmtGet StmtKind = iota + 1
	// StmtPut writes A to architectural register Reg.
	StmtPut
	// StmtLoad reads Size bytes (1, 2 or 4) at address A, zero-extended
	// into Dst.
	StmtLoad
	// StmtStore writes the low Size bytes of B to address A.
	StmtStore
	// StmtBin computes Dst = Op(A, B).
	StmtBin
	// StmtUn computes Dst = Op(A).
	StmtUn
	// StmtMov copies A into Dst (constant materialization or copy).
	StmtMov
	// StmtSel sets Dst to A when C is non-zero, else to B (conditional
	// move; used by lifters for predicated instructions such as ARM's
	// movCC).
	StmtSel
	// StmtCall transfers control to the procedure at A (ConstCode for
	// direct calls, a temp for indirect ones). Per the target ABI it
	// implicitly reads the argument registers and writes the return-value
	// register and the caller-saved set; the strand extractor consults
	// the ABI for these.
	StmtCall
	// StmtExit is a control transfer of kind Exit to A (ConstCode, or a
	// temp for ExitIndir; unused by ExitRet). For ExitCond, control goes
	// to A when C is non-zero and falls through otherwise.
	StmtExit
)

// ExitKind distinguishes the control transfers that terminate (or appear
// inside, for conditional exits) a basic block.
type ExitKind uint8

// Exit kinds.
const (
	ExitJump  ExitKind = iota // unconditional branch
	ExitCond                  // conditional branch (C significant)
	ExitRet                   // procedure return
	ExitIndir                 // indirect jump through a temp
)

// Stmt is a single UIR statement: one value type for every kind, tagged
// by Kind, each kind reading the fields its constant's comment names and
// leaving the rest zero. C is only ever a condition. The struct holds no
// pointer, so a []Stmt — the per-executable arena every lifted block is a
// subslice of — is memory the garbage collector never scans, and emitting
// a statement allocates nothing. isa.LiftBuilder is the constructor.
type Stmt struct {
	Kind StmtKind
	Op   Op       // StmtBin, StmtUn
	Size uint8    // StmtLoad, StmtStore
	Exit ExitKind // StmtExit
	Reg  Reg      // StmtGet, StmtPut
	Dst  Temp     // the temporary defined, for the kinds that define one
	A, B Operand
	C    Operand
}

// String renders the statement for debugging.
func (s Stmt) String() string {
	switch s.Kind {
	case StmtGet:
		return fmt.Sprintf("t%d = get r%d", s.Dst, s.Reg)
	case StmtPut:
		return fmt.Sprintf("put r%d = %s", s.Reg, s.A)
	case StmtLoad:
		return fmt.Sprintf("t%d = load%d %s", s.Dst, s.Size, s.A)
	case StmtStore:
		return fmt.Sprintf("store%d %s = %s", s.Size, s.A, s.B)
	case StmtBin:
		return fmt.Sprintf("t%d = %s %s, %s", s.Dst, s.Op, s.A, s.B)
	case StmtUn:
		return fmt.Sprintf("t%d = %s %s", s.Dst, s.Op, s.A)
	case StmtMov:
		return fmt.Sprintf("t%d = %s", s.Dst, s.A)
	case StmtSel:
		return fmt.Sprintf("t%d = select %s ? %s : %s", s.Dst, s.C, s.A, s.B)
	case StmtCall:
		return fmt.Sprintf("call %s", s.A)
	case StmtExit:
		switch s.Exit {
		case ExitJump:
			return fmt.Sprintf("jump %s", s.A)
		case ExitCond:
			return fmt.Sprintf("if %s jump %s", s.C, s.A)
		case ExitRet:
			return "ret"
		default:
			return fmt.Sprintf("ijump %s", s.A)
		}
	}
	return fmt.Sprintf("stmt(%d)", uint8(s.Kind))
}

// stmtUse says which fields a statement touches: the operands it reads
// — C, then A, then B, the order they are evaluated in — and whether it
// defines Dst.
type stmtUse uint8

const (
	useC stmtUse = 1 << iota
	useA
	useB
	defDst
)

var kindUse = [256]stmtUse{
	StmtGet: defDst, StmtPut: useA, StmtLoad: useA | defDst, StmtStore: useA | useB,
	StmtBin: useA | useB | defDst, StmtUn: useA | defDst, StmtMov: useA | defDst,
	StmtSel: useC | useA | useB | defDst, StmtCall: useA,
}

// use returns the statement's stmtUse; zero for anything but a StmtExit
// means the kind is unknown.
func (s *Stmt) use() stmtUse {
	switch {
	case s.Kind != StmtExit:
		return kindUse[s.Kind]
	case s.Exit == ExitCond:
		return useC | useA
	case s.Exit == ExitRet:
		return 0
	}
	return useA
}

// Block is one lifted basic block: the statements for all instructions in
// the block, in order, plus the block's address range in the text section.
type Block struct {
	Addr  uint32 // address of the first instruction
	Size  uint32 // byte length of the block
	Stmts []Stmt
}

// Succs appends the statically-known successor addresses of the block to
// dst (so a walk over many blocks can reuse one buffer) and returns it:
// conditional-exit targets, the final jump target, and the fallthrough
// address where applicable.
func (b *Block) Succs(dst []uint32) []uint32 {
	fall := true
	for i := range b.Stmts {
		s := &b.Stmts[i]
		if s.Kind != StmtExit {
			continue
		}
		if (s.Exit == ExitCond || s.Exit == ExitJump) && s.A.IsConst {
			dst = append(dst, s.A.Val)
		}
		fall = fall && s.Exit == ExitCond
	}
	if fall {
		dst = append(dst, b.Addr+b.Size)
	}
	return dst
}

// String renders the block, one statement per line.
func (b *Block) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "block 0x%x (%d bytes)\n", b.Addr, b.Size)
	for i := range b.Stmts {
		sb.WriteString("  ")
		sb.WriteString(b.Stmts[i].String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// ABI describes the calling convention the lifter assumed, consumed by
// strand extraction (argument/return registers, stack pointer for the
// offset-retention rule) and by Call effect modeling.
type ABI struct {
	Arch    Arch
	ArgRegs []Reg // integer argument registers, in order
	RetReg  Reg   // return-value register
	SP      Reg   // stack pointer
	LinkReg Reg   // return-address register (0xFFFF if pushed on stack)
	Scratch []Reg // caller-saved registers clobbered by calls
	// StatusRegs lists condition-flag pseudo registers; they are
	// excluded from strand bases (flag updates are consumed in-block).
	StatusRegs []Reg
}

// Status returns the condition-flag registers (nil-safe).
func (a *ABI) Status() []Reg {
	if a == nil {
		return nil
	}
	return a.StatusRegs
}

// NoLinkReg marks ABIs whose return address lives on the stack (x86).
const NoLinkReg Reg = 0xFFFF

// Validate performs internal-consistency checks used by tests and the
// lifter self-checks: SSA single assignment and no use of an undefined
// temporary.
func (b *Block) Validate() error {
	defined := map[Temp]bool{}
	for i := range b.Stmts {
		s := &b.Stmts[i]
		u := s.use()
		if u == 0 && s.Kind != StmtExit {
			return fmt.Errorf("block 0x%x: unknown statement kind %d", b.Addr, s.Kind)
		}
		for _, r := range [...]struct {
			read stmtUse
			o    Operand
		}{{useC, s.C}, {useA, s.A}, {useB, s.B}} {
			if u&r.read != 0 && !r.o.IsConst && !defined[r.o.Temp] {
				return fmt.Errorf("block 0x%x: use of undefined temp t%d", b.Addr, r.o.Temp)
			}
		}
		if u&defDst != 0 {
			if defined[s.Dst] {
				return fmt.Errorf("block 0x%x: temp t%d assigned twice (SSA violation)", b.Addr, s.Dst)
			}
			defined[s.Dst] = true
		}
	}
	return nil
}
