// Package isa hosts the machine layer: per-architecture backends that
// turn MIR into encoded machine code (codegen + assembler) and back into
// UIR (disassembler + lifter), plus the shared register allocator,
// scheduler and layout driver they all use.
//
// The four backends — mips, arm, ppc and x86 — model the four prevalent
// embedded architectures the paper evaluates. They are synthetic ISAs,
// faithful in spirit: fixed 32-bit big-endian words with branch delay
// slots for MIPS, condition flags and a link register for ARM, cr0-based
// compares for PPC, and variable-length two-operand encodings with EFLAGS
// and stack-passed arguments for x86.
package isa

import (
	"fmt"
	"sort"

	"firmup/internal/mir"
	"firmup/internal/uir"
)

// Options are the codegen-side tool chain knobs (see compiler.Profile).
type Options struct {
	// TextBase is the load address of the text section.
	TextBase uint32
	// RegSeed permutes register-allocation preference order.
	RegSeed uint64
	// SchedSeed perturbs within-block instruction scheduling.
	SchedSeed uint64
	// MulByShift lowers multiplication by a power of two to a shift.
	MulByShift bool
	// ShuffleProcs permutes procedure layout order.
	ShuffleProcs bool
	// FillDelaySlots makes delay-slot architectures (MIPS) hoist the
	// preceding instruction into branch/call delay slots when safe,
	// instead of padding with a nop — the tool-chain behavior behind the
	// paper's delay-slot lifting caveat (the first instruction of the
	// following block ends up attached to the branch).
	FillDelaySlots bool
}

// Sym is a named address range inside an artifact section.
type Sym struct {
	Name string
	Addr uint32
	Size uint32
}

// Artifact is the output of code generation for one package: encoded text
// and data with symbol tables, prior to container packaging.
type Artifact struct {
	Arch     uir.Arch
	TextBase uint32
	Text     []byte
	DataBase uint32
	Data     []byte
	Procs    []Sym
	Globals  []Sym
}

// ProcSym returns the symbol for a procedure, if present.
func (a *Artifact) ProcSym(name string) (Sym, bool) {
	for _, s := range a.Procs {
		if s.Name == name {
			return s, true
		}
	}
	return Sym{}, false
}

// GlobalSym returns the symbol for a global, if present.
func (a *Artifact) GlobalSym(name string) (Sym, bool) {
	for _, s := range a.Globals {
		if s.Name == name {
			return s, true
		}
	}
	return Sym{}, false
}

// InstKind classifies decoded instructions for CFG recovery.
type InstKind uint8

// Decoded-instruction kinds.
const (
	KindNormal     InstKind = iota
	KindJump                // unconditional direct jump
	KindCondBranch          // conditional direct branch (falls through otherwise)
	KindCall                // direct call
	KindRet                 // procedure return
	KindIndirect            // indirect jump
)

// Inst is one decoded machine instruction, the unit shared by the CFG
// recoverer, the lifter and disassembly dumps. Decode classifies without
// rendering assembly text — decoding sits on the analysis hot path and
// the front end never reads the text; call Disasm to materialize it.
type Inst struct {
	Addr   uint32
	Size   uint32
	Raw    uint64 // raw bits (up to 8 bytes for x86)
	Kind   InstKind
	Target uint32 // branch/call destination for direct transfers
	// HasDelay is set on MIPS branches: the following instruction
	// executes before the transfer and belongs to this block.
	HasDelay bool
}

// Backend is one target architecture: code generation, decoding,
// lifting and disassembly. A backend package supplies Decode, Lift and
// Disasm and embeds a Base for the rest.
type Backend interface {
	// Arch identifies the architecture.
	Arch() uir.Arch
	// ABI describes the calling convention the backend implements.
	ABI() *uir.ABI
	// Generate compiles a MIR package to an artifact.
	Generate(pkg *mir.Package, opt Options) (*Artifact, error)
	// Decode decodes the instruction at text[off:]; addr is its address.
	Decode(text []byte, off int, addr uint32) (Inst, error)
	// Lift appends the UIR statements for inst to lb.
	Lift(inst Inst, lb *LiftBuilder) error
	// Disasm renders the assembly text of an instruction previously
	// returned by Decode. Decoding does not produce the text (it would be
	// pure overhead for analysis); dumps and traces call this for it.
	Disasm(in Inst) string
	// MinInstSize is the smallest legal instruction length, used by
	// recovery sweeps.
	MinInstSize() uint32
}

// Base implements the Backend methods that follow from a Desc: the
// architecture's identity and Generate.
type Base struct{ Desc *Desc }

// Arch implements Backend.
func (b Base) Arch() uir.Arch { return b.Desc.ABI.Arch }

// ABI implements Backend.
func (b Base) ABI() *uir.ABI { return b.Desc.ABI }

// MinInstSize implements Backend.
func (b Base) MinInstSize() uint32 { return b.Desc.MinInstSize }

// Generate implements Backend.
func (b Base) Generate(pkg *mir.Package, opt Options) (*Artifact, error) {
	return generate(pkg, b.Desc, opt)
}

var registry = map[uir.Arch]Backend{}

// Register installs a backend; called from subpackage init functions.
func Register(b Backend) { registry[b.Arch()] = b }

// ByArch returns the backend for arch.
func ByArch(a uir.Arch) (Backend, error) {
	b, ok := registry[a]
	if !ok {
		return nil, fmt.Errorf("isa: no backend registered for %v", a)
	}
	return b, nil
}

// LiftBuilder is the constructor of UIR statements: it appends the
// statements a lifter emits to Stmts and allocates the SSA temporaries
// they define. The zero value is ready to use. One builder can serve
// every block of an executable — NewBlock starts each — so that Stmts is
// the executable's statement arena and a block is a subslice of it.
type LiftBuilder struct {
	Stmts []uir.Stmt
	next  uir.Temp
}

// NewBlock starts the next basic block after the ones already in Stmts
// and returns its offset there: temporaries are block-local and number
// from zero again.
func (lb *LiftBuilder) NewBlock() int {
	lb.next = 0
	return len(lb.Stmts)
}

// def appends a statement that defines a fresh temporary and returns it.
func (lb *LiftBuilder) def(s uir.Stmt) uir.Temp {
	s.Dst = lb.next
	lb.next++
	lb.Stmts = append(lb.Stmts, s)
	return s.Dst
}

// GetReg emits a register read and returns the temp.
func (lb *LiftBuilder) GetReg(r uir.Reg) uir.Temp {
	return lb.def(uir.Stmt{Kind: uir.StmtGet, Reg: r})
}

// PutReg emits a register write.
func (lb *LiftBuilder) PutReg(r uir.Reg, src uir.Operand) {
	lb.Stmts = append(lb.Stmts, uir.Stmt{Kind: uir.StmtPut, Reg: r, A: src})
}

// Load emits a size-byte memory read and returns the result temp.
func (lb *LiftBuilder) Load(addr uir.Operand, size uint8) uir.Temp {
	return lb.def(uir.Stmt{Kind: uir.StmtLoad, Size: size, A: addr})
}

// Store emits a write of the low size bytes of src to memory.
func (lb *LiftBuilder) Store(addr, src uir.Operand, size uint8) {
	lb.Stmts = append(lb.Stmts, uir.Stmt{Kind: uir.StmtStore, Size: size, A: addr, B: src})
}

// Bin emits a binary op and returns the result temp.
func (lb *LiftBuilder) Bin(op uir.Op, a, b uir.Operand) uir.Temp {
	return lb.def(uir.Stmt{Kind: uir.StmtBin, Op: op, A: a, B: b})
}

// Un emits a unary op and returns the result temp.
func (lb *LiftBuilder) Un(op uir.Op, a uir.Operand) uir.Temp {
	return lb.def(uir.Stmt{Kind: uir.StmtUn, Op: op, A: a})
}

// Sel emits a select — a when cond is non-zero, else b — and returns the
// result temp.
func (lb *LiftBuilder) Sel(cond, a, b uir.Operand) uir.Temp {
	return lb.def(uir.Stmt{Kind: uir.StmtSel, C: cond, A: a, B: b})
}

// Call emits a procedure call.
func (lb *LiftBuilder) Call(target uir.Operand) {
	lb.Stmts = append(lb.Stmts, uir.Stmt{Kind: uir.StmtCall, A: target})
}

// Exit emits a control transfer. cond is read by ExitCond only, and
// target by every kind but ExitRet; pass the zero Operand for the rest.
func (lb *LiftBuilder) Exit(kind uir.ExitKind, cond, target uir.Operand) {
	lb.Stmts = append(lb.Stmts, uir.Stmt{Kind: uir.StmtExit, Exit: kind, C: cond, A: target})
}

// RNG is the deterministic PRNG (splitmix64) behind the seeded
// tool-chain perturbations and the corpus generator; math/rand would also
// do, but a local implementation keeps streams stable across Go releases.
type RNG struct{ s uint64 }

// NewRNG returns a generator whose stream is fixed by seed.
func NewRNG(seed uint64) *RNG { return &RNG{s: seed + 0x9E3779B97F4A7C15} }

// Next returns the next 64 bits of the stream.
func (r *RNG) Next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Intn returns a value in [0, n).
func (r *RNG) Intn(n int) int { return int(r.Next() % uint64(n)) }

// permuteRegs returns a seeded permutation of regs (seed 0 = identity).
func permuteRegs(regs []uir.Reg, seed uint64) []uir.Reg {
	out := make([]uir.Reg, len(regs))
	for i, j := range shuffleOrder(len(regs), seed) {
		out[i] = regs[j]
	}
	return out
}

// shuffleOrder returns a seeded permutation of 0..n-1.
func shuffleOrder(n int, seed uint64) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	if seed == 0 {
		return out
	}
	r := NewRNG(seed)
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// sortSyms orders symbols by address; recovery code expects this.
func sortSyms(syms []Sym) {
	sort.Slice(syms, func(i, j int) bool { return syms[i].Addr < syms[j].Addr })
}
