package isa

import (
	"encoding/binary"
	"fmt"

	"firmup/internal/mir"
	"firmup/internal/uir"
)

// Desc is the one description a backend gives of itself: everything the
// shared driver needs beyond the backend's own encodings.
type Desc struct {
	// ABI is the calling convention; its Arch names the architecture.
	ABI *uir.ABI
	// MinInstSize is the smallest legal instruction length.
	MinInstSize uint32
	// Order is the byte order of Prog.Word.
	Order binary.AppendByteOrder
	// Alloc lists registers available for virtual-register assignment.
	// By driver convention they are callee-saved: the prologue saves the
	// used subset.
	Alloc []uir.Reg
	// Scratch are two registers reserved for spill reloads and address
	// arithmetic; never allocated.
	Scratch [2]uir.Reg
	// NewEmitter returns the instruction selector appending to p.
	NewEmitter func(p *Prog, opt Options) Emitter
	// Patch rewrites the placeholder encoding of a fixup in format at
	// buf[off:] once its target address is known; instAddr is the
	// address of the instruction at off.
	Patch func(buf []byte, off int, format uint8, instAddr, target uint32) error
}

// RegSave pairs a callee-saved register with its frame offset.
type RegSave struct {
	Reg uir.Reg
	Off int32
}

// Frame describes the stack frame the emitter's prologue/epilogue must
// realize. The stack grows down; offsets are from the post-adjustment SP.
type Frame struct {
	Size     int32
	Saves    []RegSave
	SaveLink bool
	LinkOff  int32
}

// Emitter is the per-backend instruction selector. The driver calls it
// with physical registers only; all spill and stack-argument traffic is
// made explicit by the driver through Load/Store against SP.
type Emitter interface {
	Prologue(f Frame)
	// Epilogue restores saved state, unwinds the frame and returns.
	Epilogue(f Frame)
	MovConst(dst uir.Reg, v uint32)
	MovReg(dst, src uir.Reg)
	Bin(op uir.Op, dst, a, b uir.Reg)
	Un(op uir.Op, dst, a uir.Reg)
	ShiftImm(op uir.Op, dst, a uir.Reg, k uint8)
	Load(dst, base uir.Reg, off int32, size uint8)
	Store(base uir.Reg, off int32, src uir.Reg, size uint8)
	// AddrAdd computes dst = base + off (frame addresses).
	AddrAdd(dst, base uir.Reg, off int32)
	// AddrGlobal materializes the (fixed-up later) address of sym.
	AddrGlobal(dst uir.Reg, sym string)
	CallSym(sym string)
	JumpBlock(b int)
	// CmpBranch branches to trueB when `a op b` holds.
	CmpBranch(op uir.Op, a, b uir.Reg, trueB int)
	// CondBranch branches to trueB when cond != 0.
	CondBranch(cond uir.Reg, trueB int)
}

// Prog accumulates encoded bytes plus the current procedure's block
// offsets and the fixups to resolve. Emitters append to it.
type Prog struct {
	Buf      []byte
	BlockOff map[int]int
	Fixups   []Fixup
	// Mark is the offset of the latest MarkBlock.
	Mark int
	// Order is the byte order of Word.
	Order binary.AppendByteOrder
}

// MarkBlock records that block id starts at the current offset.
func (p *Prog) MarkBlock(id int) {
	p.BlockOff[id] = len(p.Buf)
	p.Mark = len(p.Buf)
}

// Fixup records that the instruction emitted next is patched in format
// once its target — sym, or block when sym is empty — is placed.
func (p *Prog) Fixup(block int, sym string, format uint8) {
	p.Fixups = append(p.Fixups, Fixup{Off: len(p.Buf), Block: block, Sym: sym, Format: format})
}

// Word appends a 32-bit word in the target's byte order.
func (p *Prog) Word(w uint32) { p.Buf = p.Order.AppendUint32(p.Buf, w) }

// Fixup kinds: block-relative (resolved per procedure) or symbol
// (resolved at link).
type Fixup struct {
	Off    int    // offset of the instruction needing the patch
	Block  int    // target block when Sym is empty
	Sym    string // call or global symbol otherwise
	Format uint8  // backend-specific patch format
}

// epilogueBlock is the pseudo block id used for return jumps.
const epilogueBlock = -1

// argOff is the SP offset at which a caller stores outgoing stack
// argument i: below its SP, in memory the callee's frame then covers.
func argOff(i int) int32 { return -4 * int32(i+1) }

// maxRegParams bounds procedure arity for register-argument ABIs.
const maxRegParams = 4

// generate is the shared code-generation driver behind Base.Generate.
func generate(pkg *mir.Package, d *Desc, opt Options) (*Artifact, error) {
	art := &Artifact{Arch: d.ABI.Arch, TextBase: opt.TextBase}
	text := &Prog{BlockOff: map[int]int{}, Order: d.Order}
	em := d.NewEmitter(text, opt)

	var orderSeed uint64 // 0 keeps source order
	if opt.ShuffleProcs {
		orderSeed = opt.RegSeed ^ 0xA5A5
	}
	order := shuffleOrder(len(pkg.Procs), orderSeed)

	var symFixups []Fixup
	for _, pi := range order {
		p := pkg.Procs[pi]
		start := len(text.Buf)
		text.BlockOff = map[int]int{}
		text.Fixups = text.Fixups[:0]
		if err := genProc(p, d, em, text, opt); err != nil {
			return nil, fmt.Errorf("isa: %s: %w", p.Name, err)
		}
		// Resolve block fixups now; keep symbol fixups for the link pass.
		for _, f := range text.Fixups {
			if f.Sym != "" {
				symFixups = append(symFixups, f)
				continue
			}
			toff, ok := text.BlockOff[f.Block]
			if !ok {
				return nil, fmt.Errorf("isa: %s: fixup to unemitted block %d", p.Name, f.Block)
			}
			instAddr := opt.TextBase + uint32(f.Off)
			target := opt.TextBase + uint32(toff)
			if err := d.Patch(text.Buf, f.Off, f.Format, instAddr, target); err != nil {
				return nil, fmt.Errorf("isa: %s: %w", p.Name, err)
			}
		}
		art.Procs = append(art.Procs, Sym{Name: p.Name, Addr: opt.TextBase + uint32(start), Size: uint32(len(text.Buf) - start)})
	}

	// Lay out data after text on a page boundary.
	art.Text = text.Buf
	art.DataBase = (opt.TextBase + uint32(len(art.Text)) + 0xFFF) &^ 0xFFF
	addr := art.DataBase
	for _, g := range pkg.Globals {
		art.Globals = append(art.Globals, Sym{Name: g.Name, Addr: addr, Size: uint32(len(g.Data))})
		art.Data = append(art.Data, g.Data...)
		addr += uint32(len(g.Data))
		if pad := (4 - addr%4) % 4; pad != 0 {
			art.Data = append(art.Data, make([]byte, pad)...)
			addr += pad
		}
	}

	// Link: resolve calls and global references.
	for _, f := range symFixups {
		var target uint32
		if s, ok := art.ProcSym(f.Sym); ok {
			target = s.Addr
		} else if s, ok := art.GlobalSym(f.Sym); ok {
			target = s.Addr
		} else {
			return nil, fmt.Errorf("isa: unresolved symbol %q", f.Sym)
		}
		instAddr := opt.TextBase + uint32(f.Off)
		if err := d.Patch(art.Text, f.Off, f.Format, instAddr, target); err != nil {
			return nil, err
		}
	}
	sortSyms(art.Procs)
	sortSyms(art.Globals)
	return art, nil
}

// assignment maps each vreg to a physical register or a spill slot.
type assignment struct {
	reg      map[mir.VReg]uir.Reg
	spill    map[mir.VReg]int32 // frame offset
	spillIdx []mir.VReg         // spilled vregs in allocation order
	slotOff  []int32            // MIR stack-array slot offsets
}

func (a *assignment) loc(v mir.VReg) (uir.Reg, bool) {
	r, ok := a.reg[v]
	return r, ok
}

// genProc emits one procedure.
func genProc(p *mir.Proc, d *Desc, em Emitter, prog *Prog, opt Options) error {
	abi := d.ABI
	regArgs := len(abi.ArgRegs) > 0
	if regArgs && p.NParams > maxRegParams {
		return fmt.Errorf("%d parameters exceed the %d register-argument limit", p.NParams, maxRegParams)
	}
	asn, spillCount := allocateRegs(p, permuteRegs(d.Alloc, opt.RegSeed))

	// Frame layout (offsets from post-adjust SP, stack grows down):
	//   [0, 4*spillCount)           spill slots
	//   [slotBase, slotBase+slots)  MIR stack arrays
	//   [saveBase, ...)             callee-saved registers + link
	spillBase := int32(0)
	slotBase := spillBase + 4*int32(spillCount)
	slotOff := make([]int32, len(p.Slots))
	off := slotBase
	for i, s := range p.Slots {
		slotOff[i] = off
		off += int32((s.Size + 3) &^ 3)
	}
	usedRegs := usedAllocRegs(asn, d.Alloc)
	var saves []RegSave
	for _, r := range usedRegs {
		saves = append(saves, RegSave{Reg: r, Off: off})
		off += 4
	}
	saveLink := p.HasCall() && abi.LinkReg != uir.NoLinkReg
	linkOff := off
	if saveLink {
		off += 4
	}
	// Stack-argument ABIs pass arguments in the red zone below the
	// caller's SP — memory that becomes the top of this frame once the
	// prologue adjusts SP. Reserve it so saves and spills don't collide
	// with the incoming arguments.
	if !regArgs && off > 0 {
		off += 4 * maxRegParams
	}
	frame := Frame{Size: (off + 7) &^ 7, Saves: saves, SaveLink: saveLink, LinkOff: linkOff}
	for i := range asn.spillIdx {
		asn.spill[asn.spillIdx[i]] = spillBase + 4*int32(i)
	}
	asn.slotOff = slotOff

	em.Prologue(frame)

	s0, s1 := d.Scratch[0], d.Scratch[1]
	// Home incoming parameters.
	for i := 0; i < p.NParams; i++ {
		v := mir.VReg(i)
		var src uir.Reg
		if regArgs {
			src = abi.ArgRegs[i]
		} else {
			em.Load(s0, abi.SP, frame.Size+argOff(i), 4)
			src = s0
		}
		if r, ok := asn.loc(v); ok {
			em.MovReg(r, src)
		} else if offv, ok := asn.spill[v]; ok {
			em.Store(abi.SP, offv, src, 4)
		}
		// A parameter that is neither assigned nor spilled is dead.
	}

	// use returns the physical register holding v, loading spills into
	// the given scratch.
	use := func(v mir.VReg, scratch uir.Reg) uir.Reg {
		if r, ok := asn.loc(v); ok {
			return r
		}
		em.Load(scratch, abi.SP, asn.spill[v], 4)
		return scratch
	}
	// def returns the register to compute v into plus a flush func.
	def := func(v mir.VReg) (uir.Reg, func()) {
		if r, ok := asn.loc(v); ok {
			return r, func() {}
		}
		offv := asn.spill[v]
		return s0, func() { em.Store(abi.SP, offv, s0, 4) }
	}

	useCount := countUses(p)

	for _, b := range p.Blocks {
		prog.MarkBlock(b.ID)
		instrs := schedule(b, opt.SchedSeed+uint64(b.ID))
		// Identify a fusable trailing compare for the terminator.
		fuseIdx := -1
		if b.Term.Kind == mir.TBranch && len(instrs) > 0 {
			last := instrs[len(instrs)-1]
			if last.Kind == mir.KBin && last.Op.IsCompare() && last.Dst == b.Term.Cond && useCount[last.Dst] == 1 {
				fuseIdx = len(instrs) - 1
			}
		}
		consts := map[mir.VReg]uint32{}
		for i, in := range instrs {
			if i == fuseIdx {
				break
			}
			if err := genInstr(in, d, em, asn, use, def, consts, opt); err != nil {
				return err
			}
		}
		// Terminator.
		nextID := b.ID + 1
		switch b.Term.Kind {
		case mir.TRet:
			if b.Term.RetVal != mir.NoReg {
				r := use(b.Term.RetVal, s0)
				if r != abi.RetReg {
					em.MovReg(abi.RetReg, r)
				}
			}
			em.JumpBlock(epilogueBlock)
		case mir.TJump:
			if b.Term.True != nextID {
				em.JumpBlock(b.Term.True)
			}
		case mir.TBranch:
			if fuseIdx >= 0 {
				cmp := instrs[fuseIdx]
				ra := use(cmp.A, s0)
				rb := use(cmp.B, s1)
				em.CmpBranch(cmp.Op, ra, rb, b.Term.True)
			} else {
				rc := use(b.Term.Cond, s0)
				em.CondBranch(rc, b.Term.True)
			}
			if b.Term.False != nextID {
				em.JumpBlock(b.Term.False)
			}
		}
	}
	prog.MarkBlock(epilogueBlock)
	em.Epilogue(frame)
	return nil
}

// genInstr emits one non-terminator MIR instruction.
func genInstr(in mir.Instr, d *Desc, em Emitter, asn *assignment,
	use func(mir.VReg, uir.Reg) uir.Reg, def func(mir.VReg) (uir.Reg, func()),
	consts map[mir.VReg]uint32, opt Options) error {
	abi := d.ABI
	s0, s1 := d.Scratch[0], d.Scratch[1]
	killConst := func(v mir.VReg) { delete(consts, v) }
	switch in.Kind {
	case mir.KMovConst:
		r, flush := def(in.Dst)
		em.MovConst(r, in.Const)
		flush()
		consts[in.Dst] = in.Const
		return nil
	case mir.KMovReg:
		a := use(in.A, s1)
		r, flush := def(in.Dst)
		if r != a {
			em.MovReg(r, a)
		}
		flush()
		if c, ok := consts[in.A]; ok {
			consts[in.Dst] = c
		} else {
			killConst(in.Dst)
		}
		return nil
	case mir.KBin:
		// Strength-reduction idiom: mul by 2^k as a shift.
		if opt.MulByShift && in.Op == uir.OpMul {
			if c, ok := consts[in.B]; ok && c != 0 && c&(c-1) == 0 {
				k := uint8(0)
				for v := c; v > 1; v >>= 1 {
					k++
				}
				a := use(in.A, s0)
				r, flush := def(in.Dst)
				em.ShiftImm(uir.OpShl, r, a, k)
				flush()
				killConst(in.Dst)
				return nil
			}
		}
		a := use(in.A, s0)
		bb := use(in.B, s1)
		r, flush := def(in.Dst)
		em.Bin(in.Op, r, a, bb)
		flush()
		killConst(in.Dst)
		return nil
	case mir.KUn:
		a := use(in.A, s0)
		r, flush := def(in.Dst)
		em.Un(in.Op, r, a)
		flush()
		killConst(in.Dst)
		return nil
	case mir.KAddrGlobal:
		r, flush := def(in.Dst)
		em.AddrGlobal(r, in.Sym)
		flush()
		killConst(in.Dst)
		return nil
	case mir.KAddrStack:
		r, flush := def(in.Dst)
		em.AddrAdd(r, abi.SP, asn.slotOff[in.Const])
		flush()
		killConst(in.Dst)
		return nil
	case mir.KLoad:
		a := use(in.A, s0)
		r, flush := def(in.Dst)
		em.Load(r, a, 0, in.Size)
		flush()
		killConst(in.Dst)
		return nil
	case mir.KStore:
		a := use(in.A, s0)
		v := use(in.B, s1)
		em.Store(a, 0, v, in.Size)
		return nil
	case mir.KCall:
		if len(abi.ArgRegs) > 0 {
			for i, av := range in.Args {
				r := use(av, s0)
				if r != abi.ArgRegs[i] {
					em.MovReg(abi.ArgRegs[i], r)
				}
			}
		} else {
			for i, av := range in.Args {
				em.Store(abi.SP, argOff(i), use(av, s0), 4)
			}
		}
		em.CallSym(in.Sym)
		if in.Dst != mir.NoReg {
			if r, ok := asn.loc(in.Dst); ok {
				em.MovReg(r, abi.RetReg)
			} else if off, ok := asn.spill[in.Dst]; ok {
				em.Store(abi.SP, off, abi.RetReg, 4)
			}
			killConst(in.Dst)
		}
		return nil
	}
	return fmt.Errorf("unknown MIR instruction kind %d", in.Kind)
}
