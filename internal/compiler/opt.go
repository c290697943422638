package compiler

import (
	"slices"

	"firmup/internal/mir"
	"firmup/internal/uir"
)

// Optimize runs the MIR pass pipeline selected by the optimization level:
//
//	O0: nothing — naive lowered code.
//	O1: constant folding/propagation + dead-code elimination.
//	O2: inlining + folding + DCE + jump threading.
//	O3: O2 with a larger inlining budget.
//
// Different levels produce structurally different code for the same
// source, which is exactly the variance the paper's similarity search has
// to see through.
func Optimize(pkg *mir.Package, level, inlineThreshold int) {
	if level <= 0 {
		return
	}
	if level >= 2 {
		budget := inlineThreshold
		if budget == 0 {
			budget = 12
		}
		if level >= 3 {
			budget *= 3
		}
		inlinePackage(pkg, budget)
	}
	for _, p := range pkg.Procs {
		for i := 0; i < 4; i++ {
			changed := foldAndPropagate(p)
			changed = eliminateDeadCode(p) || changed
			if !changed {
				break
			}
		}
		if level >= 2 {
			threadJumps(p)
		}
	}
}

// foldAndPropagate performs per-block constant/copy propagation and
// folding. MIR is not SSA (user variables are mutable registers), so
// facts are killed on redefinition and at block boundaries.
func foldAndPropagate(p *mir.Proc) bool {
	changed := false
	for _, b := range p.Blocks {
		consts := map[mir.VReg]uint32{}
		copies := map[mir.VReg]mir.VReg{}
		kill := func(r mir.VReg) {
			delete(consts, r)
			delete(copies, r)
			for k, v := range copies {
				if v == r {
					delete(copies, k)
				}
			}
		}
		resolve := func(r mir.VReg) mir.VReg {
			if c, ok := copies[r]; ok {
				return c
			}
			return r
		}
		for i := range b.Instrs {
			in := &b.Instrs[i]
			// Rewrite uses through known copies.
			if in.MapUses(resolve) {
				changed = true
			}
			// Fold.
			switch in.Kind {
			case mir.KBin:
				ca, aok := consts[in.A]
				cb, bok := consts[in.B]
				switch {
				case aok && bok:
					*in = mir.Instr{Kind: mir.KMovConst, Dst: in.Dst, Const: uir.EvalBin(in.Op, ca, cb)}
					changed = true
				case bok && identityB(in.Op, cb):
					*in = mir.Instr{Kind: mir.KMovReg, Dst: in.Dst, A: in.A}
					changed = true
				case aok && identityA(in.Op, ca):
					*in = mir.Instr{Kind: mir.KMovReg, Dst: in.Dst, A: in.B}
					changed = true
				case bok && annihilatesB(in.Op, cb):
					*in = mir.Instr{Kind: mir.KMovConst, Dst: in.Dst, Const: 0}
					changed = true
				}
			case mir.KUn:
				if ca, ok := consts[in.A]; ok {
					*in = mir.Instr{Kind: mir.KMovConst, Dst: in.Dst, Const: uir.EvalUn(in.Op, ca)}
					changed = true
				}
			}
			// Record new facts.
			if d := in.Def(); d != mir.NoReg {
				kill(d)
				switch in.Kind {
				case mir.KMovConst:
					consts[d] = in.Const
				case mir.KMovReg:
					if in.A != d {
						copies[d] = in.A
						if c, ok := consts[in.A]; ok {
							consts[d] = c
						}
					}
				}
			}
		}
		// Branch folding on known conditions.
		if b.Term.Kind == mir.TBranch {
			if c, ok := consts[b.Term.Cond]; ok {
				t := b.Term.True
				if c == 0 {
					t = b.Term.False
				}
				b.Term = mir.Term{Kind: mir.TJump, True: t}
				changed = true
			}
		}
	}
	if changed {
		pruneUnreachable(p)
	}
	return changed
}

// identityB reports whether op with constant right operand c is the
// identity (x op c == x).
func identityB(op uir.Op, c uint32) bool {
	switch op {
	case uir.OpAdd, uir.OpSub, uir.OpOr, uir.OpXor, uir.OpShl, uir.OpShrU, uir.OpShrS:
		return c == 0
	case uir.OpMul, uir.OpDivS, uir.OpDivU:
		return c == 1
	case uir.OpAnd:
		return c == 0xFFFFFFFF
	}
	return false
}

// identityA reports whether op with constant left operand c is the
// identity (c op y == y).
func identityA(op uir.Op, c uint32) bool {
	switch op {
	case uir.OpAdd, uir.OpOr, uir.OpXor:
		return c == 0
	case uir.OpMul:
		return c == 1
	case uir.OpAnd:
		return c == 0xFFFFFFFF
	}
	return false
}

// annihilatesB reports whether x op c is the constant 0 regardless of x.
func annihilatesB(op uir.Op, c uint32) bool {
	switch op {
	case uir.OpMul, uir.OpAnd:
		return c == 0
	}
	return false
}

// eliminateDeadCode removes pure instructions whose destination is dead
// at that point, sweeping each block backward from its live-out set.
func eliminateDeadCode(p *mir.Proc) bool {
	liveIn := p.LiveIn()
	removed := false
	for bi, b := range p.Blocks {
		live := p.LiveOut(liveIn, bi)
		var kept []mir.Instr
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := b.Instrs[i]
			d := in.Def()
			if d != mir.NoReg && !live[d] && isPure(in.Kind) {
				removed = true
				continue
			}
			if d != mir.NoReg {
				delete(live, d)
			}
			for _, u := range in.Uses() {
				live[u] = true
			}
			kept = append(kept, in)
		}
		slices.Reverse(kept)
		b.Instrs = kept
	}
	return removed
}

func isPure(k mir.InstrKind) bool {
	switch k {
	case mir.KStore, mir.KCall:
		return false
	}
	return true
}

// threadJumps redirects edges that target an empty block whose terminator
// is an unconditional jump, then prunes what became unreachable. This is
// the pass that gives higher optimization levels their tighter CFGs.
func threadJumps(p *mir.Proc) {
	target := func(id int) int {
		seen := map[int]bool{}
		for {
			b := p.Blocks[id]
			if len(b.Instrs) != 0 || b.Term.Kind != mir.TJump || seen[id] {
				return id
			}
			seen[id] = true
			id = b.Term.True
		}
	}
	for _, b := range p.Blocks {
		switch b.Term.Kind {
		case mir.TJump:
			b.Term.True = target(b.Term.True)
		case mir.TBranch:
			b.Term.True = target(b.Term.True)
			b.Term.False = target(b.Term.False)
		}
	}
	pruneUnreachable(p)
	mergeStraightLine(p)
}

// mergeStraightLine merges a block into its unique predecessor when that
// predecessor jumps unconditionally to it.
func mergeStraightLine(p *mir.Proc) {
	for {
		preds := make([][]int, len(p.Blocks))
		for i, b := range p.Blocks {
			for _, s := range b.Term.Succs() {
				preds[s] = append(preds[s], i)
			}
		}
		merged := false
		for i, b := range p.Blocks {
			if b.Term.Kind != mir.TJump {
				continue
			}
			s := b.Term.True
			if s == i || s == 0 || len(preds[s]) != 1 {
				continue
			}
			sb := p.Blocks[s]
			b.Instrs = append(b.Instrs, sb.Instrs...)
			b.Term = sb.Term
			sb.Instrs = nil
			sb.Term = mir.Term{Kind: mir.TJump, True: s} // self-loop, unreachable
			merged = true
			break
		}
		if !merged {
			break
		}
		pruneUnreachable(p)
	}
}

// inlinePackage inlines small callees into their callers. Direct and
// mutual recursion is avoided by only inlining callees that contain no
// call instructions themselves (leaf procedures), which also keeps the
// expansion bounded.
func inlinePackage(pkg *mir.Package, budget int) {
	size := map[string]int{}
	leaf := map[string]bool{}
	for _, p := range pkg.Procs {
		for _, b := range p.Blocks {
			size[p.Name] += len(b.Instrs)
		}
		leaf[p.Name] = !p.HasCall()
	}
	const maxInlinesPerProc = 64
	for _, p := range pkg.Procs {
		for round := 0; round < maxInlinesPerProc; round++ {
			if !inlineOneCall(pkg, p, leaf, size, budget) {
				break
			}
		}
	}
}

// inlineOneCall finds and expands the first inlinable call site in p,
// reporting whether one was found. One-at-a-time keeps block indices
// simple; the caller loops.
func inlineOneCall(pkg *mir.Package, p *mir.Proc, leaf map[string]bool, size map[string]int, budget int) bool {
	for bi := 0; bi < len(p.Blocks); bi++ {
		b := p.Blocks[bi]
		for ii := 0; ii < len(b.Instrs); ii++ {
			in := b.Instrs[ii]
			if in.Kind != mir.KCall || in.Sym == p.Name {
				continue
			}
			callee := pkg.Proc(in.Sym)
			if callee == nil || !leaf[in.Sym] || size[in.Sym] > budget {
				continue
			}
			inlineCall(p, bi, ii, callee)
			return true
		}
	}
	return false
}

// inlineCall splices callee into p, replacing the call instruction at
// p.Blocks[bi].Instrs[ii].
func inlineCall(p *mir.Proc, bi, ii int, callee *mir.Proc) {
	call := p.Blocks[bi].Instrs[ii]
	// Remap callee registers and slots into the caller's namespace.
	regOff := mir.VReg(p.NVRegs)
	p.NVRegs += callee.NVRegs
	slotOff := len(p.Slots)
	p.Slots = append(p.Slots, callee.Slots...)
	blockOff := len(p.Blocks) + 1 // +1 for the continuation block

	// Split the caller block: instructions after the call move to a new
	// continuation block.
	caller := p.Blocks[bi]
	cont := &mir.Block{ID: len(p.Blocks), Instrs: append([]mir.Instr{}, caller.Instrs[ii+1:]...), Term: caller.Term}
	p.Blocks = append(p.Blocks, cont)
	caller.Instrs = caller.Instrs[:ii]

	// Marshal arguments into the callee's parameter registers.
	for k, a := range call.Args {
		caller.Instrs = append(caller.Instrs, mir.Instr{Kind: mir.KMovReg, Dst: regOff + mir.VReg(k), A: a})
	}
	caller.Term = mir.Term{Kind: mir.TJump, True: blockOff}

	// Clone callee blocks.
	for _, cb := range callee.Blocks {
		nb := &mir.Block{ID: len(p.Blocks)}
		for _, cin := range cb.Instrs {
			nin := cin
			nin.Args = slices.Clone(cin.Args) // the callee keeps its own
			if nin.Def() != mir.NoReg {
				nin.Dst += regOff
			}
			nin.MapUses(func(r mir.VReg) mir.VReg { return r + regOff })
			if nin.Kind == mir.KAddrStack {
				nin.Const += uint32(slotOff)
			}
			nb.Instrs = append(nb.Instrs, nin)
		}
		switch cb.Term.Kind {
		case mir.TRet:
			if call.Dst != mir.NoReg && cb.Term.RetVal != mir.NoReg {
				nb.Instrs = append(nb.Instrs, mir.Instr{Kind: mir.KMovReg, Dst: call.Dst, A: cb.Term.RetVal + regOff})
			}
			nb.Term = mir.Term{Kind: mir.TJump, True: cont.ID}
		case mir.TJump:
			nb.Term = mir.Term{Kind: mir.TJump, True: cb.Term.True + blockOff}
		case mir.TBranch:
			nb.Term = mir.Term{
				Kind: mir.TBranch,
				Cond: cb.Term.Cond + regOff,
				True: cb.Term.True + blockOff, False: cb.Term.False + blockOff,
			}
		}
		p.Blocks = append(p.Blocks, nb)
	}
}
