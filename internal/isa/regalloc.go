package isa

import (
	"sort"

	"firmup/internal/mir"
	"firmup/internal/uir"
)

// allocateRegs performs linear-scan register allocation over live
// intervals computed at basic-block granularity. Virtual registers that
// do not fit are spilled to frame slots (offsets assigned by genProc).
func allocateRegs(p *mir.Proc, regs []uir.Reg) (*assignment, int) {
	asn := &assignment{
		reg:   map[mir.VReg]uir.Reg{},
		spill: map[mir.VReg]int32{},
	}
	start, end := liveIntervals(p)

	type interval struct {
		v          mir.VReg
		start, end int
	}
	var ivs []interval
	for v, s := range start {
		ivs = append(ivs, interval{v, s, end[v]})
	}
	sort.Slice(ivs, func(i, j int) bool {
		if ivs[i].start != ivs[j].start {
			return ivs[i].start < ivs[j].start
		}
		return ivs[i].v < ivs[j].v
	})

	type active struct {
		v   mir.VReg
		end int
		reg uir.Reg
	}
	var act []active
	free := append([]uir.Reg(nil), regs...)
	for _, iv := range ivs {
		// Expire intervals that ended before this one starts.
		kept := act[:0]
		for _, a := range act {
			if a.end < iv.start {
				free = append(free, a.reg)
			} else {
				kept = append(kept, a)
			}
		}
		act = kept
		if len(free) == 0 {
			// Spill the interval ending last (current or an active one).
			worst := -1
			for i, a := range act {
				if a.end > iv.end && (worst == -1 || a.end > act[worst].end) {
					worst = i
				}
			}
			if worst >= 0 {
				spilled := act[worst]
				asn.spillIdx = append(asn.spillIdx, spilled.v)
				delete(asn.reg, spilled.v)
				act[worst] = active{iv.v, iv.end, spilled.reg}
				asn.reg[iv.v] = spilled.reg
			} else {
				asn.spillIdx = append(asn.spillIdx, iv.v)
			}
			continue
		}
		r := free[len(free)-1]
		free = free[:len(free)-1]
		asn.reg[iv.v] = r
		act = append(act, active{iv.v, iv.end, r})
	}
	return asn, len(asn.spillIdx)
}

// liveIntervals computes, per virtual register, the first and last block
// index where the register is live (defined, used, or live-through). The
// block-granularity intervals are conservative but always safe, including
// around loop back edges, because dataflow liveness extends the interval
// across every block of the loop.
func liveIntervals(p *mir.Proc) (map[mir.VReg]int, map[mir.VReg]int) {
	liveIn := p.LiveIn()
	start := map[mir.VReg]int{}
	end := map[mir.VReg]int{}
	touch := func(v mir.VReg, bi int) {
		if s, ok := start[v]; !ok || bi < s {
			start[v] = bi
		}
		if e, ok := end[v]; !ok || bi > e {
			end[v] = bi
		}
	}
	// Parameters are defined at entry.
	for i := 0; i < p.NParams; i++ {
		touch(mir.VReg(i), 0)
	}
	for bi, b := range p.Blocks {
		for v := range liveIn[bi] {
			touch(v, bi)
		}
		for v := range p.LiveOut(liveIn, bi) {
			touch(v, bi)
		}
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if d := in.Def(); d != mir.NoReg {
				touch(d, bi)
			}
			for _, u := range in.Uses() {
				touch(u, bi)
			}
		}
	}
	return start, end
}

// usedAllocRegs returns the allocatable registers actually assigned, in
// the canonical (descriptor) order for deterministic save areas.
func usedAllocRegs(asn *assignment, alloc []uir.Reg) []uir.Reg {
	used := map[uir.Reg]bool{}
	for _, r := range asn.reg {
		used[r] = true
	}
	var out []uir.Reg
	for _, r := range alloc {
		if used[r] {
			out = append(out, r)
		}
	}
	return out
}

// countUses counts every use of each vreg, including branch conditions
// and return values — the driver uses it to decide when a trailing
// compare can be fused into a branch (exactly one use: that branch).
func countUses(p *mir.Proc) map[mir.VReg]int {
	out := map[mir.VReg]int{}
	for _, b := range p.Blocks {
		for i := range b.Instrs {
			for _, u := range b.Instrs[i].Uses() {
				out[u]++
			}
		}
		for _, u := range b.Term.Uses() {
			out[u]++
		}
	}
	return out
}

// schedule reorders a block's instructions within dependence constraints
// using a seeded list scheduler; seed 0 keeps source order. The MIR here
// is not SSA, so true, anti and output register dependencies all apply;
// loads may not cross stores or calls, and stores/calls are totally
// ordered among themselves.
func schedule(b *mir.Block, seed uint64) []mir.Instr {
	n := len(b.Instrs)
	if n <= 1 || seed == 0 {
		return b.Instrs
	}
	type node struct {
		deps map[int]bool
	}
	nodes := make([]node, n)
	for i := range nodes {
		nodes[i].deps = map[int]bool{}
	}
	lastDef := map[mir.VReg]int{}
	lastUse := map[mir.VReg][]int{}
	lastMem := -1 // last store/call
	for i := 0; i < n; i++ {
		in := &b.Instrs[i]
		for _, u := range in.Uses() {
			if d, ok := lastDef[u]; ok {
				nodes[i].deps[d] = true // true dependence
			}
		}
		if d := in.Def(); d != mir.NoReg {
			if prev, ok := lastDef[d]; ok {
				nodes[i].deps[prev] = true // output dependence
			}
			for _, u := range lastUse[d] {
				nodes[i].deps[u] = true // anti dependence
			}
		}
		switch in.Kind {
		case mir.KLoad:
			if lastMem >= 0 {
				nodes[i].deps[lastMem] = true
			}
		case mir.KStore, mir.KCall:
			if lastMem >= 0 {
				nodes[i].deps[lastMem] = true
			}
			// Stores/calls also wait for every earlier load.
			for j := 0; j < i; j++ {
				if b.Instrs[j].Kind == mir.KLoad {
					nodes[i].deps[j] = true
				}
			}
			lastMem = i
		}
		for _, u := range in.Uses() {
			lastUse[u] = append(lastUse[u], i)
		}
		if d := in.Def(); d != mir.NoReg {
			lastDef[d] = i
			lastUse[d] = nil
		}
	}
	r := NewRNG(seed)
	scheduled := make([]bool, n)
	out := make([]mir.Instr, 0, n)
	for len(out) < n {
		var ready []int
		for i := 0; i < n; i++ {
			if scheduled[i] {
				continue
			}
			ok := true
			for d := range nodes[i].deps {
				if !scheduled[d] {
					ok = false
					break
				}
			}
			if ok {
				ready = append(ready, i)
			}
		}
		pick := ready[r.Intn(len(ready))]
		scheduled[pick] = true
		out = append(out, b.Instrs[pick])
	}
	return out
}
