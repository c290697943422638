// Package cfg recovers procedures and basic blocks from executables.
//
// This is the role IDA Pro plays in the paper's pipeline. Stripped
// firmware executables carry no procedure symbols, so recovery proceeds
// from first principles: a linear-sweep disassembly of the text section,
// procedure entry discovery from direct call targets (plus the entry
// point and any surviving symbols), extent partitioning, leader-based
// block splitting with MIPS delay-slot placement, and the two
// corroboration checks the paper describes — CFG connectivity and
// coverage of unaccounted-for areas of the text section, which recovers
// procedures that are never directly called.
package cfg

import (
	"fmt"
	"sort"

	"firmup/internal/isa"
	"firmup/internal/obj"
	"firmup/internal/telemetry"
	"firmup/internal/uir"
)

// Telemetry is the optional counter set recovery records against; a nil
// pointer (and any nil field) disables the corresponding metric.
// Recovery output is identical with and without it.
type Telemetry struct {
	// Decoded counts instructions decoded by the sweep (ISA decoder
	// invocations that succeeded).
	Decoded *telemetry.Counter
	// Procs, Blocks and Insts count recovered procedures, lifted basic
	// blocks, and instructions attributed to procedures.
	Procs  *telemetry.Counter
	Blocks *telemetry.Counter
	Insts  *telemetry.Counter
	// CoverageRounds counts iterations of the gap-claiming coverage
	// sweep (pass 3).
	CoverageRounds *telemetry.Counter
}

// Proc is one recovered procedure.
type Proc struct {
	Name     string // symbol name, or sub_<addr> when stripped
	Entry    uint32
	End      uint32 // exclusive extent bound
	Blocks   []*uir.Block
	Insts    []isa.Inst // instructions in address order (for dumps)
	Exported bool
	// Connected reports whether every block is reachable from the entry
	// (one of the lifter-corroboration checks).
	Connected bool
}

// Recovered is the result of analyzing one executable.
type Recovered struct {
	File  *obj.File
	Arch  uir.Arch
	Procs []*Proc
	// Coverage is the fraction of text bytes attributed to some
	// procedure's decoded instructions.
	Coverage float64
}

// Proc returns the recovered procedure with the given name, or nil.
func (r *Recovered) Proc(name string) *Proc {
	for _, p := range r.Procs {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// sweep is the dense result of the linear-sweep pass: instructions in
// address order plus an offset-indexed table mapping each text offset to
// its instruction, or -1 where no instruction starts. Dense arrays keep
// the coverage iteration (which re-walks the whole sweep every round)
// off map lookups.
type sweep struct {
	base uint32
	n    uint32     // text-section length in bytes
	idx  []int32    // offset -> index into seq, -1 if none
	seq  []isa.Inst // instructions in address order
}

// index returns the seq index of the instruction at addr, or -1.
func (s *sweep) index(addr uint32) int32 {
	off := addr - s.base
	if off >= s.n { // unsigned wrap also rejects addr < base
		return -1
	}
	return s.idx[off]
}

// at returns the instruction at addr, if one was decoded there.
func (s *sweep) at(addr uint32) (isa.Inst, bool) {
	i := s.index(addr)
	if i < 0 {
		return isa.Inst{}, false
	}
	return s.seq[i], true
}

// Recover analyzes the executable.
func Recover(f *obj.File) (*Recovered, error) {
	return RecoverWith(f, nil, telemetry.Span{})
}

// RecoverWith is Recover timed under parent — one "cfg.recover" span end
// to end, with the linear sweep ("cfg.sweep") and the block-splitting and
// UIR-lifting pass ("cfg.lift") as its children — and counted into tel.
// The recovery itself is identical.
func RecoverWith(f *obj.File, tel *Telemetry, parent telemetry.Span) (*Recovered, error) {
	recoverSpan := parent.Start("cfg.recover")
	defer recoverSpan.End()
	be, err := isa.ByArch(f.Arch)
	if err != nil {
		return nil, err
	}
	text := f.Text()
	if text == nil {
		return nil, fmt.Errorf("cfg: no text section")
	}

	// Pass 1: linear-sweep disassembly.
	sweepSpan := recoverSpan.Start("cfg.sweep")
	sw := &sweep{base: text.Addr, n: uint32(len(text.Data)), idx: make([]int32, len(text.Data))}
	for i := range sw.idx {
		sw.idx[i] = -1
	}
	for off := 0; off < len(text.Data); {
		addr := text.Addr + uint32(off)
		inst, err := be.Decode(text.Data, off, addr)
		if err != nil {
			// Resync: skip the minimum instruction size.
			off += int(be.MinInstSize())
			continue
		}
		sw.idx[off] = int32(len(sw.seq))
		sw.seq = append(sw.seq, inst)
		off += int(inst.Size)
	}
	sweepSpan.End()
	if tel != nil {
		tel.Decoded.Add(int64(len(sw.seq)))
	}

	// Pass 2: procedure entries from call targets, the entry point, and
	// any symbols that survived stripping.
	entrySet := map[uint32]bool{f.Entry: true}
	for _, in := range sw.seq {
		if in.Kind == isa.KindCall && in.Target >= text.Addr && in.Target < text.Addr+uint32(len(text.Data)) {
			entrySet[in.Target] = true
		}
	}
	for _, s := range f.Syms {
		if s.Kind == obj.SymFunc {
			entrySet[s.Addr] = true
		}
	}

	// Pass 3 (iterated): partition into extents, walk reachability, and
	// claim unaccounted-for areas as new procedure entries. Each round
	// re-walks from scratch — an entry inserted mid-extent splits it and
	// can legitimately uncover earlier addresses, so incremental coverage
	// would be unsound. The sorted entry slice is maintained by insertion
	// instead of re-sorted.
	entries := make([]uint32, 0, len(entrySet))
	for e := range entrySet {
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i] < entries[j] })
	covered := make([]bool, len(sw.seq))
	for rounds := 0; rounds < 1024; rounds++ {
		if tel != nil {
			tel.CoverageRounds.Inc()
		}
		for i := range covered {
			covered[i] = false
		}
		markCovered(entries, sw, covered)
		gap, ok := firstGap(sw, covered)
		if !ok {
			break
		}
		if entrySet[gap] {
			break // no progress; avoid looping on undecodable junk
		}
		entrySet[gap] = true
		i := sort.Search(len(entries), func(i int) bool { return entries[i] >= gap })
		entries = append(entries, 0)
		copy(entries[i+1:], entries[i:])
		entries[i] = gap
	}

	liftSpan := recoverSpan.Start("cfg.lift")
	rec := &Recovered{File: f, Arch: f.Arch}
	textEnd := text.Addr + uint32(len(text.Data))
	for i, e := range entries {
		end := textEnd
		if i+1 < len(entries) {
			end = entries[i+1]
		}
		p, err := buildProc(be, f, e, end, sw)
		if err != nil {
			continue // unrecoverable region; coverage accounting reflects it
		}
		rec.Procs = append(rec.Procs, p)
	}
	liftSpan.End()

	var bytes uint32
	var blocks, insts int64
	for _, p := range rec.Procs {
		blocks += int64(len(p.Blocks))
		insts += int64(len(p.Insts))
		for _, in := range p.Insts {
			bytes += in.Size
		}
	}
	if len(text.Data) > 0 {
		rec.Coverage = float64(bytes) / float64(len(text.Data))
	}
	if tel != nil {
		tel.Procs.Add(int64(len(rec.Procs)))
		tel.Blocks.Add(blocks)
		tel.Insts.Add(insts)
	}
	return rec, nil
}

// markCovered walks intra-procedural control flow from every entry and
// marks reachable instructions in covered (indexed like sw.seq).
func markCovered(entries []uint32, sw *sweep, covered []bool) {
	textEnd := sw.base + sw.n
	var stack []uint32
	for i, e := range entries {
		end := textEnd
		if i+1 < len(entries) {
			end = entries[i+1]
		}
		stack = append(stack[:0], e)
		for len(stack) > 0 {
			a := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for a >= e && a < end {
				ii := sw.index(a)
				if ii < 0 || covered[ii] {
					break
				}
				in := sw.seq[ii]
				covered[ii] = true
				next := a + in.Size
				if in.HasDelay {
					if di := sw.index(next); di >= 0 {
						covered[di] = true
						next += sw.seq[di].Size
					}
				}
				switch in.Kind {
				case isa.KindCondBranch:
					if in.Target >= e && in.Target < end {
						stack = append(stack, in.Target)
					}
					a = next
				case isa.KindJump:
					if in.Target >= e && in.Target < end {
						a = in.Target
					} else {
						a = end // tail transfer out of extent
					}
				case isa.KindRet, isa.KindIndirect:
					a = end
				default: // normal and calls fall through
					a = next
				}
			}
		}
	}
}

// firstGap returns the lowest decoded instruction address not covered by
// any procedure walk.
func firstGap(sw *sweep, covered []bool) (uint32, bool) {
	for i, c := range covered {
		if !c {
			return sw.seq[i].Addr, true
		}
	}
	return 0, false
}

// buildProc splits [entry, end) into basic blocks and lifts them.
func buildProc(be isa.Backend, f *obj.File, entry, end uint32, sw *sweep) (*Proc, error) {
	p := &Proc{Entry: entry, End: end}
	if sym, ok := f.FuncSym(entry); ok && sym.Addr == entry {
		p.Name = sym.Name
		p.Exported = sym.Exported
	} else {
		p.Name = fmt.Sprintf("sub_%x", entry)
	}

	// Collect the procedure's instructions, following address order and
	// skipping unreachable padding conservatively (straight scan).
	for a := entry; a < end; {
		in, ok := sw.at(a)
		if !ok {
			break
		}
		p.Insts = append(p.Insts, in)
		a += in.Size
	}
	if len(p.Insts) == 0 {
		return nil, fmt.Errorf("cfg: empty procedure at %#x", entry)
	}

	// Leaders: entry, branch targets, instruction after a transfer
	// (accounting for delay slots, which stay inside the branch's block).
	leaders := map[uint32]bool{entry: true}
	inDelay := map[uint32]bool{}
	for _, in := range p.Insts {
		a := in.Addr
		next := a + in.Size
		if in.HasDelay {
			inDelay[next] = true
			if d, ok := sw.at(next); ok {
				next += d.Size
			}
		}
		switch in.Kind {
		case isa.KindCondBranch, isa.KindJump:
			if in.Target >= entry && in.Target < end {
				leaders[in.Target] = true
			}
			if next < end {
				leaders[next] = true
			}
		case isa.KindRet, isa.KindIndirect:
			if next < end {
				leaders[next] = true
			}
		}
	}
	// A delay slot can never start a block.
	for a := range inDelay {
		delete(leaders, a)
	}

	// Build and lift blocks.
	var starts []uint32
	for a := range leaders {
		if _, ok := sw.at(a); ok {
			starts = append(starts, a)
		}
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	for i, s := range starts {
		blockEnd := end
		if i+1 < len(starts) {
			blockEnd = starts[i+1]
		}
		blk, err := liftBlock(be, sw, s, blockEnd)
		if err != nil {
			return nil, err
		}
		p.Blocks = append(p.Blocks, blk)
	}

	// Connectivity corroboration.
	p.Connected = checkConnectivity(p)
	return p, nil
}

// liftBlock lifts instructions in [start, end), reordering delay slots so
// the transfer's Exit statement comes last.
func liftBlock(be isa.Backend, sw *sweep, start, end uint32) (*uir.Block, error) {
	lb := &isa.LiftBuilder{}
	a := start
	for a < end {
		in, ok := sw.at(a)
		if !ok {
			break
		}
		next := a + in.Size
		if in.HasDelay {
			if d, ok := sw.at(next); ok {
				if err := be.Lift(d, lb); err != nil {
					return nil, err
				}
				next += d.Size
			}
		}
		if err := be.Lift(in, lb); err != nil {
			return nil, err
		}
		a = next
		// Calls do not terminate basic blocks; everything else that is
		// not a plain instruction does.
		if in.Kind != isa.KindNormal && in.Kind != isa.KindCall {
			break
		}
	}
	return &uir.Block{Addr: start, Size: a - start, Stmts: lb.Stmts}, nil
}

// checkConnectivity reports whether every block is reachable from the
// entry block.
func checkConnectivity(p *Proc) bool {
	if len(p.Blocks) == 0 {
		return false
	}
	byAddr := map[uint32]int{}
	for i, b := range p.Blocks {
		byAddr[b.Addr] = i
	}
	seen := make([]bool, len(p.Blocks))
	var stack []int
	stack = append(stack, 0)
	seen[0] = true
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range p.Blocks[i].Succs() {
			if j, ok := byAddr[s]; ok && !seen[j] {
				seen[j] = true
				stack = append(stack, j)
			}
		}
	}
	for _, s := range seen {
		if !s {
			return false
		}
	}
	return true
}
