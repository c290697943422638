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
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"

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
//
// Procs is sorted by Entry and every procedure's Blocks by Addr, both
// strictly ascending; consumers look procedures and blocks up by binary
// search. Everything a Recovered points at is allocated per executable,
// not per procedure, block or statement: each Proc's Insts is a subslice
// of the linear sweep, each block's Stmts a subslice of one statement
// arena, and the Procs and Blocks themselves sit in one slab each. It is
// all read-only once RecoverWith returns, and garbage as one piece when
// the Recovered is dropped.
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

// Block-splitting flags, one byte per swept instruction. An instruction
// belongs to at most one procedure extent, and only the pass over that
// extent writes its byte.
const (
	flagLeader uint8 = 1 << iota // a transfer lands here, or the previous instruction was one
	flagDelay                    // sits in a branch delay slot: never starts a block
)

// sweep is the dense result of the linear-sweep pass: instructions in
// address order, an offset-indexed table mapping each text offset to the
// instruction that starts there, if one does, and the block-splitting
// flags parallel to the instructions. Dense arrays keep the coverage walks
// and block splitting off map lookups.
type sweep struct {
	base  uint32
	n     uint32     // text-section length in bytes
	idx   []int32    // offset -> index into seq plus one, 0 if none
	seq   []isa.Inst // instructions in address order
	flags []uint8    // by seq index: flagLeader | flagDelay
}

// index returns the seq index of the instruction at addr, or -1.
func (s *sweep) index(addr uint32) int32 {
	off := addr - s.base
	if off >= s.n { // unsigned wrap also rejects addr < base
		return -1
	}
	return s.idx[off] - 1
}

// lower returns the seq index of the first instruction at or after addr,
// len(seq) when there is none.
func (s *sweep) lower(addr uint32) int32 {
	if ii := s.index(addr); ii >= 0 {
		return ii
	}
	return int32(sort.Search(len(s.seq), func(i int) bool { return s.seq[i].Addr >= addr }))
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
	be, sw, err := sweepText(f, recoverSpan)
	if err != nil {
		return nil, err
	}
	entries, rounds := claimGaps(sw, callEntries(f, sw))
	if tel != nil {
		tel.Decoded.Add(int64(len(sw.seq)))
		tel.CoverageRounds.Add(int64(rounds))
	}

	liftSpan := recoverSpan.Start("cfg.lift")
	rec := &Recovered{File: f, Arch: f.Arch}
	rec.Procs = liftProcs(be, f, entries, sw.base+sw.n, sw)
	liftSpan.End()

	var bytes uint32
	var blocks, insts int64
	for _, p := range rec.Procs {
		blocks += int64(len(p.Blocks))
		insts += int64(len(p.Insts))
		last := &p.Insts[len(p.Insts)-1] // Insts is one contiguous run from the entry
		bytes += last.Addr + last.Size - p.Entry
	}
	if sw.n > 0 {
		rec.Coverage = float64(bytes) / float64(sw.n)
	}
	if tel != nil {
		tel.Procs.Add(int64(len(rec.Procs)))
		tel.Blocks.Add(blocks)
		tel.Insts.Add(insts)
	}
	return rec, nil
}

// sweepText is pass 1, the linear-sweep disassembly of f's text section
// ("cfg.sweep" under parent), after checking there is a text section the
// address space holds.
func sweepText(f *obj.File, parent telemetry.Span) (isa.Backend, *sweep, error) {
	be, err := isa.ByArch(f.Arch)
	if err != nil {
		return nil, nil, err
	}
	text := f.Text()
	if text == nil {
		return nil, nil, fmt.Errorf("cfg: no text section")
	}
	if uint64(text.Addr)+uint64(len(text.Data)) > math.MaxUint32 {
		return nil, nil, fmt.Errorf("cfg: text section [%#x, +%d) wraps the address space", text.Addr, len(text.Data))
	}
	sp := parent.Start("cfg.sweep")
	defer sp.End()
	// The fixed-width ISAs decode at most len/width instructions; x86
	// instructions average over four bytes in practice, and append covers
	// denser code.
	sw := &sweep{
		base: text.Addr,
		n:    uint32(len(text.Data)),
		idx:  make([]int32, len(text.Data)),
		seq:  make([]isa.Inst, 0, len(text.Data)/int(max(be.MinInstSize(), 4))),
	}
	for off := 0; off < len(text.Data); {
		addr := text.Addr + uint32(off)
		inst, err := be.Decode(text.Data, off, addr)
		if err != nil {
			// Resync: skip the minimum instruction size.
			off += int(be.MinInstSize())
			continue
		}
		sw.seq = append(sw.seq, inst)
		sw.idx[off] = int32(len(sw.seq))
		off += int(inst.Size)
	}
	sw.flags = make([]uint8, len(sw.seq))
	return be, sw, nil
}

// callEntries is pass 2: procedure entries from call targets, the entry
// point, and any symbols that survived stripping — sorted, each once.
func callEntries(f *obj.File, sw *sweep) []uint32 {
	entries := []uint32{f.Entry}
	for i := range sw.seq {
		if in := &sw.seq[i]; in.Kind == isa.KindCall && in.Target >= sw.base && in.Target < sw.base+sw.n {
			entries = append(entries, in.Target)
		}
	}
	for _, s := range f.Syms {
		if s.Kind == obj.SymFunc {
			entries = append(entries, s.Addr)
		}
	}
	slices.Sort(entries)
	return slices.Compact(entries)
}

// liftProcs turns the extents the sorted entries partition the text into
// — [entries[i], entries[i+1]), the last one running to textEnd — into
// procedures: a first pass over all of them collects each extent's
// instructions and flags its block leaders, which sizes the block slab
// exactly; a second splits and lifts. Extents that hold no instruction or
// fail to lift yield no procedure (coverage accounting reflects it).
func liftProcs(be isa.Backend, f *obj.File, entries []uint32, textEnd uint32, sw *sweep) []*Proc {
	procs := make([]Proc, len(entries))
	for i, e := range entries {
		p := &procs[i]
		p.Entry, p.End = e, textEnd
		if i+1 < len(entries) {
			p.End = entries[i+1]
		}
		// The procedure's instructions: a straight scan from the entry
		// that stops at the first address nothing was decoded at. Sweep
		// order is address order, so they are one run of seq.
		lo := sw.index(e)
		if lo < 0 {
			continue
		}
		hi := lo
		for a := e; a < p.End; {
			ii := sw.index(a)
			if ii < 0 {
				break
			}
			hi = ii + 1
			a += sw.seq[ii].Size
		}
		p.Insts = sw.seq[lo:hi:hi]
		markLeaders(p, sw)
	}
	nblocks := 0
	for _, fl := range sw.flags {
		if fl == flagLeader { // a delay slot can never start a block
			nblocks++
		}
	}

	l := &lifter{
		be:     be,
		sw:     sw,
		blocks: make([]uir.Block, 0, nblocks),
		ptrs:   make([]*uir.Block, 0, nblocks),
	}
	// The lifters emit 2.5 to 3.3 statements an instruction; should one
	// emit more, append moves the arena and the blocks already cut keep
	// the old one alive — larger, never wrong.
	l.lb.Stmts = make([]uir.Stmt, 0, len(sw.seq)*7/2)
	// A procedure takes the name of the function symbol starting at its
	// entry (of several, the first in file order): one merge of the
	// symbols sorted by address against the procedures, which ascend by
	// entry — the file sets both counts.
	fsyms := make([]int32, 0, len(f.Syms))
	for i := range f.Syms {
		if s := &f.Syms[i]; s.Kind == obj.SymFunc && s.Addr < s.Addr+s.Size { // not empty, not wrapping
			fsyms = append(fsyms, int32(i))
		}
	}
	slices.SortStableFunc(fsyms, func(a, b int32) int { return cmp.Compare(f.Syms[a].Addr, f.Syms[b].Addr) })
	out := make([]*Proc, 0, len(procs))
	var name []byte
	for i := range procs {
		p := &procs[i]
		if len(p.Insts) == 0 || !l.liftProc(p) {
			continue
		}
		for len(fsyms) > 0 && f.Syms[fsyms[0]].Addr < p.Entry {
			fsyms = fsyms[1:]
		}
		if len(fsyms) > 0 && f.Syms[fsyms[0]].Addr == p.Entry {
			sym := &f.Syms[fsyms[0]]
			p.Name = sym.Name
			p.Exported = sym.Exported
		} else {
			name = strconv.AppendUint(append(name[:0], "sub_"...), uint64(p.Entry), 16)
			p.Name = string(name)
		}
		out = append(out, p)
	}
	return out
}

// markLeaders flags the block leaders of p: the entry, branch targets
// inside the extent, and the instruction after a transfer (accounting for
// delay slots, which stay inside the branch's block). A target can lie
// past the point p.Insts stops at.
func markLeaders(p *Proc, sw *sweep) {
	inExtent := func(a uint32) bool { return a >= p.Entry && a < p.End }
	lead := func(a uint32) {
		if ii := sw.index(a); ii >= 0 && inExtent(a) {
			sw.flags[ii] |= flagLeader
		}
	}
	lead(p.Entry)
	for i := range p.Insts {
		in := &p.Insts[i]
		next := in.Addr + in.Size
		if in.HasDelay {
			if di := sw.index(next); di >= 0 {
				if inExtent(next) {
					sw.flags[di] |= flagDelay
				}
				next += sw.seq[di].Size
			}
		}
		switch in.Kind {
		case isa.KindCondBranch, isa.KindJump:
			lead(in.Target)
			lead(next)
		case isa.KindRet, isa.KindIndirect:
			lead(next)
		}
	}
}

// lifter holds what lifting an executable's procedures shares: the one
// LiftBuilder whose Stmts is the statement arena, the block slab and the
// pointer slice Proc.Blocks are cut from, and the connectivity check's
// scratch.
type lifter struct {
	be     isa.Backend
	sw     *sweep
	lb     isa.LiftBuilder
	blocks []uir.Block
	ptrs   []*uir.Block

	seen  []bool
	stack []int32
	succs []uint32
}

// liftProc splits p's extent into basic blocks at the flagged leaders,
// walked in address order, lifts them, and runs the connectivity
// corroboration. It reports false, leaving nothing behind, when an
// instruction cannot be lifted.
func (l *lifter) liftProc(p *Proc) bool {
	sw := l.sw
	stmtMark, blockMark := len(l.lb.Stmts), len(l.blocks)
	for k := int(sw.index(p.Entry)); k < len(sw.seq) && sw.seq[k].Addr < p.End; k++ {
		if sw.flags[k] != flagLeader {
			continue
		}
		// The block runs to the next leader, or the end of the extent.
		end := p.End
		for j := k + 1; j < len(sw.seq) && sw.seq[j].Addr < p.End; j++ {
			if sw.flags[j] == flagLeader {
				end = sw.seq[j].Addr
				break
			}
		}
		if !l.liftBlock(sw.seq[k].Addr, end) {
			l.lb.Stmts = l.lb.Stmts[:stmtMark]
			l.blocks = l.blocks[:blockMark]
			l.ptrs = l.ptrs[:blockMark]
			return false
		}
	}
	p.Blocks = l.ptrs[blockMark:len(l.ptrs):len(l.ptrs)]
	p.Connected = l.connected(p.Blocks)
	return true
}

// liftBlock lifts instructions in [start, end) into the next block of the
// slab, reordering delay slots so the transfer's exit statement comes
// last.
func (l *lifter) liftBlock(start, end uint32) bool {
	sw, lb := l.sw, &l.lb
	mark := lb.NewBlock()
	a := start
	for a < end {
		ii := sw.index(a)
		if ii < 0 {
			break
		}
		in := sw.seq[ii]
		next := a + in.Size
		if in.HasDelay {
			if di := sw.index(next); di >= 0 {
				if err := l.be.Lift(sw.seq[di], lb); err != nil {
					return false
				}
				next += sw.seq[di].Size
			}
		}
		if err := l.be.Lift(in, lb); err != nil {
			return false
		}
		a = next
		// Calls do not terminate basic blocks; everything else that is
		// not a plain instruction does.
		if in.Kind != isa.KindNormal && in.Kind != isa.KindCall {
			break
		}
	}
	n := len(lb.Stmts)
	l.blocks = append(l.blocks, uir.Block{Addr: start, Size: a - start, Stmts: lb.Stmts[mark:n:n]})
	l.ptrs = append(l.ptrs, &l.blocks[len(l.blocks)-1])
	return true
}

// connected reports whether every block is reachable from the entry
// block. blocks is sorted by address.
func (l *lifter) connected(blocks []*uir.Block) bool {
	if len(blocks) == 0 {
		return false
	}
	l.seen = append(l.seen[:0], make([]bool, len(blocks))...)
	l.stack = append(l.stack[:0], 0)
	l.seen[0] = true
	reached := 1
	for len(l.stack) > 0 {
		i := l.stack[len(l.stack)-1]
		l.stack = l.stack[:len(l.stack)-1]
		l.succs = blocks[i].Succs(l.succs[:0])
		for _, s := range l.succs {
			j, ok := slices.BinarySearchFunc(blocks, s, func(b *uir.Block, a uint32) int { return cmp.Compare(b.Addr, a) })
			if ok && !l.seen[j] {
				l.seen[j] = true
				reached++
				l.stack = append(l.stack, int32(j))
			}
		}
	}
	return reached == len(blocks)
}
