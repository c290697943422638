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
//
// Plan does all of that short of lifting; the analysis pipeline then
// lifts each planned procedure with a Lifter right before extracting its
// strands, so an executable's UIR is never held whole. Recover lifts
// every procedure at once, for the dumps and tests that read blocks.
package cfg

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"sync"

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
	// Procs, Blocks and Insts count the procedures Lifters lifted, their
	// basic blocks, and their instructions.
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
}

// Connected reports whether every block is reachable from the entry
// block, one of the lifter-corroboration checks: false for a procedure
// without blocks, as a plan's are. Only dumps and tests read it, so it is
// worked out when asked, not during recovery.
func (p *Proc) Connected() bool {
	blocks := p.Blocks
	if len(blocks) == 0 {
		return false
	}
	seen := make([]bool, len(blocks))
	stack := []int32{0}
	seen[0] = true
	reached := 1
	var succs []uint32
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		succs = blocks[i].Succs(succs[:0])
		for _, s := range succs {
			j, ok := slices.BinarySearchFunc(blocks, s, func(b *uir.Block, a uint32) int { return cmp.Compare(b.Addr, a) })
			if ok && !seen[j] {
				seen[j] = true
				reached++
				stack = append(stack, int32(j))
			}
		}
	}
	return reached == len(blocks)
}

// Recovered is the result of analyzing one executable: a plan (Plan) or
// a full recovery (Recover).
//
// Procs is sorted by Entry, strictly ascending, and consumers look
// procedures up by binary search. A plan's procedures are every extent
// that holds an instruction, named, with their Insts, but no Blocks: a
// Lifter lifts them one at a time. Recover's are the ones that lifted,
// with Blocks sorted by Addr, strictly ascending.
// Everything a Recovered points at is allocated per executable or per
// procedure, never per block or statement: each Proc's Insts is a
// subslice of the linear sweep, each block's Stmts a subslice of its
// procedure's statement array, and the Procs and Blocks themselves sit in
// one slab each. It is all read-only once Plan or Recover returns, and
// garbage as one piece when the Recovered is dropped.
type Recovered struct {
	File  *obj.File
	Arch  uir.Arch
	Procs []*Proc
	// Coverage is the fraction of text bytes attributed to some
	// procedure's decoded instructions (Recover only).
	Coverage float64

	// What a Lifter reads: the backend, the sweep with its leader flags,
	// and the counters lifting records into.
	be  isa.Backend
	sw  *sweep
	tel *Telemetry
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

// Recover analyzes the executable: its plan, with every planned
// procedure then lifted and kept. Procedures that fail to lift are
// dropped.
func Recover(f *obj.File) (*Recovered, error) {
	rec, err := Plan(f, nil, telemetry.Span{})
	if err != nil {
		return nil, err
	}
	sw := rec.sw
	nblocks := 0
	for _, fl := range sw.flags {
		if fl == flagLeader { // a delay slot can never start a block
			nblocks++
		}
	}
	slab := make([]uir.Block, 0, nblocks)
	ptrs := make([]*uir.Block, 0, nblocks)
	l := NewLifter(rec)
	defer l.Release()
	procs := rec.Procs[:0]
	var bytes uint32
	for _, p := range rec.Procs {
		blocks, ok := l.Lift(p)
		if !ok {
			continue
		}
		// Copy the procedure out of the lifter: its statements, which the
		// lifter's arena holds in block order and nothing else, into an
		// array of their own, and its blocks into the executable's slab.
		stmts, mark := slices.Clone(l.lb.Stmts), len(ptrs)
		for _, b := range blocks {
			n := len(b.Stmts)
			slab = append(slab, uir.Block{Addr: b.Addr, Size: b.Size, Stmts: stmts[:n:n]})
			ptrs = append(ptrs, &slab[len(slab)-1])
			stmts = stmts[n:]
		}
		p.Blocks = ptrs[mark:len(ptrs):len(ptrs)]
		last := &p.Insts[len(p.Insts)-1] // Insts is one contiguous run from the entry
		bytes += last.Addr + last.Size - p.Entry
		procs = append(procs, p)
	}
	clear(rec.Procs[len(procs):])
	rec.Procs = procs
	if sw.n > 0 {
		rec.Coverage = float64(bytes) / float64(sw.n)
	}
	return rec, nil
}

// Plan is recovery short of lifting, timed under parent as one
// "cfg.recover" span with the linear sweep ("cfg.sweep") as its child,
// and counted into tel: the sweep, entry discovery, the coverage pass,
// and the extents the entries cut, each with its block leaders flagged
// and its name. Lifting is left to a Lifter per procedure, which counts
// what it lifts into tel too.
func Plan(f *obj.File, tel *Telemetry, parent telemetry.Span) (*Recovered, error) {
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
	return &Recovered{File: f, Arch: f.Arch, Procs: planProcs(f, entries, sw), be: be, sw: sw, tel: tel}, nil
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

// planProcs turns the extents the sorted entries partition the text into
// — [entries[i], entries[i+1]), the last one running to the end of the
// text — into procedures: each extent's instructions, its block leaders
// flagged, and its name. Extents that hold no instruction yield no
// procedure.
func planProcs(f *obj.File, entries []uint32, sw *sweep) []*Proc {
	procs := make([]Proc, len(entries))
	for i, e := range entries {
		p := &procs[i]
		p.Entry, p.End = e, sw.base+sw.n
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
		if len(p.Insts) == 0 {
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

// liftProc splits p's extent into basic blocks at the flagged leaders,
// walked in address order, lifts them into the emptied arena and slab,
// and returns them. It reports false when an instruction cannot be
// lifted.
func (l *Lifter) liftProc(p *Proc) ([]*uir.Block, bool) {
	sw := l.sw
	l.lb.Stmts, l.blocks, l.ptrs = l.lb.Stmts[:0], l.blocks[:0], l.ptrs[:0]
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
			return nil, false
		}
	}
	return l.ptrs, true
}

// liftBlock lifts instructions in [start, end) into the next block of the
// slab, reordering delay slots so the transfer's exit statement comes
// last.
func (l *Lifter) liftBlock(start, end uint32) bool {
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

// Lifter lifts a plan's procedures one at a time, each into a statement
// arena (its LiftBuilder's Stmts) and a block slab and pointer slice it
// reuses, so lifting an executable holds one procedure's UIR at a time,
// never the whole executable's. A build's workers draw one each.
type Lifter struct {
	be     isa.Backend
	sw     *sweep
	lb     isa.LiftBuilder
	blocks []uir.Block
	ptrs   []*uir.Block
	tel    *Telemetry
	// What the lifter lifted since it was drawn, counted into tel on
	// Release.
	nprocs, nblocks, ninsts int64
}

// lifterPool holds released lifters: their arenas have grown to the
// largest procedure lifted, and the next draw reuses them.
var lifterPool = sync.Pool{New: func() any { return new(Lifter) }}

// NewLifter draws a lifter for rec's procedures from a pool; Release
// returns it.
func NewLifter(rec *Recovered) *Lifter {
	l := lifterPool.Get().(*Lifter)
	l.be, l.sw, l.tel = rec.be, rec.sw, rec.tel
	return l
}

// Lift lifts p, one of the procedures of the Recovered the lifter was
// drawn for, and returns its blocks in address order; false when an
// instruction cannot be lifted, and the procedure is dropped. The blocks
// stay valid until the lifter's next Lift or Release.
func (l *Lifter) Lift(p *Proc) ([]*uir.Block, bool) {
	blocks, ok := l.liftProc(p)
	if ok {
		l.nprocs++
		l.nblocks += int64(len(blocks))
		l.ninsts += int64(len(p.Insts))
	}
	return blocks, ok
}

// Release counts what the lifter lifted and returns it to the pool; it
// must not be used again.
func (l *Lifter) Release() {
	if l.tel != nil {
		l.tel.Procs.Add(l.nprocs)
		l.tel.Blocks.Add(l.nblocks)
		l.tel.Insts.Add(l.ninsts)
	}
	l.nprocs, l.nblocks, l.ninsts = 0, 0, 0
	l.be, l.sw, l.tel = nil, nil, nil
	lifterPool.Put(l)
}
