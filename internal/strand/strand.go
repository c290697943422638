package strand

import (
	"slices"
	"strconv"
	"sync"

	"firmup/internal/obj"
	"firmup/internal/uir"
)

// Options parameterize extraction.
type Options struct {
	// ABI supplies the calling convention: argument registers feed call
	// effects, and the stack pointer renders as the stable token "sp",
	// its frame offsets as the token "slot" (isSlot).
	ABI *uir.ABI
	// Sections drives offset elimination: constants inside the text or
	// data ranges are abstracted to positional offN tokens.
	Sections obj.SectionMap
}

// Strand is one canonical strand.
type Strand struct {
	Hash uint64
	Text string
}

// ExtractBlock decomposes one lifted basic block into canonical strands.
//
// The implementation fuses Algorithm 1 with the re-optimization step: the
// block (already in SSA form) is converted to an expression DAG by
// forward substitution — which performs constant propagation, copy
// propagation and CSE by construction — and each outward-facing effect
// (a store, a call, a control-flow exit, or the final value of an
// architectural register) becomes the basis of one strand: exactly the
// use-def chain Algorithm 1 would slice, already in simplified form.
// Dead intermediate computations disappear, mirroring DCE.
//
// ExtractBlock is the inspection entry point (fwdump, the examples): it
// is the only caller that materializes canonical text. The analysis
// pipeline runs the same code through an Extractor, which hashes each
// strand as it renders it and writes no text.
func ExtractBlock(b *uir.Block, opt *Options) []Strand {
	sc := getScratch(opt)
	defer putScratch(sc)
	sc.analyze(b)
	sc.hashes, sc.markers = sc.hashes[:0], sc.markers[:0]
	var out []Strand
	sc.render(&out)
	return out
}

type effectKind uint8

const (
	effStore effectKind = iota
	effCall
	effBr
	effJump
	effIJump
)

// effect is one outward-facing action of a block, the basis of a strand.
// A bare return carries no data flow (the return value is covered by
// the return register's strand) and is not recorded.
type effect struct {
	kind   effectKind
	size   uint8 // store width
	a, b   *node // store: address and value; br: condition
	target *node // call, br, jump, ijump
	// argLo:argHi is a call's span of extractScratch.callArgs.
	argLo, argHi int32
}

// slot is one row of a dense table keyed by a small integer (a uir.Reg
// or a uir.Temp). A row written under another epoch is empty, so moving
// to the next block empties every table without touching it.
type slot struct {
	n     *node
	epoch uint32
}

func lookup(t []slot, i int, epoch uint32) *node {
	if i < len(t) && t[i].epoch == epoch {
		return t[i].n
	}
	return nil
}

func assign(t []slot, i int, epoch uint32, n *node) []slot {
	if i >= len(t) {
		t = append(t, make([]slot, i+1-len(t))...)
	}
	t[i] = slot{n, epoch}
	return t
}

// storeSlot is one store-to-load forwarding entry. The entries of one
// address node form a chain headed by node.fwd, one per access width.
type storeSlot struct {
	val  *node
	size uint8
	next int32
}

// extractScratch is everything canonicalizing a block needs besides the
// block: the node builder and its arena, the forward-substitution
// tables, the effect list, and the renderer's output buffers. One scratch
// serves any number of blocks serially and reaches a steady state in
// which a block allocates nothing. Scratches are pooled (getScratch), so
// a request that analyzes one executable on a few workers does not build
// a set per worker.
type extractScratch struct {
	opt      *Options
	excluded []uir.Reg // registers whose final value is never a strand basis

	// Analysis state of the current block. The analyzed form — the DAG,
	// the live registers and the effects — is valid until the next analyze.
	bd       *builder
	epoch    uint32
	regs     []slot    // by uir.Reg: current value, nil once clobbered by a call
	live     []uir.Reg // registers with a row in regs this block
	temps    []slot    // by uir.Temp
	stores   []storeSlot
	callArgs []*node
	effects  []effect

	// Renderer state of the current strand.
	strand              uint32 // stamp: nodes named in this strand carry it
	nlets, nargs, noffs int32
	h                   uint64   // FNV-1a of the strand's text so far
	text                bool     // keep the text in buf (ExtractBlock)
	buf                 []byte   // canonical text of the strand, when text is set
	digits              [16]byte // a number being formatted
	markerMark          int      // len(markers) when the strand began

	// Renderer output, appended block after block: a procedure's worth
	// for an Extractor, one block's for ExtractBlock.
	hashes  []uint64 // each block's unique hashes, from blockLo on
	blockLo int      // where the current block's hashes start
	markers []uint32 // identity-bearing constants of the kept strands, with repeats
	ids     []uint32 // the dense IDs of hashes, in the same order
}

func newExtractScratch() *extractScratch {
	return &extractScratch{bd: newBuilder()}
}

var scratchPool = sync.Pool{New: func() any { return newExtractScratch() }}

// getScratch draws a scratch from the pool and binds it to opt.
func getScratch(opt *Options) *extractScratch {
	sc := scratchPool.Get().(*extractScratch)
	sc.bind(opt)
	return sc
}

func putScratch(sc *extractScratch) {
	sc.opt = nil
	scratchPool.Put(sc)
}

// bind sets the extraction options. Final register values are
// outward-facing (register folding drops the destination identity), but
// the stack pointer, link register and status flags are excluded: their
// updates are universal scaffolding, not procedure semantics.
func (sc *extractScratch) bind(opt *Options) {
	sc.opt = opt
	sc.excluded = sc.excluded[:0]
	if abi := opt.ABI; abi != nil {
		sc.excluded = append(sc.excluded, abi.SP)
		if abi.LinkReg != uir.NoLinkReg {
			sc.excluded = append(sc.excluded, abi.LinkReg)
		}
		sc.excluded = append(sc.excluded, abi.Status()...)
	}
}

func (sc *extractScratch) setReg(r uir.Reg, n *node) {
	if int(r) >= len(sc.regs) || sc.regs[r].epoch != sc.epoch {
		sc.live = append(sc.live, r)
	}
	sc.regs = assign(sc.regs, int(r), sc.epoch, n)
}

// getReg returns the register's current value: what the block last put
// there, or the block's input.
func (sc *extractScratch) getReg(r uir.Reg) *node {
	if n := lookup(sc.regs, int(r), sc.epoch); n != nil {
		return n
	}
	n := sc.bd.input(r)
	sc.setReg(r, n)
	return n
}

func (sc *extractScratch) operand(o uir.Operand) *node {
	if o.IsConst {
		return sc.bd.konst(o.Val)
	}
	return lookup(sc.temps, int(o.Temp), sc.epoch)
}

func (sc *extractScratch) define(t uir.Temp, n *node) {
	sc.temps = assign(sc.temps, int(t), sc.epoch, n)
}

// forwarded returns the value the block last stored at (addr, size).
func (sc *extractScratch) forwarded(addr *node, size uint8) *node {
	for i := addr.fwd; i != 0; i = sc.stores[i-1].next {
		if sc.stores[i-1].size == size {
			return sc.stores[i-1].val
		}
	}
	return nil
}

func (sc *extractScratch) recordStore(addr, val *node, size uint8) {
	for i := addr.fwd; i != 0; i = sc.stores[i-1].next {
		if sc.stores[i-1].size == size {
			sc.stores[i-1].val = val
			return
		}
	}
	sc.stores = append(sc.stores, storeSlot{val: val, size: size, next: addr.fwd})
	addr.fwd = int32(len(sc.stores))
}

// analyze performs the forward-substitution walk over one block.
func (sc *extractScratch) analyze(b *uir.Block) {
	sc.bd.reset()
	sc.epoch++
	if sc.epoch == 0 { // wrapped: rows of the first epochs would read as current
		clear(sc.regs)
		clear(sc.temps)
		sc.epoch = 1
	}
	sc.live = sc.live[:0]
	sc.stores = sc.stores[:0]
	sc.callArgs = sc.callArgs[:0]
	sc.effects = sc.effects[:0]
	sc.strand = 0

	bd, abi := sc.bd, sc.opt.ABI
	callCount := 0
	for i := range b.Stmts {
		s := &b.Stmts[i]
		switch s.Kind {
		case uir.StmtGet:
			sc.define(s.Dst, sc.getReg(s.Reg))
		case uir.StmtPut:
			sc.setReg(s.Reg, sc.operand(s.A))
		case uir.StmtMov:
			sc.define(s.Dst, sc.operand(s.A))
		case uir.StmtBin:
			sc.define(s.Dst, bd.bin(s.Op, sc.operand(s.A), sc.operand(s.B)))
		case uir.StmtUn:
			sc.define(s.Dst, bd.un(s.Op, sc.operand(s.A)))
		case uir.StmtSel:
			sc.define(s.Dst, bd.sel(sc.operand(s.C), sc.operand(s.A), sc.operand(s.B)))
		case uir.StmtLoad:
			addr := sc.operand(s.A)
			val := sc.forwarded(addr, s.Size) // store-to-load forwarding
			if val == nil {
				val = bd.load(addr, s.Size)
			}
			sc.define(s.Dst, val)
		case uir.StmtStore:
			addr := sc.operand(s.A)
			val := sc.operand(s.B)
			sc.recordStore(addr, val, s.Size)
			sc.effects = append(sc.effects, effect{kind: effStore, a: addr, b: val, size: s.Size})
		case uir.StmtCall:
			e := effect{kind: effCall, target: sc.operand(s.A), argLo: int32(len(sc.callArgs))}
			if abi != nil {
				for _, r := range abi.ArgRegs {
					sc.callArgs = append(sc.callArgs, sc.getReg(r))
				}
				// Clobber caller-saved state.
				for _, r := range abi.Scratch {
					if lookup(sc.regs, int(r), sc.epoch) != nil {
						sc.regs[r].n = nil
					}
				}
				sc.setReg(abi.RetReg, bd.callRes(callCount))
			}
			e.argHi = int32(len(sc.callArgs))
			sc.effects = append(sc.effects, e)
			callCount++
		case uir.StmtExit:
			switch s.Exit {
			case uir.ExitJump:
				sc.effects = append(sc.effects, effect{kind: effJump, target: sc.operand(s.A)})
			case uir.ExitCond:
				sc.effects = append(sc.effects, effect{kind: effBr, a: sc.operand(s.C), target: sc.operand(s.A)})
			case uir.ExitIndir:
				sc.effects = append(sc.effects, effect{kind: effIJump, target: sc.operand(s.A)})
			}
		}
	}
}

// render turns the analyzed block into canonical strands: one per
// changed register in ascending register order, then one per effect in
// program order. Each strand is hashed as it is rendered; strands
// repeating an earlier hash of the block are dropped. The unique hashes
// and the kept strands' marker constants are appended to sc.hashes and
// sc.markers; the text is assembled in sc.buf, and kept, only when out
// is non-nil.
func (sc *extractScratch) render(out *[]Strand) {
	sc.blockLo = len(sc.hashes)
	sc.text = out != nil

	slices.Sort(sc.live)
	for _, r := range sc.live {
		n := sc.regs[r].n
		if n == nil || slices.Contains(sc.excluded, r) {
			continue
		}
		if n.kind == nInput && n.reg == r {
			continue // register unchanged
		}
		if isTrivial(n) {
			continue // a bare input or constant: every executable shares it
		}
		sc.begin()
		sc.visit(n)
		sc.lit("ret ")
		sc.tok(n)
		sc.end(out)
	}
	for i := range sc.effects {
		e := &sc.effects[i]
		if e.kind == effJump {
			continue // unconditional jumps carry no semantics
		}
		sc.begin()
		switch e.kind {
		case effStore:
			sc.visit(e.a)
			sc.visit(e.b)
			sc.lit("store")
			sc.num(int32(e.size))
			sc.lit(" ")
			sc.tok(e.a)
			sc.lit(" <- ")
			sc.tok(e.b)
		case effCall:
			args := sc.callArgs[e.argLo:e.argHi]
			for _, a := range args {
				sc.visit(a)
			}
			sc.lit("call proc(")
			for i, a := range args {
				if i > 0 {
					sc.lit(", ")
				}
				sc.tok(a)
			}
			sc.lit(")")
		case effBr:
			sc.visit(e.a)
			sc.visitTarget(e.target)
			sc.lit("br ")
			sc.tok(e.a)
			sc.lit(" -> ")
			sc.tokTarget(e.target)
		case effJump:
			sc.visitTarget(e.target)
			sc.lit("jump ")
			sc.tokTarget(e.target)
		case effIJump:
			sc.visit(e.target)
			sc.lit("ijump ")
			sc.tok(e.target)
		}
		sc.end(out)
	}
}

// isTrivial reports whether the node is a bare input or call result —
// strands every block everywhere shares. Bare constants are kept: a
// specific returned constant (e.g. an error code) is real signal.
func isTrivial(n *node) bool {
	switch n.kind {
	case nInput, nCallRes:
		return true
	}
	return false
}

// The renderer linearizes one strand into canonical text — let-bindings
// for the operation nodes in post-order, then the basis line — with
// names assigned in order of appearance. It works in two motions per
// operand: visit names the operand's sub-DAG (emitting the let-lines it
// needs), tok writes the operand's name where it is used.

// begin starts a strand.
func (sc *extractScratch) begin() {
	sc.strand++
	sc.nlets, sc.nargs, sc.noffs = 0, 0, 0
	sc.h = fnvOffset64
	sc.buf = sc.buf[:0]
	sc.markerMark = len(sc.markers)
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnv1a folds the bytes of s into the running FNV-1a hash h.
func fnv1a[T string | []byte](h uint64, s T) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// end keeps the finished strand, whose hash is the FNV-1a of its text,
// unless the block already produced it.
func (sc *extractScratch) end(out *[]Strand) {
	h := sc.h
	if slices.Contains(sc.hashes[sc.blockLo:], h) {
		sc.markers = sc.markers[:sc.markerMark]
		return
	}
	sc.hashes = append(sc.hashes, h)
	if out != nil {
		*out = append(*out, Strand{Hash: h, Text: string(sc.buf)})
	}
}

// lit appends s to the strand: to its hash, and to its text when kept.
func (sc *extractScratch) lit(s string) {
	sc.h = fnv1a(sc.h, s)
	if sc.text {
		sc.buf = append(sc.buf, s...)
	}
}

// formatted is lit for a number formatted in sc.digits.
func (sc *extractScratch) formatted(b []byte) {
	sc.h = fnv1a(sc.h, b)
	if sc.text {
		sc.buf = append(sc.buf, b...)
	}
}

// decimals are the decimal names of the small numbers a strand's
// let-bindings, arguments, offsets and widths use.
var decimals = func() (t [256]string) {
	for i := range t {
		t[i] = strconv.Itoa(i)
	}
	return t
}()

// num appends v in decimal to the strand.
func (sc *extractScratch) num(v int32) {
	if v >= 0 && int(v) < len(decimals) {
		sc.lit(decimals[v])
		return
	}
	sc.formatted(strconv.AppendInt(sc.digits[:0], int64(v), 10))
}

// inSections applies offset elimination to a constant: values inside
// the text or data ranges are abstracted to positional offN tokens.
func (sc *extractScratch) inSections(v uint32) bool {
	m := &sc.opt.Sections
	return (m.TextHi > m.TextLo && v >= m.TextLo && v < m.TextHi) ||
		(m.DataHi > m.DataLo && v >= m.DataLo && v < m.DataHi)
}

// visit names n for the current strand, first naming whatever n is built
// from, and emits the let-binding of an operation node — so a shared
// subexpression renders once and is referred to by name afterwards.
func (sc *extractScratch) visit(n *node) {
	if n.stamp == sc.strand {
		return
	}
	n.stamp = sc.strand
	switch n.kind {
	case nConst:
		n.num = -1
		if sc.inSections(n.val) {
			n.num = sc.noffs
			sc.noffs++
		}
	case nInput:
		if abi := sc.opt.ABI; abi != nil && n.reg == abi.SP {
			n.num = -1 // renders as the stable token "sp"
			return
		}
		n.num = sc.nargs
		sc.nargs++
	case nCallRes:
		// The k-th call result; k is block-relative which is stable
		// across compilations of the same block.
		n.num = sc.nargs
		sc.nargs++
	case nLoad:
		sc.visit(n.a)
		sc.let(n)
		sc.lit("load")
		sc.num(int32(n.size))
		sc.operands(n.a, nil, nil)
	case nBin:
		sc.visit(n.a)
		sc.visit(n.b)
		sc.let(n)
		sc.lit(n.op.String())
		if sc.isSlot(n) {
			sc.lit("(sp, slot)\n")
			return
		}
		sc.operands(n.a, n.b, nil)
	case nUn:
		sc.visit(n.a)
		sc.let(n)
		sc.lit(n.op.String())
		sc.operands(n.a, nil, nil)
	case nSel:
		sc.visit(n.a)
		sc.visit(n.b)
		sc.visit(n.c)
		sc.let(n)
		sc.lit("select")
		sc.operands(n.a, n.b, n.c)
	}
}

// isSlot reports whether n addresses the stack frame: the stack pointer
// combined with a plain constant. Frame layouts differ between tool
// chains and ISAs, so the constant renders as the one token "slot" — it
// is neither printed nor a marker. A constant inside the sections stays
// an offN.
func (sc *extractScratch) isSlot(n *node) bool {
	abi := sc.opt.ABI
	return abi != nil && n.a.kind == nInput && n.a.reg == abi.SP &&
		n.b.kind == nConst && n.b.num < 0
}

// let numbers an operation node and opens its binding line.
func (sc *extractScratch) let(n *node) {
	n.num = sc.nlets
	sc.nlets++
	sc.lit("n")
	sc.num(n.num)
	sc.lit(" = ")
}

// operands closes a binding line: "(a, b, c)\n" over the non-nil operands.
func (sc *extractScratch) operands(a, b, c *node) {
	sc.lit("(")
	sc.tok(a)
	if b != nil {
		sc.lit(", ")
		sc.tok(b)
	}
	if c != nil {
		sc.lit(", ")
		sc.tok(c)
	}
	sc.lit(")\n")
}

// tok writes the name visit gave n. Plain constants are the only tokens
// that print a value, and the identity-bearing ones are collected as the
// strand's markers on the way out.
func (sc *extractScratch) tok(n *node) {
	switch n.kind {
	case nConst:
		if n.num >= 0 {
			sc.lit("off")
			sc.num(n.num)
			return
		}
		sc.lit("0x")
		sc.formatted(strconv.AppendUint(sc.digits[:0], uint64(n.val), 16))
		if isMarker(n.val) {
			sc.markers = append(sc.markers, n.val)
		}
	case nInput:
		if n.num < 0 {
			sc.lit("sp")
			return
		}
		sc.lit("arg")
		sc.num(n.num)
	case nCallRes:
		sc.lit("cres")
		sc.num(n.num)
	default:
		sc.lit("n")
		sc.num(n.num)
	}
}

// visitTarget and tokTarget render a control-transfer target, which a
// block without one leaves nil.
func (sc *extractScratch) visitTarget(n *node) {
	if n != nil {
		sc.visit(n)
	}
}

func (sc *extractScratch) tokTarget(n *node) {
	if n == nil {
		sc.lit("?")
		return
	}
	sc.tok(n)
}

// isMarker filters constants down to identity-bearing ones: a
// procedure's markers are its distinctive plain constants — the
// automated analog of the paper's semi-manual confirmation "markers such
// as string constants, use of global memory, structures access".
//
// Markers are the plain-constant tokens of the canonical strands, so they
// are seen after constant folding and offset elimination, and split
// address materializations (lui/ori halves) never leak in. Constants
// that are small, powers of two, all-ones masks, aligned offset-shaped
// values, or negatives carry no identity and are skipped; what remains
// (protocol codes, magic numbers, hash multipliers) fingerprints the
// source procedure across compilations.
func isMarker(v uint32) bool {
	switch {
	case v <= 8:
		return false // tiny values: loop bounds, flags
	case v&(v-1) == 0:
		return false // power of two: sizes, bit flags
	case v&(v+1) == 0:
		return false // all-ones: width masks (0x1f, 0xff, 0xffff, ...)
	case v%4 == 0 && v < 0x1000:
		return false // word-aligned small value: stack/struct offsets
	case v >= 0xFFFF0000:
		return false // small negative
	}
	return true
}

// MarkerOverlap computes the fraction of q's markers present in t (both
// sorted). Returns 1 when q has no markers to check.
func MarkerOverlap(q, t []uint32) float64 {
	if len(q) == 0 {
		return 1
	}
	i, j, n := 0, 0, 0
	for i < len(q) && j < len(t) {
		switch {
		case q[i] == t[j]:
			n++
			i++
			j++
		case q[i] < t[j]:
			i++
		default:
			j++
		}
	}
	return float64(n) / float64(len(q))
}

// Interner maps 64-bit canonical strand hashes to dense IDs shared
// across every executable analyzed under one session. Implementations
// must be safe for concurrent use and assign each hash exactly one ID
// for the interner's lifetime.
type Interner interface {
	Intern(hash uint64) uint32
}

// BulkInterner is an Interner that can intern a whole batch per lock
// round. Interned and the block extractor prefer it when available.
type BulkInterner interface {
	Interner
	// InternAll appends the dense IDs of hashes to out and returns it,
	// in input order.
	InternAll(hashes []uint64, out []uint32) []uint32
}

// Set is a procedure's strand set, the unit Sim operates on: its dense
// strand IDs, assigned by It. The pipeline's sets carry IDs alone — the
// analysis pipeline (Extractor.IDs) and a store-backed executable build
// them that way — while Hashes is present only on a set built from
// hashes (Interned) or for inspection (Extractor.Proc). Read a set's
// hashes through AppendHashes, which derives them through the session.
type Set struct {
	Hashes []uint64 // sorted, unique; nil on a pipeline set
	// IDs are the dense interned strands (sorted, unique).
	IDs []uint32
	// It is the session interner that assigned IDs. Two sets are
	// comparable only when It assigned both sets' IDs, or one's It is an
	// overlay extending the other's ID space.
	It Interner
}

// Vocabulary is an interner that also maps every dense ID it assigned
// back to its hash: what recovers the hashes of a set that carries IDs
// alone. Every session kind implements it — the live interner, its
// frozen seal and a query overlay — and a lookup touches only the IDs
// asked for.
type Vocabulary interface {
	Interner
	// AppendHashes appends the hash of each of ids to dst, in ids order.
	AppendHashes(dst []uint64, ids []uint32) []uint64
}

// AppendHashes appends the set's sorted hashes to dst: Hashes when
// present, otherwise derived from the IDs through the set's Vocabulary.
func (s Set) AppendHashes(dst []uint64) []uint64 {
	if s.Hashes != nil || len(s.IDs) == 0 {
		return append(dst, s.Hashes...)
	}
	at := len(dst)
	dst = s.It.(Vocabulary).AppendHashes(dst, s.IDs)
	slices.Sort(dst[at:])
	return dst
}

// Interned returns a copy of the set with dense IDs assigned by it.
func (s Set) Interned(it Interner) Set {
	ids := internAll(it, s.Hashes, make([]uint32, 0, len(s.Hashes)))
	slices.Sort(ids)
	return Set{Hashes: s.Hashes, IDs: ids, It: it}
}

// internAll interns hashes in input order, using the bulk path when the
// interner supports it.
func internAll(it Interner, hashes []uint64, out []uint32) []uint32 {
	if bi, ok := it.(BulkInterner); ok {
		return bi.InternAll(hashes, out)
	}
	for _, h := range hashes {
		out = append(out, it.Intern(h))
	}
	return out
}

// Size returns the number of unique strands.
func (s Set) Size() int { return len(s.IDs) }

// Intersect counts the strands two comparable sets share, the paper's
// Sim(q, t).
func (s Set) Intersect(t Set) int {
	a, b := s.IDs, t.IDs
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			n++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return n
}
