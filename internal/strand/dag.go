// Package strand implements procedure decomposition into canonical
// strands — the representation at the core of the paper's similarity
// metric.
//
// A lifted basic block is decomposed into data-flow slices (Algorithm 1),
// each slice is brought to a succinct canonical form (standing in for the
// paper's LLVM `opt` re-optimization: constant folding and propagation,
// expression simplification, instruction combining, common-subexpression
// elimination and dead-code elimination), offsets into the binary's code
// and data sections are eliminated, stack-frame offsets render as one
// slot token while struct offsets are retained, input registers are
// folded into positional arguments, names are normalized by order of
// appearance, and the rendered text is hashed.
package strand

import (
	"bytes"
	"strconv"

	"firmup/internal/uir"
)

// Node kinds of the expression DAG.
type nodeKind uint8

const (
	nConst   nodeKind = iota
	nInput            // architectural register read before written
	nCallRes          // value produced by the k-th call in the block
	nLoad             // memory read with no dominating store in the block
	nBin
	nUn
	nSel
)

// nodeKey is a node's structural identity and the hash-consing key.
// Children are consed before their parents, so their pointers stand for
// their whole sub-DAG: comparing the struct compares the structure.
type nodeKey struct {
	a, b, c *node
	val     uint32
	idx     int32 // call index for nCallRes
	reg     uir.Reg
	kind    nodeKind
	op      uir.Op
	size    uint8 // load size
}

// hash mixes the key's scalar fields and its children's allocation
// indices (which, within a block, identify a child as its pointer does).
func (k *nodeKey) hash() uint32 {
	h := (uint64(k.val) | uint64(uint32(k.idx))<<32) * 0x9E3779B97F4A7C15
	h ^= uint64(k.kind) | uint64(k.op)<<8 | uint64(k.size)<<16 | uint64(k.reg)<<24
	for _, c := range [...]*node{k.a, k.b, k.c} {
		if c != nil {
			h = (h ^ uint64(c.id+1)) * 0xBF58476D1CE4E5B9
		}
	}
	h ^= h >> 29
	return uint32(h * 0x94D049BB133111EB >> 32)
}

// node is a hash-consed DAG node; equal structure ⇒ identical pointer
// within one block. Beside its identity a node carries the per-block and
// per-strand scratch that is keyed by node — the arena slot is the dense
// table row — so none of it needs a map, and none of it needs clearing:
// a block starts with fresh nodes, and strand-scoped fields are valid
// only under the stamp of the strand that wrote them.
type node struct {
	nodeKey

	// id is the node's allocation index within its block.
	id int32
	// blind is the node's memoized blind key, a span of builder.blindBuf
	// (empty until first asked for).
	blindOff, blindLen int32
	// fwd heads the node's chain in extractScratch.stores: the values
	// stored at this address in the block so far (0 = none).
	fwd int32
	// stamp is the strand this node was last named in, and num its name
	// there: the let number of an operation, the argN/cresN index of an
	// input or call result, the offN index of a section constant.
	stamp uint32
	num   int32
}

// consSlot is one row of the interning table. Like slot, a row written
// under another epoch is empty.
type consSlot struct {
	n     *node
	hash  uint32
	epoch uint32
}

// konstSlot is one row of the constant cache: the node konst returned for
// val in the block of epoch. Like consSlot, a row written under another
// epoch is empty.
type konstSlot struct {
	n     *node
	val   uint32
	epoch uint32
}

// builder constructs and canonicalizes DAG nodes for one basic block.
// Nodes live in chunks that are kept and refilled from the start for
// every block, and are interned through an open-addressed table (linear
// probing, power-of-two size, at most half full) whose rows are live only
// under the current block's epoch — so moving to the next block costs
// nothing, however large a block the builder has seen, and a builder
// reused across many blocks (an Extractor's scratch) stops allocating
// once it has seen its largest block. The constant cache in front of the
// table is epoch-tagged the same way.
type builder struct {
	cons     []consSlot
	konsts   [konstWays]konstSlot
	epoch    uint32
	count    int      // nodes interned under epoch: node i is chunks[i/arenaChunk][i%arenaChunk]
	chunks   [][]node // arenaChunk nodes each
	blindBuf []byte
}

const (
	// arenaChunk is the node-slab size. Chunks are never grown in place,
	// so node pointers stay stable.
	arenaChunk = 256
	// consInitial is the interning table's initial size, a power of two.
	consInitial = 512
	// konstBits sizes the constant cache at konstWays rows.
	konstBits = 6
	konstWays = 1 << konstBits
)

func newBuilder() *builder {
	return &builder{cons: make([]consSlot, consInitial), epoch: 1}
}

// reset forgets the previous block: the interning table moves to a new
// epoch and the arena rewinds, invalidating every node handed out so far.
func (bd *builder) reset() {
	bd.epoch++
	if bd.epoch == 0 { // wrapped: rows of the first epochs would read as current
		clear(bd.cons)
		clear(bd.konsts[:])
		bd.epoch = 1
	}
	bd.count = 0
	bd.blindBuf = bd.blindBuf[:0]
}

// probe returns the row holding the node with key k and hash h, or the
// empty row it would go in.
func (bd *builder) probe(h uint32, k *nodeKey) *consSlot {
	mask := uint32(len(bd.cons) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		if s := &bd.cons[i]; s.epoch != bd.epoch || (s.hash == h && s.n.nodeKey == *k) {
			return s
		}
	}
}

// intern hash-conses a node.
func (bd *builder) intern(k nodeKey) *node {
	h := k.hash()
	s := bd.probe(h, &k)
	if s.epoch == bd.epoch {
		return s.n
	}
	if 2*(bd.count+1) > len(bd.cons) {
		// Double the table, carrying over the current block's rows. Nodes
		// do not move.
		old := bd.cons
		bd.cons = make([]consSlot, 2*len(old))
		for _, o := range old {
			if o.epoch == bd.epoch {
				*bd.probe(o.hash, &o.n.nodeKey) = o
			}
		}
		s = bd.probe(h, &k)
	}
	if bd.count == len(bd.chunks)*arenaChunk {
		bd.chunks = append(bd.chunks, make([]node, arenaChunk))
	}
	p := &bd.chunks[bd.count/arenaChunk][bd.count%arenaChunk]
	*p = node{nodeKey: k, id: int32(bd.count)}
	*s = consSlot{n: p, hash: h, epoch: bd.epoch}
	bd.count++
	return p
}

// blindKey is the register-identity-blind structural key used for
// commutative operand ordering, so that two compilations assigning
// different registers order operands the same way. The order it defines
// is the lexicographic order of the serialized form — part of the
// canonical strand format, since it decides which operand prints first —
// so the key stays a byte string, built once per node by appending the
// children's memoized keys.
func (bd *builder) blindKey(n *node) []byte {
	if n.blindLen == 0 {
		bd.buildBlindKey(n)
	}
	return bd.blindBuf[n.blindOff : n.blindOff+n.blindLen]
}

func (bd *builder) buildBlindKey(n *node) {
	// Children first: their spans must be complete before this node's
	// span starts.
	for _, c := range [...]*node{n.a, n.b, n.c} {
		if c != nil && c.blindLen == 0 {
			bd.buildBlindKey(c)
		}
	}
	buf := bd.blindBuf
	off := len(buf)
	// A leaf is its rank and tag; an operation is rank, tag and width or
	// op, then its operands' keys in parentheses.
	switch n.kind {
	case nConst:
		// Constants rank last so canonical operand order is
		// expression-then-constant (LLVM style).
		buf = append(buf, "9c"...)
		buf = strconv.AppendUint(buf, uint64(n.val), 16)
	case nInput:
		buf = append(buf, "1i"...)
	case nCallRes:
		buf = append(buf, "1r"...)
	case nLoad:
		buf = append(buf, "2l"...)
		buf = strconv.AppendUint(buf, uint64(n.size), 10)
	case nBin:
		buf = appendOp2(append(buf, "3b"...), n.op)
	case nUn:
		buf = appendOp2(append(buf, "3u"...), n.op)
	case nSel:
		buf = append(buf, "3s"...)
	}
	if n.a != nil {
		buf = append(buf, '(')
		for i, c := range [...]*node{n.a, n.b, n.c} {
			if c == nil {
				break
			}
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, buf[c.blindOff:c.blindOff+c.blindLen]...)
		}
		buf = append(buf, ')')
	}
	bd.blindBuf = buf
	n.blindOff, n.blindLen = int32(off), int32(len(buf)-off)
}

// appendOp2 appends op as at least two decimal digits.
func appendOp2(buf []byte, op uir.Op) []byte {
	if op < 10 {
		buf = append(buf, '0')
	}
	return strconv.AppendUint(buf, uint64(op), 10)
}

// konst returns the constant node of v. Constants are the most frequent
// key, so a small direct-mapped cache of the block's constants answers
// before the cons table is hashed and probed.
func (bd *builder) konst(v uint32) *node {
	s := &bd.konsts[(v*0x9E3779B1)>>(32-konstBits)]
	if s.epoch == bd.epoch && s.val == v {
		return s.n
	}
	n := bd.intern(nodeKey{kind: nConst, val: v})
	*s = konstSlot{n: n, val: v, epoch: bd.epoch}
	return n
}

func (bd *builder) input(r uir.Reg) *node { return bd.intern(nodeKey{kind: nInput, reg: r}) }
func (bd *builder) callRes(idx int) *node {
	return bd.intern(nodeKey{kind: nCallRes, idx: int32(idx)})
}
func (bd *builder) load(addr *node, size uint8) *node {
	return bd.intern(nodeKey{kind: nLoad, a: addr, size: size})
}

// maxBits returns an upper bound on the number of significant low bits of
// the node's value, or 32 when unknown. Used for mask elimination.
func maxBits(n *node) int {
	switch n.kind {
	case nConst:
		b := 0
		for v := n.val; v != 0; v >>= 1 {
			b++
		}
		return b
	case nLoad:
		return int(n.size) * 8
	case nBin:
		if n.op.IsCompare() {
			return 1
		}
		if n.op == uir.OpAnd {
			return min(maxBits(n.a), maxBits(n.b))
		}
	case nUn:
		switch n.op {
		case uir.OpBool:
			return 1
		case uir.OpZext8:
			return 8
		case uir.OpZext16:
			return 16
		}
	case nSel:
		return max(maxBits(n.b), maxBits(n.c))
	}
	return 32
}

func isBoolean(n *node) bool { return maxBits(n) == 1 }

// negateCompare returns the complement of a comparison node, or nil.
func (bd *builder) negateCompare(n *node) *node {
	if n.kind != nBin || !n.op.IsCompare() {
		return nil
	}
	switch n.op {
	case uir.OpCmpEQ:
		return bd.bin(uir.OpCmpNE, n.a, n.b)
	case uir.OpCmpNE:
		return bd.bin(uir.OpCmpEQ, n.a, n.b)
	case uir.OpCmpLTS:
		return bd.bin(uir.OpCmpLES, n.b, n.a)
	case uir.OpCmpLES:
		return bd.bin(uir.OpCmpLTS, n.b, n.a)
	case uir.OpCmpLTU:
		return bd.bin(uir.OpCmpLEU, n.b, n.a)
	case uir.OpCmpLEU:
		return bd.bin(uir.OpCmpLTU, n.b, n.a)
	}
	return nil
}

// bin builds a canonicalized binary node.
func (bd *builder) bin(op uir.Op, a, b *node) *node {
	// Constant folding.
	if a.kind == nConst && b.kind == nConst {
		return bd.konst(uir.EvalBin(op, a.val, b.val))
	}
	// Put the constant operand on the right for commutative ops so the
	// pattern rules below need only check one side.
	if op.IsCommutative() && a.kind == nConst && b.kind != nConst {
		a, b = b, a
	}
	// Normalize multiplication by a power of two to a shift (dissolving
	// the mul-vs-shift instruction-selection idiom).
	if op == uir.OpMul {
		if c, x, ok := constOperand(a, b); ok && c.val != 0 && c.val&(c.val-1) == 0 {
			k := uint32(0)
			for v := c.val; v > 1; v >>= 1 {
				k++
			}
			return bd.bin(uir.OpShl, x, bd.konst(k))
		}
	}
	// Identities and annihilators with a constant operand.
	if c, x, ok := constOperand(a, b); ok {
		switch op {
		case uir.OpAdd, uir.OpOr, uir.OpXor:
			if c.val == 0 {
				return x
			}
		case uir.OpMul:
			if c.val == 1 {
				return x
			}
			if c.val == 0 {
				return bd.konst(0)
			}
		case uir.OpAnd:
			if c.val == 0xFFFFFFFF {
				return x
			}
			if c.val == 0 {
				return bd.konst(0)
			}
			// Mask already implied by the operand's width.
			if bits := maxBits(x); bits < 32 && c.val == (uint32(1)<<bits)-1 {
				return x
			}
		}
	}
	// Right-constant identities for non-commutative ops.
	if b.kind == nConst {
		switch op {
		case uir.OpSub, uir.OpShl, uir.OpShrU, uir.OpShrS:
			if b.val == 0 {
				return a
			}
		case uir.OpDivS, uir.OpDivU:
			if b.val == 1 {
				return a
			}
		}
	}
	// 0 - x → neg x.
	if op == uir.OpSub && a.kind == nConst && a.val == 0 {
		return bd.un(uir.OpNeg, b)
	}
	// x - x → 0, x ^ x → 0, x & x → x, x | x → x.
	if a == b {
		switch op {
		case uir.OpSub, uir.OpXor:
			return bd.konst(0)
		case uir.OpAnd, uir.OpOr:
			return a
		case uir.OpCmpEQ, uir.OpCmpLES, uir.OpCmpLEU:
			return bd.konst(1)
		case uir.OpCmpNE, uir.OpCmpLTS, uir.OpCmpLTU:
			return bd.konst(0)
		}
	}
	// Nested masks: (x & C1) & C2 → x & (C1 & C2).
	if op == uir.OpAnd && b.kind == nConst && a.kind == nBin && a.op == uir.OpAnd && a.b.kind == nConst {
		return bd.bin(uir.OpAnd, a.a, bd.konst(a.b.val&b.val))
	}
	// Reassociate constant adds: (x + C1) + C2 → x + (C1+C2).
	if op == uir.OpAdd && b.kind == nConst && a.kind == nBin && a.op == uir.OpAdd && a.b.kind == nConst {
		return bd.bin(uir.OpAdd, a.a, bd.konst(a.b.val+b.val))
	}
	// Logical negation of a boolean: x ^ 1.
	if op == uir.OpXor {
		if c, x, ok := constOperand(a, b); ok && c.val == 1 && isBoolean(x) {
			if neg := bd.negateCompare(x); neg != nil {
				return neg
			}
			if x.kind == nUn && x.op == uir.OpBool {
				return bd.bin(uir.OpCmpEQ, x.a, bd.konst(0))
			}
		}
	}
	// ltu(0, x) → ne(x, 0)  (the "set if non-zero" idiom).
	if op == uir.OpCmpLTU && a.kind == nConst && a.val == 0 {
		return bd.bin(uir.OpCmpNE, b, bd.konst(0))
	}
	// lt(a,b) | eq(a,b) → le(a,b)  (LE synthesized from two bits).
	if op == uir.OpOr {
		if le := bd.combineLE(a, b); le != nil {
			return le
		}
		if le := bd.combineLE(b, a); le != nil {
			return le
		}
	}
	// Shift-pair extensions: (x << k) >>s k → sext, (x << k) >>u k → mask.
	if (op == uir.OpShrS || op == uir.OpShrU) && b.kind == nConst &&
		a.kind == nBin && a.op == uir.OpShl && a.b.kind == nConst && a.b.val == b.val {
		switch {
		case op == uir.OpShrS && b.val == 24:
			return bd.un(uir.OpSext8, a.a)
		case op == uir.OpShrS && b.val == 16:
			return bd.un(uir.OpSext16, a.a)
		case op == uir.OpShrU && b.val == 24:
			return bd.bin(uir.OpAnd, a.a, bd.konst(0xFF))
		case op == uir.OpShrU && b.val == 16:
			return bd.bin(uir.OpAnd, a.a, bd.konst(0xFFFF))
		}
	}
	// Commutative operand ordering by register-blind structural key;
	// stable on ties.
	if op.IsCommutative() {
		if bytes.Compare(bd.blindKey(b), bd.blindKey(a)) < 0 {
			a, b = b, a
		}
	}
	return bd.intern(nodeKey{kind: nBin, op: op, a: a, b: b})
}

// combineLE recognizes lt(a,b)|eq({a,b}) → le(a,b).
func (bd *builder) combineLE(lt, eq *node) *node {
	if lt.kind != nBin || eq.kind != nBin || eq.op != uir.OpCmpEQ {
		return nil
	}
	if lt.op != uir.OpCmpLTS && lt.op != uir.OpCmpLTU {
		return nil
	}
	sameOperands := (eq.a == lt.a && eq.b == lt.b) || (eq.a == lt.b && eq.b == lt.a)
	if !sameOperands {
		return nil
	}
	if lt.op == uir.OpCmpLTS {
		return bd.bin(uir.OpCmpLES, lt.a, lt.b)
	}
	return bd.bin(uir.OpCmpLEU, lt.a, lt.b)
}

func constOperand(a, b *node) (c, x *node, ok bool) {
	if a.kind == nConst {
		return a, b, true
	}
	if b.kind == nConst {
		return b, a, true
	}
	return nil, nil, false
}

// un builds a canonicalized unary node.
func (bd *builder) un(op uir.Op, a *node) *node {
	if a.kind == nConst {
		return bd.konst(uir.EvalUn(op, a.val))
	}
	switch op {
	case uir.OpBool:
		if isBoolean(a) {
			return a
		}
		return bd.bin(uir.OpCmpNE, a, bd.konst(0))
	case uir.OpZext8:
		return bd.bin(uir.OpAnd, a, bd.konst(0xFF))
	case uir.OpZext16:
		return bd.bin(uir.OpAnd, a, bd.konst(0xFFFF))
	case uir.OpNot:
		if a.kind == nUn && a.op == uir.OpNot {
			return a.a
		}
	case uir.OpNeg:
		if a.kind == nUn && a.op == uir.OpNeg {
			return a.a
		}
	}
	return bd.intern(nodeKey{kind: nUn, op: op, a: a})
}

// sel builds a canonicalized select node.
func (bd *builder) sel(cond, a, b *node) *node {
	if cond.kind == nConst {
		if cond.val != 0 {
			return a
		}
		return b
	}
	if a == b {
		return a
	}
	// select(c, 1, 0) → bool(c); select(c, 0, 1) → !c.
	if a.kind == nConst && b.kind == nConst {
		if a.val == 1 && b.val == 0 {
			return bd.un(uir.OpBool, cond)
		}
		if a.val == 0 && b.val == 1 {
			return bd.bin(uir.OpXor, bd.un(uir.OpBool, cond), bd.konst(1))
		}
	}
	return bd.intern(nodeKey{kind: nSel, a: cond, b: a, c: b})
}
