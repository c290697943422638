package strand

import (
	"fmt"
	"math/rand"
	"testing"

	"firmup/internal/uir"
)

// evalNode interprets a DAG node against a concrete machine state —
// the reference semantics the canonicalizer must preserve.
func evalNode(n *node, regs map[uir.Reg]uint32, mem func(addr uint32, size uint8) uint32) uint32 {
	switch n.kind {
	case nConst:
		return n.val
	case nInput:
		return regs[n.reg]
	case nCallRes:
		panic("soundness test does not generate calls")
	case nLoad:
		return mem(evalNode(n.a, regs, mem), n.size)
	case nBin:
		return uir.EvalBin(n.op, evalNode(n.a, regs, mem), evalNode(n.b, regs, mem))
	case nUn:
		return uir.EvalUn(n.op, evalNode(n.a, regs, mem))
	case nSel:
		if evalNode(n.a, regs, mem) != 0 {
			return evalNode(n.b, regs, mem)
		}
		return evalNode(n.c, regs, mem)
	}
	panic("unknown node kind")
}

// randomBlock builds a structured random straight-line block over a small
// register file: arithmetic, compares, selects, register traffic, loads
// and stores. Addresses are confined to a private arena (base register
// r14, which holds a fixed arena pointer) with small offsets, so distinct
// symbolic addresses never alias concretely.
func randomBlock(rng *rand.Rand, nStmts int) *uir.Block {
	const arenaReg = uir.Reg(14)
	b := &uir.Block{Addr: 0x1000}
	var next uir.Temp
	var defined []uir.Temp
	newTemp := func() uir.Temp {
		t := next
		next++
		return t
	}
	operand := func() uir.Operand {
		if len(defined) == 0 || rng.Intn(3) == 0 {
			return uir.C(uint32(rng.Intn(64)))
		}
		return uir.T(defined[rng.Intn(len(defined))])
	}
	// Seed with a few register reads.
	for r := uir.Reg(0); r < 4; r++ {
		t := newTemp()
		b.Stmts = append(b.Stmts, uir.Stmt{Kind: uir.StmtGet, Dst: t, Reg: r})
		defined = append(defined, t)
	}
	arena := newTemp()
	b.Stmts = append(b.Stmts, uir.Stmt{Kind: uir.StmtGet, Dst: arena, Reg: arenaReg})
	binOps := []uir.Op{uir.OpAdd, uir.OpSub, uir.OpMul, uir.OpAnd, uir.OpOr, uir.OpXor,
		uir.OpShl, uir.OpShrU, uir.OpShrS, uir.OpCmpEQ, uir.OpCmpNE,
		uir.OpCmpLTS, uir.OpCmpLTU, uir.OpCmpLES, uir.OpCmpLEU,
		uir.OpDivU, uir.OpDivS, uir.OpRemU, uir.OpRemS}
	unOps := []uir.Op{uir.OpNot, uir.OpNeg, uir.OpBool, uir.OpSext8, uir.OpSext16, uir.OpZext8, uir.OpZext16}
	arenaAddr := func() uir.Temp {
		off := uint32(rng.Intn(16)) * 4
		t := newTemp()
		b.Stmts = append(b.Stmts, uir.Stmt{Kind: uir.StmtBin, Dst: t, Op: uir.OpAdd, A: uir.T(arena), B: uir.C(off)})
		return t
	}
	for i := 0; i < nStmts; i++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			t := newTemp()
			b.Stmts = append(b.Stmts, uir.Stmt{Kind: uir.StmtBin, Dst: t, Op: binOps[rng.Intn(len(binOps))], A: operand(), B: operand()})
			defined = append(defined, t)
		case 4:
			t := newTemp()
			b.Stmts = append(b.Stmts, uir.Stmt{Kind: uir.StmtUn, Dst: t, Op: unOps[rng.Intn(len(unOps))], A: operand()})
			defined = append(defined, t)
		case 5:
			t := newTemp()
			b.Stmts = append(b.Stmts, uir.Stmt{Kind: uir.StmtSel, Dst: t, C: operand(), A: operand(), B: operand()})
			defined = append(defined, t)
		case 6: // register write (possibly overwriting)
			b.Stmts = append(b.Stmts, uir.Stmt{Kind: uir.StmtPut, Reg: uir.Reg(rng.Intn(8)), A: operand()})
		case 7: // store into the arena
			b.Stmts = append(b.Stmts, uir.Stmt{Kind: uir.StmtStore, A: uir.T(arenaAddr()), B: operand(), Size: 4})
		case 8: // load from the arena
			t := newTemp()
			b.Stmts = append(b.Stmts, uir.Stmt{Kind: uir.StmtLoad, Dst: t, A: uir.T(arenaAddr()), Size: 4})
			defined = append(defined, t)
		default: // copy
			t := newTemp()
			b.Stmts = append(b.Stmts, uir.Stmt{Kind: uir.StmtMov, Dst: t, A: operand()})
			defined = append(defined, t)
		}
	}
	return b
}

// TestCanonicalizationSoundness is the canonicalizer's semantic safety
// net: for random blocks and random initial machine states, every final
// register value the DAG predicts must equal what the reference machine
// computes, and every store effect must appear in the machine's memory.
// A wrong algebraic rule would corrupt both sides of a similarity
// comparison identically — invisible to matching tests, caught here.
func TestCanonicalizationSoundness(t *testing.T) {
	const arenaBase = 0x20000
	rng := rand.New(rand.NewSource(99))
	opt := &Options{}
	for trial := 0; trial < 300; trial++ {
		blk := randomBlock(rng, 4+rng.Intn(24))
		if err := blk.Validate(); err != nil {
			t.Fatalf("trial %d: generator emitted invalid block: %v", trial, err)
		}
		// Concrete initial state.
		m := uir.NewMachine()
		initRegs := map[uir.Reg]uint32{}
		for r := uir.Reg(0); r < 8; r++ {
			v := rng.Uint32()
			m.Regs[r] = v
			initRegs[r] = v
		}
		m.Regs[14] = arenaBase
		initRegs[14] = arenaBase
		for i := uint32(0); i < 64; i++ {
			m.Mem[arenaBase+i] = byte(rng.Intn(256))
		}
		initMem := func(addr uint32, size uint8) uint32 {
			var v uint32
			for k := uint8(0); k < size; k++ {
				v |= uint32(m0(addr+uint32(k), m)) << (8 * k)
			}
			return v
		}
		// Snapshot memory before running (loads in the DAG read the
		// initial state under the no-alias discipline).
		snapshot := map[uint32]byte{}
		for a, b := range m.Mem {
			snapshot[a] = b
		}
		readSnap := func(addr uint32, size uint8) uint32 {
			var v uint32
			for k := uint8(0); k < size; k++ {
				v |= uint32(snapshot[addr+uint32(k)]) << (8 * k)
			}
			return v
		}
		_ = initMem

		if err := m.RunBlock(blk); err != nil {
			t.Fatalf("trial %d: machine: %v", trial, err)
		}

		st := newExtractScratch()
		st.bind(opt)
		st.analyze(blk)
		for _, r := range st.live {
			n := st.regs[r].n
			if n.kind == nInput && n.reg == r {
				continue
			}
			got := evalNodeSnap(t, trial, n, initRegs, readSnap)
			if got != m.Regs[r] {
				t.Fatalf("trial %d: canonical value of r%d = %#x, machine says %#x\nblock:\n%s",
					trial, r, got, m.Regs[r], blk)
			}
		}
		// Store effects: the last store to each concrete address must
		// leave the machine memory with the DAG-predicted value.
		finalStores := map[uint32]uint32{}
		for _, e := range st.effects {
			if e.kind != effStore {
				continue
			}
			addr := evalNodeSnap(t, trial, e.a, initRegs, readSnap)
			val := evalNodeSnap(t, trial, e.b, initRegs, readSnap)
			finalStores[addr] = val
		}
		for addr, want := range finalStores {
			var got uint32
			for k := uint32(0); k < 4; k++ {
				got |= uint32(m.Mem[addr+k]) << (8 * k)
			}
			if got != want {
				t.Fatalf("trial %d: store at %#x: canonical %#x, machine %#x\nblock:\n%s",
					trial, addr, want, got, blk)
			}
		}
	}
}

func evalNodeSnap(t *testing.T, trial int, n *node, regs map[uir.Reg]uint32, mem func(uint32, uint8) uint32) uint32 {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("trial %d: eval panic: %v", trial, r)
		}
	}()
	return evalNode(n, regs, mem)
}

func m0(addr uint32, m *uir.Machine) byte { return m.Mem[addr] }

// The generator itself must be deterministic so failures replay.
func TestRandomBlockDeterministic(t *testing.T) {
	a := randomBlock(rand.New(rand.NewSource(5)), 12)
	b := randomBlock(rand.New(rand.NewSource(5)), 12)
	if fmt.Sprint(a.Stmts) != fmt.Sprint(b.Stmts) {
		t.Error("randomBlock not deterministic for a fixed seed")
	}
}
