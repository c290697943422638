package strand

import (
	"strings"
	"testing"

	"firmup/internal/cfg"
	"firmup/internal/compiler"
	"firmup/internal/isa"
	_ "firmup/internal/isa/arm"
	"firmup/internal/isa/isatest"
	_ "firmup/internal/isa/mips"
	_ "firmup/internal/isa/ppc"
	_ "firmup/internal/isa/x86"
	"firmup/internal/obj"
	"firmup/internal/uir"
)

// --- builder rule tests ---

// retText renders the "ret" strand of one node built on sc's builder.
func retText(sc *extractScratch, n *node) string {
	sc.text = true
	sc.begin()
	sc.visit(n)
	sc.lit("ret ")
	sc.tok(n)
	return string(sc.buf)
}

func TestCommutativeOrderingIgnoresRegisters(t *testing.T) {
	sc := newExtractScratch()
	sc.bind(&Options{})
	bd := sc.bd
	a := bd.input(5)
	b := bd.input(9)
	// add(a,b) and add(b,a) must canonicalize identically modulo input
	// naming: their blind keys are equal, so ordering is stable — and the
	// rendered text (which renames inputs by appearance) must agree.
	n1 := bd.bin(uir.OpAdd, a, b)
	n2 := bd.bin(uir.OpAdd, b, a)
	t1, t2 := retText(sc, n1), retText(sc, n2)
	if t1 != t2 {
		t.Errorf("commutative renders differ:\n%s\nvs\n%s", t1, t2)
	}
	if want := "n0 = add(arg0, arg1)\nret n0"; t1 != want {
		t.Errorf("render = %q, want %q", t1, want)
	}
}

// A subexpression shared inside one strand is bound once and referred to
// by name; names restart with every strand.
func TestSharedSubexpressionRendersOnce(t *testing.T) {
	sc := newExtractScratch()
	sc.bind(&Options{ABI: &uir.ABI{SP: 29}})
	bd := sc.bd
	sum := bd.bin(uir.OpAdd, bd.input(29), bd.input(4))
	n := bd.sel(bd.bin(uir.OpCmpLTU, sum, bd.konst(9)), bd.load(sum, 4), sum)
	want := "n0 = add(sp, arg0)\nn1 = icmp.ult(n0, 0x9)\nn2 = load4(n0)\nn3 = select(n1, n2, n0)\nret n3"
	for i := 0; i < 2; i++ {
		if got := retText(sc, n); got != want {
			t.Errorf("render %d:\n%s\nwant:\n%s", i, got, want)
		}
	}
}

func TestConstantFolding(t *testing.T) {
	bd := newBuilder()
	n := bd.bin(uir.OpAdd, bd.konst(2), bd.konst(3))
	if n.kind != nConst || n.val != 5 {
		t.Errorf("2+3 = %+v", n)
	}
	// lui/ori pair: (0x47<<16) | 0x1234.
	hi := bd.konst(0x47 << 16)
	lo := bd.bin(uir.OpOr, hi, bd.konst(0x1234))
	if lo.kind != nConst || lo.val != 0x471234 {
		t.Errorf("lui/ori fold = %+v", lo)
	}
}

func TestIdentities(t *testing.T) {
	bd := newBuilder()
	x := bd.input(4)
	cases := []struct {
		got  *node
		want *node
	}{
		{bd.bin(uir.OpAdd, x, bd.konst(0)), x},
		{bd.bin(uir.OpMul, x, bd.konst(1)), x},
		{bd.bin(uir.OpXor, x, x), bd.konst(0)},
		{bd.bin(uir.OpSub, x, x), bd.konst(0)},
		{bd.bin(uir.OpAnd, x, x), x},
		{bd.bin(uir.OpOr, x, x), x},
		{bd.bin(uir.OpSub, bd.konst(0), x), bd.un(uir.OpNeg, x)},
		{bd.un(uir.OpNot, bd.un(uir.OpNot, x)), x},
	}
	for i, c := range cases {
		if c.got != c.want {
			t.Errorf("case %d: got %+v want %+v", i, c.got, c.want)
		}
	}
}

func TestMulByShiftNormalization(t *testing.T) {
	bd := newBuilder()
	x := bd.input(4)
	byMul := bd.bin(uir.OpMul, x, bd.konst(8))
	byShift := bd.bin(uir.OpShl, x, bd.konst(3))
	if byMul != byShift {
		t.Error("x*8 and x<<3 must canonicalize to the same node")
	}
}

func TestCompareNegationRules(t *testing.T) {
	bd := newBuilder()
	a, b := bd.input(4), bd.input(5)
	// xor(slt(b,a), 1) — the MIPS LE idiom — must equal les(a,b).
	mipsLE := bd.bin(uir.OpXor, bd.bin(uir.OpCmpLTS, b, a), bd.konst(1))
	les := bd.bin(uir.OpCmpLES, a, b)
	if mipsLE != les {
		t.Error("xor(lt(b,a),1) != les(a,b)")
	}
	// or(lts(a,b), eq(a,b)) — the flags LE idiom — must equal les(a,b).
	flagsLE := bd.bin(uir.OpOr, bd.bin(uir.OpCmpLTS, a, b), bd.bin(uir.OpCmpEQ, a, b))
	if flagsLE != les {
		t.Error("or(lt,eq) != les")
	}
	// ltu(0,x) — the sltu-zero idiom — must equal ne(x,0).
	sltuZero := bd.bin(uir.OpCmpLTU, bd.konst(0), a)
	ne := bd.bin(uir.OpCmpNE, a, bd.konst(0))
	if sltuZero != ne {
		t.Error("ltu(0,x) != ne(x,0)")
	}
}

func TestSignExtensionIdioms(t *testing.T) {
	bd := newBuilder()
	x := bd.input(4)
	shiftPair := bd.bin(uir.OpShrS, bd.bin(uir.OpShl, x, bd.konst(24)), bd.konst(24))
	direct := bd.un(uir.OpSext8, x)
	if shiftPair != direct {
		t.Error("shl/sar pair != sext8")
	}
	zextShift := bd.bin(uir.OpShrU, bd.bin(uir.OpShl, x, bd.konst(24)), bd.konst(24))
	andMask := bd.bin(uir.OpAnd, x, bd.konst(0xFF))
	zext := bd.un(uir.OpZext8, x)
	if zextShift != andMask || zext != andMask {
		t.Error("zero-extension idioms disagree")
	}
}

func TestSelectNormalization(t *testing.T) {
	bd := newBuilder()
	a, b := bd.input(4), bd.input(5)
	cond := bd.bin(uir.OpCmpEQ, a, b)
	if got := bd.sel(cond, bd.konst(1), bd.konst(0)); got != cond {
		t.Errorf("select(eq,1,0) = %+v, want the compare itself", got)
	}
	ne := bd.bin(uir.OpCmpNE, a, b)
	if got := bd.sel(cond, bd.konst(0), bd.konst(1)); got != ne {
		t.Errorf("select(eq,0,1) = %+v, want ne", got)
	}
}

func TestMaskElimination(t *testing.T) {
	bd := newBuilder()
	x := bd.input(4)
	load1 := bd.load(x, 1)
	if got := bd.bin(uir.OpAnd, load1, bd.konst(0xFF)); got != load1 {
		t.Error("mask of a byte load must vanish")
	}
	nested := bd.bin(uir.OpAnd, bd.bin(uir.OpAnd, x, bd.konst(0xFFF)), bd.konst(0xFF))
	single := bd.bin(uir.OpAnd, x, bd.konst(0xFF))
	if nested != single {
		t.Error("nested masks must combine")
	}
}

// --- Fig. 3-style canonicalization test ---

// A MIPS sequence materializing 0x1F and branching on equality must
// produce the compact canonical branch strand of the paper's Fig. 3.
func TestFig3Canonicalization(t *testing.T) {
	// move s5, v0 ; li v0, 0x1F ; bne s5, v0, 0x40E744
	blk := &uir.Block{Addr: 0x400100, Size: 12, Stmts: []uir.Stmt{
		{Kind: uir.StmtGet, Dst: 0, Reg: 2},                                    // v0
		{Kind: uir.StmtPut, Reg: 21, A: uir.T(0)},                              // s5 = v0
		{Kind: uir.StmtPut, Reg: 2, A: uir.C(0x1F)},                            // li v0, 0x1F
		{Kind: uir.StmtGet, Dst: 1, Reg: 21},                                   // s5
		{Kind: uir.StmtGet, Dst: 2, Reg: 2},                                    // v0
		{Kind: uir.StmtBin, Dst: 3, Op: uir.OpCmpNE, A: uir.T(1), B: uir.T(2)}, // s5 != v0
		{Kind: uir.StmtExit, Exit: uir.ExitCond, C: uir.T(3), A: uir.CK(0x40E744, uir.ConstCode)},
	}}
	opt := &Options{
		Sections: obj.SectionMap{TextLo: 0x400000, TextHi: 0x500000},
	}
	strands := ExtractBlock(blk, opt)
	var branch string
	for _, s := range strands {
		if strings.Contains(s.Text, "br ") {
			branch = s.Text
		}
	}
	if branch == "" {
		t.Fatalf("no branch strand in %v", strands)
	}
	// The constant is folded into the compare, the register identity is
	// folded into arg0, and the code offset is eliminated.
	want := "n0 = icmp.ne(arg0, 0x1f)\nbr n0 -> off0"
	if branch != want {
		t.Errorf("branch strand:\n%s\nwant:\n%s", branch, want)
	}
}

func TestOffsetElimination(t *testing.T) {
	blk := &uir.Block{Stmts: []uir.Stmt{
		// Materialize a data address and a plain constant; store the
		// constant at a struct offset from the data address.
		{Kind: uir.StmtMov, Dst: 0, A: uir.C(0x10008000)}, // in data range
		{Kind: uir.StmtBin, Dst: 1, Op: uir.OpAdd, A: uir.T(0), B: uir.C(16)},
		{Kind: uir.StmtStore, A: uir.T(1), B: uir.C(0x1F), Size: 4},
	}}
	opt := &Options{Sections: obj.SectionMap{DataLo: 0x10000000, DataHi: 0x10010000}}
	strands := ExtractBlock(blk, opt)
	if len(strands) == 0 {
		t.Fatal("no strands")
	}
	text := strands[0].Text
	if !strings.Contains(text, "off0") {
		t.Errorf("data address not eliminated: %s", text)
	}
	if strings.Contains(text, "0x10008000") {
		t.Errorf("raw data address leaked: %s", text)
	}
	if !strings.Contains(text, "0x1f") {
		t.Errorf("plain constant must be retained: %s", text)
	}
}

// Struct offsets from a pointer argument (not a static address) must be
// retained — they describe the type of data the procedure handles.
func TestStructOffsetRetained(t *testing.T) {
	blk := &uir.Block{Stmts: []uir.Stmt{
		{Kind: uir.StmtGet, Dst: 0, Reg: 4}, // pointer argument
		{Kind: uir.StmtBin, Dst: 1, Op: uir.OpAdd, A: uir.T(0), B: uir.C(16)},
		{Kind: uir.StmtStore, A: uir.T(1), B: uir.C(0x1F), Size: 4},
	}}
	opt := &Options{Sections: obj.SectionMap{DataLo: 0x10000000, DataHi: 0x10010000}}
	strands := ExtractBlock(blk, opt)
	if len(strands) != 1 {
		t.Fatalf("strands = %v", render(strands))
	}
	if !strings.Contains(strands[0].Text, "0x10") {
		t.Errorf("struct offset lost: %s", strands[0].Text)
	}
}

// A stack-frame offset is a slot, not a literal: the frame layout is the
// tool chain's choice, so stores of one value to two frame offsets are
// one strand. A section address off the stack pointer stays an offN, and
// a slotted constant is never a marker.
func TestStackOffsetsSlotted(t *testing.T) {
	abi := &uir.ABI{SP: 29}
	opt := &Options{ABI: abi, Sections: obj.SectionMap{DataLo: 0x10000000, DataHi: 0x10010000}}
	spill := func(off uint32) *uir.Block {
		return &uir.Block{Stmts: []uir.Stmt{
			{Kind: uir.StmtGet, Dst: 0, Reg: 29},
			{Kind: uir.StmtGet, Dst: 1, Reg: 4},
			{Kind: uir.StmtBin, Dst: 2, Op: uir.OpAdd, A: uir.T(0), B: uir.C(off)},
			{Kind: uir.StmtStore, A: uir.T(2), B: uir.T(1), Size: 4},
		}}
	}
	a, b := ExtractBlock(spill(8), opt), ExtractBlock(spill(0x18), opt)
	if len(a) != 1 || len(b) != 1 || a[0].Hash != b[0].Hash {
		t.Fatalf("frame offsets kept apart:\n%v\nvs\n%v", render(a), render(b))
	}
	if want := "n0 = add(sp, slot)\nstore4 n0 <- arg0"; a[0].Text != want {
		t.Errorf("render = %q, want %q", a[0].Text, want)
	}

	if got := ExtractBlock(spill(0x10000040), opt); len(got) != 1 || got[0].Text != "n0 = add(sp, off0)\nstore4 n0 <- arg0" {
		t.Errorf("section address off sp: %v", render(got))
	}

	if !isMarker(0x1234) {
		t.Fatal("0x1234 must pass isMarker for this test to mean anything")
	}
	sc := getScratch(opt)
	defer putScratch(sc)
	sc.analyze(spill(0x1234))
	sc.hashes, sc.markers = sc.hashes[:0], sc.markers[:0]
	sc.render(nil)
	if len(sc.hashes) != 1 || len(sc.markers) != 0 {
		t.Errorf("slotted 0x1234: %d strands, markers %v; want 1 strand, no marker", len(sc.hashes), sc.markers)
	}
}

func TestStoreToLoadForwarding(t *testing.T) {
	blk := &uir.Block{Stmts: []uir.Stmt{
		{Kind: uir.StmtGet, Dst: 0, Reg: 29},
		{Kind: uir.StmtBin, Dst: 1, Op: uir.OpAdd, A: uir.T(0), B: uir.C(8)},
		{Kind: uir.StmtStore, A: uir.T(1), B: uir.C(7), Size: 4},
		{Kind: uir.StmtLoad, Dst: 2, A: uir.T(1), Size: 4},
		{Kind: uir.StmtBin, Dst: 3, Op: uir.OpAdd, A: uir.T(2), B: uir.C(1)},
		{Kind: uir.StmtPut, Reg: 16, A: uir.T(3)},
	}}
	abi := &uir.ABI{SP: 29}
	strands := ExtractBlock(blk, &Options{ABI: abi})
	found := false
	for _, s := range strands {
		if s.Text == "ret 0x8" {
			found = true // load forwarded 7, then folded 7+1
		}
	}
	if !found {
		t.Errorf("store-to-load forwarding failed: %v", render(strands))
	}
}

func render(ss []Strand) []string {
	var out []string
	for _, s := range ss {
		out = append(out, s.Text)
	}
	return out
}

// --- set operations ---

func TestSetIntersect(t *testing.T) {
	a := Set{IDs: []uint32{1, 3, 5, 7}}
	b := Set{IDs: []uint32{2, 3, 4, 7, 9}}
	if got := a.Intersect(b); got != 2 {
		t.Errorf("Intersect = %d, want 2", got)
	}
	if got := b.Intersect(a); got != 2 {
		t.Error("Intersect must be symmetric")
	}
	if a.Intersect(Set{}) != 0 {
		t.Error("empty set")
	}
	if a.Intersect(a) != a.Size() {
		t.Error("self intersection")
	}
}

// --- integration: cross-tool-chain similarity ---

// buildSets extracts the strand set of every procedure of the test source
// compiled for arch, interned under it: sets of one interner compare.
func buildSets(t *testing.T, it Interner, arch uir.Arch, prof compiler.Profile, opt isa.Options) map[string]Set {
	t.Helper()
	pkg, err := compiler.CompileToMIR(isatest.Source, prof)
	if err != nil {
		t.Fatal(err)
	}
	be, err := isa.ByArch(arch)
	if err != nil {
		t.Fatal(err)
	}
	art, err := be.Generate(pkg, opt)
	if err != nil {
		t.Fatal(err)
	}
	f := obj.FromArtifact(art)
	rec, err := cfg.Recover(f)
	if err != nil {
		t.Fatal(err)
	}
	sets := map[string]Set{}
	ex := NewExtractor(&Options{ABI: be.ABI(), Sections: f.Map()}, it, nil)
	defer ex.Release()
	for _, p := range rec.Procs {
		sets[p.Name], _ = ex.Proc(p.Blocks)
	}
	return sets
}

// Same source, two divergent tool chains, same architecture: every
// procedure's best match in the other binary must be itself.
func TestCrossToolchainBestMatch(t *testing.T) {
	for _, arch := range []uir.Arch{uir.ArchMIPS32, uir.ArchARM32, uir.ArchPPC32, uir.ArchX86} {
		it := newLockedInterner()
		q := buildSets(t, it, arch, compiler.Profile{OptLevel: 2},
			isa.Options{TextBase: 0x400000, RegSeed: 1, SchedSeed: 1, MulByShift: true})
		tt := buildSets(t, it, arch, compiler.Profile{OptLevel: 1},
			isa.Options{TextBase: 0x80000000, RegSeed: 77, SchedSeed: 42, ShuffleProcs: true})
		correct, total := 0, 0
		for name, qs := range q {
			if qs.Size() < 3 {
				continue // tiny procedures carry too little signal alone
			}
			total++
			best, bestSim := "", -1
			for tname, ts := range tt {
				if sim := qs.Intersect(ts); sim > bestSim {
					best, bestSim = tname, sim
				}
			}
			if best == name {
				correct++
			}
		}
		if total == 0 {
			t.Fatalf("%v: no procedures to match", arch)
		}
		if ratio := float64(correct) / float64(total); ratio < 0.8 {
			t.Errorf("%v: cross-tool-chain best-match accuracy %.2f (%d/%d), want >= 0.8",
				arch, ratio, correct, total)
		}
	}
}

// Cross-architecture: the canonicalizer must bridge at least the three
// register-argument ISAs for most procedures.
func TestCrossArchitectureOverlap(t *testing.T) {
	it := newLockedInterner()
	mips := buildSets(t, it, uir.ArchMIPS32, compiler.Profile{OptLevel: 2}, isa.Options{TextBase: 0x400000})
	arm := buildSets(t, it, uir.ArchARM32, compiler.Profile{OptLevel: 2}, isa.Options{TextBase: 0x8000})
	ppc := buildSets(t, it, uir.ArchPPC32, compiler.Profile{OptLevel: 2}, isa.Options{TextBase: 0x10000000})
	pairs := []struct {
		name string
		a, b map[string]Set
	}{{"mips-arm", mips, arm}, {"mips-ppc", mips, ppc}, {"arm-ppc", arm, ppc}}
	for _, pr := range pairs {
		correct, total := 0, 0
		for name, qs := range pr.a {
			if qs.Size() < 4 {
				continue
			}
			total++
			best, bestSim := "", -1
			for tname, ts := range pr.b {
				if sim := qs.Intersect(ts); sim > bestSim {
					best, bestSim = tname, sim
				}
			}
			if best == name {
				correct++
			}
		}
		if total == 0 {
			t.Fatalf("%s: nothing to match", pr.name)
		}
		ratio := float64(correct) / float64(total)
		t.Logf("%s: cross-arch best-match accuracy %.2f (%d/%d)", pr.name, ratio, correct, total)
		if ratio < 0.6 {
			t.Errorf("%s: cross-arch accuracy %.2f too low", pr.name, ratio)
		}
	}
}

// Determinism: extraction of the same binary twice yields identical sets.
func TestExtractionDeterministic(t *testing.T) {
	it := newLockedInterner()
	a := buildSets(t, it, uir.ArchMIPS32, compiler.Profile{OptLevel: 2}, isa.Options{TextBase: 0x400000})
	b := buildSets(t, it, uir.ArchMIPS32, compiler.Profile{OptLevel: 2}, isa.Options{TextBase: 0x400000})
	for name, sa := range a {
		sb := b[name]
		if sa.Size() != sb.Size() || sa.Intersect(sb) != sa.Size() {
			t.Errorf("%s: extraction not deterministic", name)
		}
	}
}

type countingInterner struct {
	ids map[uint64]uint32
}

func (it *countingInterner) Intern(h uint64) uint32 {
	id, ok := it.ids[h]
	if !ok {
		id = uint32(len(it.ids))
		it.ids[h] = id
	}
	return id
}

func TestSetInterned(t *testing.T) {
	it := &countingInterner{ids: map[uint64]uint32{}}
	// Intentionally intern a set whose hash order differs from the
	// interner's assignment order by pre-seeding one hash.
	it.Intern(900)
	s := Set{Hashes: []uint64{5, 200, 900}}.Interned(it)
	if s.It != Interner(it) {
		t.Error("interned set must carry its session")
	}
	if len(s.IDs) != 3 {
		t.Fatalf("IDs = %v, want 3 entries", s.IDs)
	}
	for i := 1; i < len(s.IDs); i++ {
		if s.IDs[i-1] >= s.IDs[i] {
			t.Errorf("IDs not sorted unique: %v", s.IDs)
		}
	}
	// The same hashes interned again map to the same IDs.
	s2 := Set{Hashes: []uint64{200, 900}}.Interned(it)
	if s2.IDs[0] != s.IDs[0] && s2.IDs[0] != s.IDs[1] && s2.IDs[0] != s.IDs[2] {
		t.Errorf("re-interned hash got a fresh ID: %v vs %v", s2.IDs, s.IDs)
	}
}
