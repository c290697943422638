package uir

import "testing"

// fpTestRanges is a representative layout: 4K of text at 0x400000, 4K
// of data at 0x800000.
var fpTestRanges = SectionRanges{
	TextLo: 0x400000, TextHi: 0x401000,
	DataLo: 0x800000, DataHi: 0x801000,
}

// addBlock builds a small block: t0 = get r1; t1 = add t0, c; store4
// [t1] = t0; if t1 jump target.
func addBlock(addr uint32, c Operand, target Operand) *Block {
	return &Block{
		Addr: addr,
		Size: 16,
		Stmts: []Stmt{
			{Kind: StmtGet, Dst: 0, Reg: 1},
			{Kind: StmtBin, Dst: 1, Op: OpAdd, A: T(0), B: c},
			{Kind: StmtStore, A: T(1), B: T(0), Size: 4},
			{Kind: StmtExit, Exit: ExitCond, C: T(1), A: target},
		},
	}
}

func TestBlockFingerprintSoundness(t *testing.T) {
	r := fpTestRanges
	base := addBlock(0x400100, C(8), CK(0x400200, ConstCode))
	cases := []struct {
		name    string
		a, b    *Block
		ra, rb  SectionRanges
		collide bool
	}{
		{
			// The block's own placement is not part of the key.
			name:    "identical UIR at different addresses",
			a:       base,
			b:       addBlock(0x400500, C(8), CK(0x400200, ConstCode)),
			ra:      r,
			rb:      r,
			collide: true,
		},
		{
			// In-section constants hash by section-relative offset, so
			// the same relative layout collides across load bases.
			name:    "same section-relative layout at different load bases",
			a:       addBlock(0x400100, C(8), CK(0x400200, ConstCode)),
			b:       addBlock(0x400100, C(8), CK(0x10200, ConstCode)),
			ra:      r,
			rb:      SectionRanges{TextLo: 0x10000, TextHi: 0x11000, DataLo: 0x20000, DataHi: 0x21000},
			collide: true,
		},
		{
			// The lifter's ConstKind annotation is not hashed;
			// classification is by range.
			name:    "const kind annotation ignored",
			a:       addBlock(0x400100, C(8), CK(0x400200, ConstCode)),
			b:       addBlock(0x400100, C(8), Operand{IsConst: true, Val: 0x400200}),
			ra:      r,
			rb:      r,
			collide: true,
		},
		{
			name:    "one plain operand differs",
			a:       base,
			b:       addBlock(0x400100, C(12), CK(0x400200, ConstCode)),
			ra:      r,
			rb:      r,
			collide: false,
		},
		{
			name:    "one in-section target differs",
			a:       base,
			b:       addBlock(0x400100, C(8), CK(0x400204, ConstCode)),
			ra:      r,
			rb:      r,
			collide: false,
		},
		{
			// A constant that is in-section in one layout but plain in
			// the other canonicalizes differently, so it must not
			// collide even though the raw value matches.
			name:    "same raw value, different classification",
			a:       addBlock(0x400100, C(0x400200), C(0x200)),
			b:       addBlock(0x400100, C(0x400200), C(0x200)),
			ra:      r,
			rb:      SectionRanges{TextLo: 0x500000, TextHi: 0x501000},
			collide: false,
		},
		{
			name: "temp numbering differs",
			a:    base,
			b: &Block{Addr: 0x400100, Stmts: []Stmt{
				{Kind: StmtGet, Dst: 0, Reg: 1},
				{Kind: StmtBin, Dst: 2, Op: OpAdd, A: T(0), B: C(8)},
				{Kind: StmtStore, A: T(2), B: T(0), Size: 4},
				{Kind: StmtExit, Exit: ExitCond, C: T(2), A: CK(0x400200, ConstCode)},
			}},
			ra:      r,
			rb:      r,
			collide: false,
		},
		{
			name: "operation differs",
			a:    base,
			b: &Block{Addr: 0x400100, Stmts: []Stmt{
				{Kind: StmtGet, Dst: 0, Reg: 1},
				{Kind: StmtBin, Dst: 1, Op: OpSub, A: T(0), B: C(8)},
				{Kind: StmtStore, A: T(1), B: T(0), Size: 4},
				{Kind: StmtExit, Exit: ExitCond, C: T(1), A: CK(0x400200, ConstCode)},
			}},
			ra:      r,
			rb:      r,
			collide: false,
		},
		{
			name: "store size differs",
			a:    base,
			b: &Block{Addr: 0x400100, Stmts: []Stmt{
				{Kind: StmtGet, Dst: 0, Reg: 1},
				{Kind: StmtBin, Dst: 1, Op: OpAdd, A: T(0), B: C(8)},
				{Kind: StmtStore, A: T(1), B: T(0), Size: 2},
				{Kind: StmtExit, Exit: ExitCond, C: T(1), A: CK(0x400200, ConstCode)},
			}},
			ra:      r,
			rb:      r,
			collide: false,
		},
		{
			name: "trailing statement missing",
			a:    base,
			b: &Block{Addr: 0x400100, Stmts: []Stmt{
				{Kind: StmtGet, Dst: 0, Reg: 1},
				{Kind: StmtBin, Dst: 1, Op: OpAdd, A: T(0), B: C(8)},
				{Kind: StmtStore, A: T(1), B: T(0), Size: 4},
			}},
			ra:      r,
			rb:      r,
			collide: false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fa := BlockFingerprint(tc.a, tc.ra, 0)
			fb := BlockFingerprint(tc.b, tc.rb, 0)
			if (fa == fb) != tc.collide {
				t.Errorf("collide=%v, want %v\n a=%x\n b=%x", fa == fb, tc.collide, fa, fb)
			}
		})
	}
}

// Distinct seeds (extraction contexts) must key distinct cache spaces.
func TestBlockFingerprintSeed(t *testing.T) {
	b := addBlock(0x400100, C(8), CK(0x400200, ConstCode))
	if BlockFingerprint(b, fpTestRanges, 1) == BlockFingerprint(b, fpTestRanges, 2) {
		t.Fatal("different seeds collide")
	}
	if BlockFingerprint(b, fpTestRanges, 7) != BlockFingerprint(b, fpTestRanges, 7) {
		t.Fatal("fingerprint not deterministic")
	}
}

// An empty block hashes to the seeded initial state; two empty blocks
// collide, an empty and non-empty block do not.
func TestBlockFingerprintEmpty(t *testing.T) {
	e1 := &Block{Addr: 1}
	e2 := &Block{Addr: 2}
	if BlockFingerprint(e1, fpTestRanges, 3) != BlockFingerprint(e2, fpTestRanges, 3) {
		t.Fatal("empty blocks at different addresses should collide")
	}
	if BlockFingerprint(e1, fpTestRanges, 3) == BlockFingerprint(addBlock(0x400100, C(8), C(0)), fpTestRanges, 3) {
		t.Fatal("empty and non-empty block collide")
	}
}
