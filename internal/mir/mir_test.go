package mir

import (
	"maps"
	"slices"
	"strings"
	"testing"

	"firmup/internal/uir"
)

// tiny hand-built procedure: f(a) { if a < 10 { return a+1 } return 0 }
func sampleProc() *Proc {
	p := &Proc{Name: "f", NParams: 1, NVRegs: 1}
	c10 := p.NewVReg()
	cond := p.NewVReg()
	one := p.NewVReg()
	sum := p.NewVReg()
	zero := p.NewVReg()
	p.Blocks = []*Block{
		{ID: 0, Instrs: []Instr{
			{Kind: KMovConst, Dst: c10, Const: 10},
			{Kind: KBin, Op: uir.OpCmpLTS, Dst: cond, A: 0, B: c10},
		}, Term: Term{Kind: TBranch, Cond: cond, True: 1, False: 2}},
		{ID: 1, Instrs: []Instr{
			{Kind: KMovConst, Dst: one, Const: 1},
			{Kind: KBin, Op: uir.OpAdd, Dst: sum, A: 0, B: one},
		}, Term: Term{Kind: TRet, RetVal: sum}},
		{ID: 2, Instrs: []Instr{
			{Kind: KMovConst, Dst: zero, Const: 0},
		}, Term: Term{Kind: TRet, RetVal: zero}},
	}
	return p
}

func TestValidateAcceptsSample(t *testing.T) {
	if err := sampleProc().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadStructures(t *testing.T) {
	p := sampleProc()
	p.Blocks[0].Term.True = 99
	if err := p.Validate(); err == nil {
		t.Error("out-of-range branch target accepted")
	}

	p = sampleProc()
	p.Blocks[1].ID = 7
	if err := p.Validate(); err == nil {
		t.Error("mismatched block ID accepted")
	}

	p = sampleProc()
	p.Blocks[0].Instrs[0].Dst = 99
	if err := p.Validate(); err == nil {
		t.Error("out-of-range register accepted")
	}

	p = sampleProc()
	p.Blocks[0].Instrs = append(p.Blocks[0].Instrs, Instr{Kind: KLoad, Dst: 1, A: 0, Size: 2})
	if err := p.Validate(); err == nil {
		t.Error("bad access size accepted")
	}

	p = sampleProc()
	p.Blocks[0].Instrs = append(p.Blocks[0].Instrs, Instr{Kind: KAddrStack, Dst: 1, Const: 3})
	if err := p.Validate(); err == nil {
		t.Error("missing slot accepted")
	}
}

func TestInterpRunsSample(t *testing.T) {
	pkg := &Package{Name: "p", Procs: []*Proc{sampleProc()}}
	in := NewInterp(pkg)
	if v, err := in.Call("f", 5); err != nil || v != 6 {
		t.Errorf("f(5) = %d, %v", v, err)
	}
	if v, _ := in.Call("f", 50); v != 0 {
		t.Errorf("f(50) = %d", v)
	}
	if _, err := in.Call("nosuch"); err == nil {
		t.Error("unknown procedure accepted")
	}
}

func TestInterpGlobalsAndMemory(t *testing.T) {
	g := Global{Name: "tbl", Data: []byte{1, 0, 0, 0, 2, 0, 0, 0}}
	// f() { return tbl[1]; } — load word at &tbl + 4.
	p := &Proc{Name: "f", NVRegs: 0}
	addr := p.NewVReg()
	four := p.NewVReg()
	sum := p.NewVReg()
	val := p.NewVReg()
	p.Blocks = []*Block{{ID: 0, Instrs: []Instr{
		{Kind: KAddrGlobal, Dst: addr, Sym: "tbl"},
		{Kind: KMovConst, Dst: four, Const: 4},
		{Kind: KBin, Op: uir.OpAdd, Dst: sum, A: addr, B: four},
		{Kind: KLoad, Dst: val, A: sum, Size: 4},
	}, Term: Term{Kind: TRet, RetVal: val}}}
	pkg := &Package{Procs: []*Proc{p}, Globals: []Global{g}}
	in := NewInterp(pkg)
	if v, err := in.Call("f"); err != nil || v != 2 {
		t.Errorf("f() = %d, %v", v, err)
	}
}

func TestInstrStringAndAccessors(t *testing.T) {
	ins := Instr{Kind: KCall, Dst: 3, Sym: "callee", Args: []VReg{1, 2}}
	if s := ins.String(); !strings.Contains(s, "callee") {
		t.Errorf("String = %q", s)
	}
	if got := ins.Uses(); len(got) != 2 {
		t.Errorf("Uses = %v", got)
	}
	store := Instr{Kind: KStore, A: 1, B: 2, Size: 4}
	if store.Def() != NoReg {
		t.Error("store must define nothing")
	}
	if len(store.Uses()) != 2 {
		t.Error("store uses addr and value")
	}
	term := Term{Kind: TBranch, Cond: 1, True: 2, False: 3}
	if s := term.Succs(); len(s) != 2 || s[0] != 2 || s[1] != 3 {
		t.Errorf("Succs = %v", s)
	}
	if s := (Term{Kind: TRet}).Succs(); len(s) != 0 {
		t.Errorf("ret Succs = %v", s)
	}
	if !strings.Contains(sampleProc().String(), "proc f") {
		t.Error("proc String")
	}
	shift := func(r VReg) VReg { return r + 10 }
	if !ins.MapUses(shift) || !slices.Equal(ins.Args, []VReg{11, 12}) || ins.Dst != 3 {
		t.Errorf("MapUses on a call: %s", ins)
	}
	if !store.MapUses(shift) || store.A != 11 || store.B != 12 {
		t.Errorf("MapUses on a store: %s", store)
	}
	if store.MapUses(func(r VReg) VReg { return r }) {
		t.Error("MapUses reports a change for the identity")
	}
	if sampleProc().HasCall() {
		t.Error("HasCall on a proc without calls")
	}
}

func TestInterpTracksCalls(t *testing.T) {
	callee := &Proc{Name: "g", NParams: 1, NVRegs: 1}
	callee.Blocks = []*Block{{ID: 0, Term: Term{Kind: TRet, RetVal: 0}}}
	caller := &Proc{Name: "f", NVRegs: 0}
	arg := caller.NewVReg()
	ret := caller.NewVReg()
	caller.Blocks = []*Block{{ID: 0, Instrs: []Instr{
		{Kind: KMovConst, Dst: arg, Const: 7},
		{Kind: KCall, Dst: ret, Sym: "g", Args: []VReg{arg}},
	}, Term: Term{Kind: TRet, RetVal: ret}}}
	pkg := &Package{Procs: []*Proc{caller, callee}}
	in := NewInterp(pkg)
	v, err := in.Call("f")
	if err != nil || v != 7 {
		t.Fatalf("f() = %d, %v", v, err)
	}
	if len(in.Trace) != 2 || in.Trace[1] != "g/1" {
		t.Errorf("trace = %v", in.Trace)
	}
}

// loopProc is f(n) { acc = 0; for i = 0; i < n; i++ { acc += i }; return acc },
// with the loop's back edge b2 -> b1. The compare result v3 is read only
// by b1's branch, and acc (v1) only by b2 and b3's return.
func loopProc() *Proc {
	p := &Proc{Name: "f", NParams: 1, NVRegs: 1}
	n := VReg(0)
	acc, i, lt, one := p.NewVReg(), p.NewVReg(), p.NewVReg(), p.NewVReg()
	p.Blocks = []*Block{
		{ID: 0, Instrs: []Instr{
			{Kind: KMovConst, Dst: acc, Const: 0},
			{Kind: KMovConst, Dst: i, Const: 0},
		}, Term: Term{Kind: TJump, True: 1}},
		{ID: 1, Instrs: []Instr{
			{Kind: KBin, Op: uir.OpCmpLTS, Dst: lt, A: i, B: n},
		}, Term: Term{Kind: TBranch, Cond: lt, True: 2, False: 3}},
		{ID: 2, Instrs: []Instr{
			{Kind: KMovConst, Dst: one, Const: 1},
			{Kind: KBin, Op: uir.OpAdd, Dst: acc, A: acc, B: i},
			{Kind: KBin, Op: uir.OpAdd, Dst: i, A: i, B: one},
		}, Term: Term{Kind: TJump, True: 1}},
		{ID: 3, Term: Term{Kind: TRet, RetVal: acc}},
	}
	return p
}

func TestTermUses(t *testing.T) {
	for _, tc := range []struct {
		term Term
		want []VReg
	}{
		{Term{Kind: TJump, True: 1}, nil},
		{Term{Kind: TBranch, Cond: 3, True: 2, False: 3}, []VReg{3}},
		{Term{Kind: TRet, RetVal: 1}, []VReg{1}},
		{Term{Kind: TRet, RetVal: NoReg}, nil},
	} {
		if got := tc.term.Uses(); !slices.Equal(got, tc.want) {
			t.Errorf("%s: Uses = %v, want %v", tc.term, got, tc.want)
		}
	}
}

func TestLiveness(t *testing.T) {
	p := loopProc()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	set := func(vs ...VReg) map[VReg]bool {
		m := map[VReg]bool{}
		for _, v := range vs {
			m[v] = true
		}
		return m
	}
	// n stays live around the whole loop, b2 included, only through the
	// back edge; lt is live out of b1 only because its branch reads it.
	wantIn := []map[VReg]bool{set(0), set(0, 1, 2), set(0, 1, 2), set(1)}
	wantOut := []map[VReg]bool{set(0, 1, 2), set(0, 1, 2, 3), set(0, 1, 2), set(1)}
	liveIn := p.LiveIn()
	if len(liveIn) != len(p.Blocks) {
		t.Fatalf("LiveIn has %d sets for %d blocks", len(liveIn), len(p.Blocks))
	}
	for bi := range p.Blocks {
		if !maps.Equal(liveIn[bi], wantIn[bi]) {
			t.Errorf("b%d: live-in %v, want %v", bi, liveIn[bi], wantIn[bi])
		}
		if got := p.LiveOut(liveIn, bi); !maps.Equal(got, wantOut[bi]) {
			t.Errorf("b%d: live-out %v, want %v", bi, got, wantOut[bi])
		}
	}
	// LiveOut hands back a set of its own: changing it leaves liveIn alone.
	out := p.LiveOut(liveIn, 2)
	delete(out, 0)
	if !liveIn[1][0] {
		t.Error("LiveOut aliases a successor's live-in set")
	}
}
