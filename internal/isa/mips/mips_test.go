package mips

import (
	"testing"

	"firmup/internal/compiler"
	"firmup/internal/isa"
	"firmup/internal/isa/isatest"
	"firmup/internal/mir"
	"firmup/internal/uir"
)

const testSrc = `
package demo version "1.0"

var counter = 0;
var table[4] = {3, 1, 4, 1};
var msg = "hello";

func leaf_add(a, b) { return a + b; }
func mixops(a, b) {
    return ((a ^ b) & 0xFF) | (a << 3) - (b >> 1);
}
func muldiv(a, b) {
    if b == 0 { return 0; }
    return (a * b) + (a / b) + (a % b);
}
func unsigned_cmp(a, b) {
    var r = 0;
    if a < b { r = r | 1; }
    if a <= b { r = r | 2; }
    if a > b { r = r | 4; }
    if a >= b { r = r | 8; }
    if a == b { r = r | 16; }
    if a != b { r = r | 32; }
    return r;
}
func sum_to(n) {
    var s = 0;
    for var i = 0; i < n; i = i + 1 { s = s + i; }
    return s;
}
func table_sum() {
    var s = 0;
    for var i = 0; i < 4; i = i + 1 { s = s + table[i]; }
    return s;
}
func touch_global(v) {
    counter = counter + v;
    return counter;
}
func strload(i) { return msg[i]; }
func buf_fill(n) {
    var buf[8];
    var i = 0;
    while i < n {
        buf[i] = i * i;
        i = i + 1;
    }
    return buf[n - 1];
}
func negnot(x) { return -x + ~x + !x; }
func deep(a, b) {
    var x = leaf_add(a, b);
    var y = mixops(x, a);
    return muldiv(y, b + 1) + sum_to(a & 7);
}
func spill_pressure(a, b, c, d) {
    var e = a + b; var f = b + c; var g = c + d; var h = d + a;
    var i = a * 2; var j = b * 3; var k = c * 5; var l = d * 7;
    var m = e + f + g + h;
    var n = i + j + k + l;
    return m * n + e * i + f * j + g * k + h * l;
}
`

type call struct {
	fn   string
	args []uint32
}

var calls = []call{
	{"leaf_add", []uint32{3, 4}},
	{"mixops", []uint32{0x1234, 0x00FF}},
	{"muldiv", []uint32{100, 7}},
	{"muldiv", []uint32{100, 0}},
	{"muldiv", []uint32{0xFFFFFF9C, 7}}, // -100
	{"unsigned_cmp", []uint32{3, 7}},
	{"unsigned_cmp", []uint32{7, 3}},
	{"unsigned_cmp", []uint32{5, 5}},
	{"unsigned_cmp", []uint32{0xFFFFFFFF, 1}}, // signed -1 < 1
	{"sum_to", []uint32{10}},
	{"table_sum", nil},
	{"touch_global", []uint32{5}},
	{"touch_global", []uint32{7}},
	{"strload", []uint32{1}},
	{"buf_fill", []uint32{6}},
	{"negnot", []uint32{9}},
	{"deep", []uint32{5, 3}},
	{"spill_pressure", []uint32{2, 3, 4, 5}},
}

// runPair compiles testSrc under the profile, then runs every call both
// in the MIR interpreter and on generated machine code via the lifter,
// requiring identical results.
func runPair(t *testing.T, be isa.Backend, prof compiler.Profile, opt isa.Options) {
	t.Helper()
	pkg, err := compiler.CompileToMIR(testSrc, prof)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	art, err := be.Generate(pkg, opt)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	ref := mir.NewInterp(pkg)
	ex := isa.NewExecutor(be, art)
	for _, c := range calls {
		want, err := ref.Call(c.fn, c.args...)
		if err != nil {
			t.Fatalf("mir %s%v: %v", c.fn, c.args, err)
		}
		got, err := ex.CallProc(c.fn, c.args...)
		if err != nil {
			t.Fatalf("exec %s%v: %v", c.fn, c.args, err)
		}
		if got != want {
			t.Errorf("%s%v = %#x on machine, want %#x (MIR)", c.fn, c.args, got, want)
		}
	}
}

func TestExecutionMatchesMIR(t *testing.T) {
	be := New()
	for level := 0; level <= 3; level++ {
		prof := compiler.Profile{OptLevel: level}
		opt := isa.Options{TextBase: 0x400000}
		runPair(t, be, prof, opt)
	}
}

func TestExecutionUnderToolchainVariance(t *testing.T) {
	be := New()
	variants := []isa.Options{
		{TextBase: 0x400000, RegSeed: 7, SchedSeed: 13, MulByShift: true},
		{TextBase: 0x80001000, RegSeed: 99, SchedSeed: 5, ShuffleProcs: true},
		{TextBase: 0x10000, RegSeed: 3, MulByShift: true, ShuffleProcs: true},
	}
	for i, opt := range variants {
		prof := compiler.Profile{OptLevel: 2}
		t.Logf("variant %d", i)
		runPair(t, be, prof, opt)
	}
}

// Every emitted instruction must decode back successfully.
func TestFullDisassembly(t *testing.T) {
	be := New()
	pkg, err := compiler.CompileToMIR(testSrc, compiler.Profile{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	art, err := be.Generate(pkg, isa.Options{TextBase: 0x400000})
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(art.Text); off += 4 {
		addr := art.TextBase + uint32(off)
		if _, err := be.Decode(art.Text, off, addr); err != nil {
			t.Fatalf("decode at %#x: %v", addr, err)
		}
	}
}

func TestDecodeBranchTargets(t *testing.T) {
	be := New()
	// beq $t0, $t1, +8 words encoded manually.
	w := itype(opBeq, regT1, regT0, 8)
	buf := []byte{byte(w >> 24), byte(w >> 16), byte(w >> 8), byte(w)}
	inst, err := be.Decode(buf, 0, 0x1000)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Kind != isa.KindCondBranch || !inst.HasDelay {
		t.Errorf("kind = %v delay=%v", inst.Kind, inst.HasDelay)
	}
	if inst.Target != 0x1000+4+8*4 {
		t.Errorf("target = %#x", inst.Target)
	}
}

func TestZeroRegisterLiftsToConstant(t *testing.T) {
	be := New()
	// addu $s0, $zero, $zero
	w := rtype(fnAddu, regS0, regZero, regZero)
	buf := []byte{byte(w >> 24), byte(w >> 16), byte(w >> 8), byte(w)}
	inst, err := be.Decode(buf, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	lb := &isa.LiftBuilder{}
	if err := be.Lift(inst, lb); err != nil {
		t.Fatal(err)
	}
	for _, s := range lb.Stmts {
		if s.Kind == uir.StmtGet {
			t.Errorf("lift of $zero read produced Get r%d; want constant", s.Reg)
		}
	}
}

func TestProcShuffleChangesLayoutNotBehavior(t *testing.T) {
	be := New()
	pkg, err := compiler.CompileToMIR(testSrc, compiler.Profile{OptLevel: 1})
	if err != nil {
		t.Fatal(err)
	}
	a1, err := be.Generate(pkg, isa.Options{TextBase: 0x400000})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := be.Generate(pkg, isa.Options{TextBase: 0x400000, RegSeed: 42, ShuffleProcs: true})
	if err != nil {
		t.Fatal(err)
	}
	s1, _ := a1.ProcSym("deep")
	s2, _ := a2.ProcSym("deep")
	if s1.Addr == s2.Addr {
		t.Log("shuffle left deep at the same address (possible but unlikely)")
	}
	ex := isa.NewExecutor(be, a2)
	got, err := ex.CallProc("deep", 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	ref := mir.NewInterp(pkg)
	want, _ := ref.Call("deep", 5, 3)
	if got != want {
		t.Errorf("shuffled deep(5,3) = %d, want %d", got, want)
	}
}

func TestDecodeRobustness(t *testing.T) { isatest.DecodeRobustness(t, New(), 1) }

// Delay-slot filling must actually fire (non-nop delay slots present) and
// preserve behavior (checked against the MIR reference).
func TestDelaySlotFilling(t *testing.T) {
	be := New()
	prof := compiler.Profile{OptLevel: 2}
	runPair(t, be, prof, isa.Options{TextBase: 0x400000, FillDelaySlots: true})

	pkg, err := compiler.CompileToMIR(testSrc, prof)
	if err != nil {
		t.Fatal(err)
	}
	countNopSlots := func(fill bool) (filled, total int) {
		art, err := be.Generate(pkg, isa.Options{TextBase: 0x400000, FillDelaySlots: fill})
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off+4 < len(art.Text); off += 4 {
			inst, err := be.Decode(art.Text, off, art.TextBase+uint32(off))
			if err != nil || !inst.HasDelay {
				continue
			}
			total++
			dw := art.Text[off+4 : off+8]
			if dw[0]|dw[1]|dw[2]|dw[3] != 0 {
				filled++
			}
			off += 4
		}
		return
	}
	f0, t0 := countNopSlots(false)
	f1, t1 := countNopSlots(true)
	if f0 != 0 {
		t.Errorf("without filling, %d/%d delay slots non-nop", f0, t0)
	}
	if f1 == 0 {
		t.Errorf("with filling, no delay slot was filled (%d transfers)", t1)
	}
	t.Logf("filled %d of %d delay slots", f1, t1)
}
