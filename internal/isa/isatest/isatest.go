// Package isatest provides the shared backend conformance suite: every
// ISA backend must compile the same firmlang program, under several
// tool-chain variants, and execute it (via its own decoder and lifter)
// with results identical to the MIR reference interpreter.
package isatest

import (
	"strings"
	"testing"

	"firmup/internal/compiler"
	"firmup/internal/isa"
	"firmup/internal/mir"
	"firmup/internal/uir"
)

// Source is the conformance program; it exercises arithmetic, signedness,
// memory, globals, strings, control flow, calls and register pressure.
const Source = `
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
func cmp_matrix(a, b) {
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
func bytes_copy(n) {
    var src[4];
    var dst[4];
    src[0] = 0x11223344;
    src[1] = 0x55667788;
    var i = 0;
    while i < n {
        dst[i] = src[i];
        i = i + 1;
    }
    return dst[0] + dst[1];
}
func logical(a, b) {
    if a > 2 && b < 5 { return 1; }
    if a == 0 || b == 0 { return 2; }
    return 3;
}
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
func mul8(x) { return x * 8; }
`

// Call is one conformance invocation.
type Call struct {
	Fn   string
	Args []uint32
}

// Calls is the conformance battery.
var Calls = []Call{
	{"leaf_add", []uint32{3, 4}},
	{"mixops", []uint32{0x1234, 0x00FF}},
	{"muldiv", []uint32{100, 7}},
	{"muldiv", []uint32{100, 0}},
	{"muldiv", []uint32{0xFFFFFF9C, 7}}, // -100
	{"cmp_matrix", []uint32{3, 7}},
	{"cmp_matrix", []uint32{7, 3}},
	{"cmp_matrix", []uint32{5, 5}},
	{"cmp_matrix", []uint32{0xFFFFFFFF, 1}}, // signed -1 < 1
	{"sum_to", []uint32{10}},
	{"table_sum", nil},
	{"touch_global", []uint32{5}},
	{"touch_global", []uint32{7}},
	{"strload", []uint32{1}},
	{"buf_fill", []uint32{6}},
	{"negnot", []uint32{9}},
	{"bytes_copy", []uint32{2}},
	{"logical", []uint32{3, 4}},
	{"logical", []uint32{0, 9}},
	{"logical", []uint32{1, 7}},
	{"deep", []uint32{5, 3}},
	{"spill_pressure", []uint32{2, 3, 4, 5}},
	{"mul8", []uint32{7}},
}

// RunPair compiles Source under prof, generates code with be, and checks
// machine execution against the MIR interpreter for every call.
func RunPair(t *testing.T, be isa.Backend, prof compiler.Profile, opt isa.Options) {
	t.Helper()
	pkg, err := compiler.CompileToMIR(Source, prof)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	art, err := be.Generate(pkg, opt)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	ref := mir.NewInterp(pkg)
	ex := isa.NewExecutor(be, art)
	for _, c := range Calls {
		want, err := ref.Call(c.Fn, c.Args...)
		if err != nil {
			t.Fatalf("mir %s%v: %v", c.Fn, c.Args, err)
		}
		got, err := ex.CallProc(c.Fn, c.Args...)
		if err != nil {
			t.Fatalf("exec %s%v: %v", c.Fn, c.Args, err)
		}
		if got != want {
			t.Errorf("%s%v = %#x on machine, want %#x (MIR)", c.Fn, c.Args, got, want)
		}
	}
}

// Conformance runs the full matrix: optimization levels crossed with
// tool-chain perturbations.
func Conformance(t *testing.T, be isa.Backend) {
	t.Helper()
	for level := 0; level <= 3; level++ {
		prof := compiler.Profile{OptLevel: level}
		RunPair(t, be, prof, isa.Options{TextBase: 0x400000})
	}
	variants := []isa.Options{
		{TextBase: 0x400000, RegSeed: 7, SchedSeed: 13, MulByShift: true},
		{TextBase: 0x80001000, RegSeed: 99, SchedSeed: 5, ShuffleProcs: true},
		{TextBase: 0x10000, RegSeed: 3, MulByShift: true, ShuffleProcs: true},
		{TextBase: 0x400000, RegSeed: 11, SchedSeed: 3, FillDelaySlots: true},
		{TextBase: 0x80400000, RegSeed: 23, MulByShift: true, ShuffleProcs: true, FillDelaySlots: true},
	}
	for _, opt := range variants {
		RunPair(t, be, compiler.Profile{OptLevel: 2}, opt)
	}
}

// Disassembly checks that every instruction the backend emitted can be
// decoded back, walking the text section linearly.
func Disassembly(t *testing.T, be isa.Backend) {
	t.Helper()
	pkg, err := compiler.CompileToMIR(Source, compiler.Profile{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	art, err := be.Generate(pkg, isa.Options{TextBase: 0x400000})
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(art.Text); {
		addr := art.TextBase + uint32(off)
		inst, err := be.Decode(art.Text, off, addr)
		if err != nil {
			t.Fatalf("decode at %#x: %v", addr, err)
		}
		if inst.Size == 0 {
			t.Fatalf("zero-size instruction at %#x", addr)
		}
		if text := be.Disasm(inst); text == "" || strings.HasPrefix(text, ".word") {
			t.Errorf("no mnemonic at %#x (got %q)", addr, text)
		}
		off += int(inst.Size)
	}
}

// DecodeRobustness feeds random bytes to the decoder: it must never
// panic, and any successful decode must report a sane size and lift
// without panicking (errors are fine — firmware text sections contain
// junk the paper's pipeline also had to survive).
func DecodeRobustness(t *testing.T, be isa.Backend, seed int64) {
	t.Helper()
	rng := isa.NewRNG(uint64(seed))
	buf := make([]byte, 64)
	for trial := 0; trial < 5000; trial++ {
		for i := range buf {
			buf[i] = byte(rng.Next())
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: decoder panicked on %x: %v", trial, buf, r)
				}
			}()
			inst, err := be.Decode(buf, 0, 0x1000)
			if err != nil {
				return
			}
			if inst.Size == 0 || inst.Size > 16 {
				t.Fatalf("trial %d: implausible size %d for %x", trial, inst.Size, buf[:8])
			}
			lb := &isa.LiftBuilder{}
			_ = be.Lift(inst, lb) // must not panic
			blk := &uir.Block{Addr: 0x1000, Size: inst.Size, Stmts: lb.Stmts}
			if err := blk.Validate(); err != nil {
				t.Fatalf("trial %d: lift of %q produced invalid block: %v", trial, be.Disasm(inst), err)
			}
		}()
	}
}
