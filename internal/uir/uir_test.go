package uir

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestOperandString(t *testing.T) {
	cases := []struct {
		o    Operand
		want string
	}{
		{T(3), "t3"},
		{C(0x1f), "0x1f"},
		{CK(0x400000, ConstCode), "code:0x400000"},
		{CK(0x10008000, ConstData), "data:0x10008000"},
	}
	for _, c := range cases {
		if got := c.o.String(); got != c.want {
			t.Errorf("String(%#v) = %q, want %q", c.o, got, c.want)
		}
	}
}

func TestOpProperties(t *testing.T) {
	comm := map[Op]bool{OpAdd: true, OpMul: true, OpAnd: true, OpOr: true, OpXor: true, OpCmpEQ: true, OpCmpNE: true}
	for op := OpAdd; op < opCount; op++ {
		if got := op.IsCommutative(); got != comm[op] {
			t.Errorf("%v.IsCommutative() = %v, want %v", op, got, comm[op])
		}
	}
	if !OpCmpEQ.IsCompare() || !OpCmpLES.IsCompare() || OpAdd.IsCompare() {
		t.Error("IsCompare misclassifies")
	}
}

func TestOpStringsDistinct(t *testing.T) {
	seen := map[string]Op{}
	for op := OpAdd; op < opCount; op++ {
		s := op.String()
		if s == "" || strings.HasPrefix(s, "op(") {
			t.Errorf("op %d has no mnemonic", op)
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("ops %v and %v share mnemonic %q", prev, op, s)
		}
		seen[s] = op
	}
}

// TestEvalBinMatchesGo cross-checks a few ops against Go's semantics on
// random values.
func TestEvalBinMatchesGo(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		a, b := r.Uint32(), r.Uint32()
		checks := []struct {
			op   Op
			want uint32
		}{
			{OpAdd, a + b},
			{OpSub, a - b},
			{OpMul, a * b},
			{OpAnd, a & b},
			{OpOr, a | b},
			{OpXor, a ^ b},
			{OpShl, a << (b & 31)},
			{OpShrU, a >> (b & 31)},
			{OpShrS, uint32(int32(a) >> (b & 31))},
		}
		for _, c := range checks {
			if got := EvalBin(c.op, a, b); got != c.want {
				t.Fatalf("EvalBin(%v, %#x, %#x) = %#x, want %#x", c.op, a, b, got, c.want)
			}
		}
	}
}

func TestEvalDivByZero(t *testing.T) {
	for _, op := range []Op{OpDivU, OpDivS, OpRemU, OpRemS} {
		if got := EvalBin(op, 1234, 0); got != 0 {
			t.Errorf("EvalBin(%v, 1234, 0) = %d, want 0", op, got)
		}
	}
	// INT_MIN / -1 must not fault.
	if got := EvalBin(OpDivS, 0x80000000, 0xFFFFFFFF); got != 0x80000000 {
		t.Errorf("INT_MIN/-1 = %#x, want 0x80000000", got)
	}
	if got := EvalBin(OpRemS, 0x80000000, 0xFFFFFFFF); got != 0 {
		t.Errorf("INT_MIN%%-1 = %#x, want 0", got)
	}
}

// Property: sign extension then zero extension of the same width recovers
// the low bits.
func TestExtensionProperty(t *testing.T) {
	f := func(x uint32) bool {
		return EvalUn(OpZext8, EvalUn(OpSext8, x)) == x&0xFF &&
			EvalUn(OpZext16, EvalUn(OpSext16, x)) == x&0xFFFF
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: comparisons are consistent with each other.
func TestCompareConsistency(t *testing.T) {
	f := func(a, b uint32) bool {
		eq := EvalBin(OpCmpEQ, a, b)
		ne := EvalBin(OpCmpNE, a, b)
		ltu := EvalBin(OpCmpLTU, a, b)
		leu := EvalBin(OpCmpLEU, a, b)
		lts := EvalBin(OpCmpLTS, a, b)
		les := EvalBin(OpCmpLES, a, b)
		if eq^ne != 1 {
			return false
		}
		if leu != (ltu | eq) {
			return false
		}
		if les != (lts | eq) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMachineMemory(t *testing.T) {
	m := NewMachine()
	m.WriteMem(100, 0xAABBCCDD, 4)
	if got := m.ReadMem(100, 4); got != 0xAABBCCDD {
		t.Fatalf("ReadMem = %#x", got)
	}
	if got := m.ReadMem(100, 1); got != 0xDD {
		t.Errorf("byte read = %#x, want 0xDD (little-endian)", got)
	}
	if got := m.ReadMem(102, 2); got != 0xAABB {
		t.Errorf("half read = %#x, want 0xAABB", got)
	}
	m.WriteMem(100, 0x11, 1)
	if got := m.ReadMem(100, 4); got != 0xAABBCC11 {
		t.Errorf("after byte write: %#x", got)
	}
}

func TestRunBlockBasic(t *testing.T) {
	// t0 = get r1; t1 = add t0, 5; put r2 = t1
	b := &Block{Addr: 0x1000, Size: 8, Stmts: []Stmt{
		{Kind: StmtGet, Dst: 0, Reg: 1},
		{Kind: StmtBin, Dst: 1, Op: OpAdd, A: T(0), B: C(5)},
		{Kind: StmtPut, Reg: 2, A: T(1)},
	}}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	m := NewMachine()
	m.Regs[1] = 37
	if err := m.RunBlock(b); err != nil {
		t.Fatal(err)
	}
	if m.Regs[2] != 42 {
		t.Errorf("r2 = %d, want 42", m.Regs[2])
	}
	if m.Exited != nil {
		t.Error("unexpected exit")
	}
}

func TestRunBlockCondExit(t *testing.T) {
	mk := func(r1 uint32) *Machine {
		b := &Block{Addr: 0, Size: 8, Stmts: []Stmt{
			{Kind: StmtGet, Dst: 0, Reg: 1},
			{Kind: StmtBin, Dst: 1, Op: OpCmpEQ, A: T(0), B: C(0x1F)},
			{Kind: StmtExit, Exit: ExitCond, C: T(1), A: CK(0x40E744, ConstCode)},
			{Kind: StmtPut, Reg: 5, A: C(1)},
		}}
		m := NewMachine()
		m.Regs[1] = r1
		if err := m.RunBlock(b); err != nil {
			t.Fatal(err)
		}
		return m
	}
	taken := mk(0x1F)
	if taken.Exited == nil || taken.Exited.A.Val != 0x40E744 {
		t.Error("branch should be taken for 0x1F")
	}
	if _, wrote := taken.Regs[5]; wrote {
		t.Error("statements after taken exit must not execute")
	}
	fallthru := mk(7)
	if fallthru.Exited != nil {
		t.Error("branch must fall through for 7")
	}
	if fallthru.Regs[5] != 1 {
		t.Error("fallthrough must execute trailing statements")
	}
}

func TestRunBlockCallRecording(t *testing.T) {
	b := &Block{Stmts: []Stmt{
		{Kind: StmtCall, A: CK(0x40B2AC, ConstCode)},
		{Kind: StmtCall, A: CK(0x401000, ConstCode)},
	}}
	m := NewMachine()
	if err := m.RunBlock(b); err != nil {
		t.Fatal(err)
	}
	if len(m.Calls) != 2 || m.Calls[0].Val != 0x40B2AC {
		t.Errorf("calls = %v", m.Calls)
	}
}

func TestValidateCatchesSSAViolation(t *testing.T) {
	b := &Block{Stmts: []Stmt{
		{Kind: StmtMov, Dst: 0, A: C(1)},
		{Kind: StmtMov, Dst: 0, A: C(2)},
	}}
	if err := b.Validate(); err == nil {
		t.Error("double assignment must fail validation")
	}
	b2 := &Block{Stmts: []Stmt{
		{Kind: StmtBin, Dst: 0, Op: OpAdd, A: T(7), B: C(1)},
	}}
	if err := b2.Validate(); err == nil {
		t.Error("use of undefined temp must fail validation")
	}
}

func TestBlockSuccs(t *testing.T) {
	b := &Block{Addr: 0x100, Size: 16, Stmts: []Stmt{
		{Kind: StmtExit, Exit: ExitCond, C: T(0), A: CK(0x200, ConstCode)},
	}}
	// Cond exit + fallthrough.
	b.Stmts = append([]Stmt{{Kind: StmtMov, Dst: 0, A: C(1)}}, b.Stmts...)
	got := b.Succs(nil)
	if len(got) != 2 || got[0] != 0x200 || got[1] != 0x110 {
		t.Errorf("Succs = %v, want [0x200 0x110]", got)
	}
	j := &Block{Addr: 0, Size: 4, Stmts: []Stmt{{Kind: StmtExit, Exit: ExitJump, A: CK(0x300, ConstCode)}}}
	if got := j.Succs(nil); len(got) != 1 || got[0] != 0x300 {
		t.Errorf("jump Succs = %v", got)
	}
	r := &Block{Addr: 0, Size: 4, Stmts: []Stmt{{Kind: StmtExit, Exit: ExitRet}}}
	if got := r.Succs(nil); len(got) != 0 {
		t.Errorf("ret Succs = %v, want empty", got)
	}
}

func TestArchString(t *testing.T) {
	want := map[Arch]string{ArchMIPS32: "mips32", ArchARM32: "arm32", ArchPPC32: "ppc32", ArchX86: "x86", ArchNone: "none"}
	for a, w := range want {
		if a.String() != w {
			t.Errorf("Arch(%d).String() = %q, want %q", a, a.String(), w)
		}
	}
}

// TestStmtIsPointerFree pins the property the per-executable statement
// arena rests on: no field of Stmt, at any depth, is a pointer, slice,
// map, string, interface, channel or function, so a []Stmt is memory the
// garbage collector never scans and building a statement never boxes.
func TestStmtIsPointerFree(t *testing.T) {
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				f := ty.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", ty.Elem())
		case reflect.Bool, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		default:
			t.Errorf("%s has kind %v; Stmt must hold fixed-width scalars only", path, ty.Kind())
		}
	}
	walk("Stmt", reflect.TypeOf(Stmt{}))
	if size := reflect.TypeOf(Stmt{}).Size(); size > 48 {
		t.Errorf("Stmt is %d bytes, want at most 48 (three 12-byte operands and a 12-byte header)", size)
	}
}
