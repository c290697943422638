// Package compiler translates firmlang packages to MIR and then, through
// the per-ISA backends in internal/isa, to machine code inside FWELF
// executables.
//
// A central concern of the FirmUp paper is that the same source compiled
// by different vendors looks syntactically unrelated. This package
// reproduces that honestly: compilation is parameterized by a Profile
// (optimization level, inlining threshold, instruction-selection idioms,
// scheduling jitter, feature flags), and the corpus compiles every package
// under per-vendor profiles.
package compiler

import (
	"fmt"

	"firmup/internal/mir"
	"firmup/internal/source"
	"firmup/internal/uir"
)

// Lower translates a checked firmlang package to MIR, honoring the
// enabled feature set: procedures guarded by a disabled feature are
// omitted and calls to them compile to the constant 0, the mechanism
// behind the paper's --disable-opie structural variance.
func Lower(info *source.PackageInfo, features map[string]bool) (*mir.Package, error) {
	pkg := &mir.Package{Name: info.File.Package, Version: info.File.Version}
	// Globals in declaration order.
	strPool := map[string]string{} // literal -> symbol
	for _, d := range info.File.Decls {
		v, ok := d.(*source.VarDecl)
		if !ok {
			continue
		}
		pkg.Globals = append(pkg.Globals, globalData(v))
	}
	enabled := func(fn *source.FuncDecl) bool {
		return fn.Feature == "" || features[fn.Feature]
	}
	for _, name := range info.FuncNames {
		fn := info.Funcs[name]
		if !enabled(fn) {
			continue
		}
		lw := &lowerer{
			info:     info,
			pkg:      pkg,
			features: features,
			strPool:  strPool,
			proc: &mir.Proc{
				Name:    fn.Name,
				NParams: len(fn.Params),
				NVRegs:  len(fn.Params),
				Feature: fn.Feature,
			},
			vars: map[string]varBinding{},
		}
		for i, p := range fn.Params {
			lw.vars[p] = varBinding{kind: bindVReg, vreg: mir.VReg(i)}
		}
		if err := lw.run(fn); err != nil {
			return nil, err
		}
		pkg.Procs = append(pkg.Procs, lw.proc)
	}
	return pkg, nil
}

// globalData lays out one global's bytes.
func globalData(v *source.VarDecl) mir.Global {
	g := mir.Global{Name: v.Name}
	switch {
	case v.IsStr:
		g.Data = append([]byte(v.Str), 0)
		g.RO = true
	case v.Size > 0:
		g.Data = make([]byte, 4*v.Size)
		for i, x := range v.Init {
			putWord(g.Data, 4*i, uint32(x))
		}
	default:
		g.Data = make([]byte, 4)
		if len(v.Init) == 1 {
			putWord(g.Data, 0, uint32(v.Init[0]))
		}
	}
	return g
}

func putWord(b []byte, off int, v uint32) {
	b[off] = byte(v)
	b[off+1] = byte(v >> 8)
	b[off+2] = byte(v >> 16)
	b[off+3] = byte(v >> 24)
}

type bindKind uint8

const (
	bindVReg bindKind = iota // scalar local/param held in a virtual register
	bindSlot                 // local array in a stack slot
)

type varBinding struct {
	kind bindKind
	vreg mir.VReg
	slot int
}

type loopCtx struct {
	breakTo    int
	continueTo int
}

type lowerer struct {
	info     *source.PackageInfo
	pkg      *mir.Package
	features map[string]bool
	strPool  map[string]string
	proc     *mir.Proc
	vars     map[string]varBinding // flat map; firmlang shadowing handled by save/restore
	cur      *mir.Block
	loops    []loopCtx
	sealed   bool // current block already terminated
}

func (lw *lowerer) newBlock() *mir.Block {
	b := &mir.Block{ID: len(lw.proc.Blocks)}
	lw.proc.Blocks = append(lw.proc.Blocks, b)
	return b
}

// setCur switches emission to block b.
func (lw *lowerer) setCur(b *mir.Block) {
	lw.cur = b
	lw.sealed = false
}

func (lw *lowerer) emit(in mir.Instr) {
	if lw.sealed {
		return // unreachable code after return/break
	}
	lw.cur.Instrs = append(lw.cur.Instrs, in)
}

func (lw *lowerer) terminate(t mir.Term) {
	if lw.sealed {
		return
	}
	lw.cur.Term = t
	lw.sealed = true
}

func (lw *lowerer) run(fn *source.FuncDecl) error {
	entry := lw.newBlock()
	lw.setCur(entry)
	if err := lw.block(fn.Body); err != nil {
		return err
	}
	if !lw.sealed {
		zero := lw.constReg(0)
		lw.terminate(mir.Term{Kind: mir.TRet, RetVal: zero})
	}
	pruneUnreachable(lw.proc)
	return lw.proc.Validate()
}

func (lw *lowerer) constReg(v uint32) mir.VReg {
	d := lw.proc.NewVReg()
	lw.emit(mir.Instr{Kind: mir.KMovConst, Dst: d, Const: v})
	return d
}

// block lowers a block with lexical scoping of variable bindings.
func (lw *lowerer) block(b *source.BlockStmt) error {
	saved := make(map[string]varBinding, len(lw.vars))
	for k, v := range lw.vars {
		saved[k] = v
	}
	defer func() { lw.vars = saved }()
	for _, s := range b.Stmts {
		if err := lw.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (lw *lowerer) stmt(s source.Stmt) error {
	switch v := s.(type) {
	case *source.BlockStmt:
		return lw.block(v)
	case *source.DeclStmt:
		if v.Size > 0 {
			slot := len(lw.proc.Slots)
			lw.proc.Slots = append(lw.proc.Slots, mir.Slot{Name: v.Name, Size: 4 * v.Size})
			lw.vars[v.Name] = varBinding{kind: bindSlot, slot: slot}
			return nil
		}
		var init mir.VReg
		if v.Init != nil {
			r, err := lw.expr(v.Init)
			if err != nil {
				return err
			}
			init = r
		} else {
			init = lw.constReg(0)
		}
		d := lw.proc.NewVReg()
		lw.emit(mir.Instr{Kind: mir.KMovReg, Dst: d, A: init})
		lw.vars[v.Name] = varBinding{kind: bindVReg, vreg: d}
		return nil
	case *source.AssignStmt:
		return lw.assign(v)
	case *source.IfStmt:
		return lw.ifStmt(v)
	case *source.WhileStmt:
		return lw.loop(nil, v.Cond, nil, v.Body)
	case *source.ForStmt:
		// The for clauses introduce a scope.
		saved := make(map[string]varBinding, len(lw.vars))
		for k, b := range lw.vars {
			saved[k] = b
		}
		defer func() { lw.vars = saved }()
		if v.Init != nil {
			if err := lw.stmt(v.Init); err != nil {
				return err
			}
		}
		return lw.loop(nil, v.Cond, v.Post, v.Body)
	case *source.ReturnStmt:
		var r mir.VReg
		if v.Value != nil {
			reg, err := lw.expr(v.Value)
			if err != nil {
				return err
			}
			r = reg
		} else {
			r = lw.constReg(0)
		}
		lw.terminate(mir.Term{Kind: mir.TRet, RetVal: r})
		return nil
	case *source.ExprStmt:
		_, err := lw.expr(v.X)
		return err
	case *source.BreakStmt:
		if len(lw.loops) == 0 {
			return &source.Error{Pos: v.Pos, Msg: "break outside loop"}
		}
		lw.terminate(mir.Term{Kind: mir.TJump, True: lw.loops[len(lw.loops)-1].breakTo})
		return nil
	case *source.ContinueStmt:
		if len(lw.loops) == 0 {
			return &source.Error{Pos: v.Pos, Msg: "continue outside loop"}
		}
		lw.terminate(mir.Term{Kind: mir.TJump, True: lw.loops[len(lw.loops)-1].continueTo})
		return nil
	default:
		return fmt.Errorf("compiler: unknown statement %T", s)
	}
}

func (lw *lowerer) ifStmt(v *source.IfStmt) error {
	thenB := lw.newBlock()
	elseB := lw.newBlock()
	joinB := lw.newBlock()
	cond, err := lw.expr(v.Cond)
	if err != nil {
		return err
	}
	lw.terminate(mir.Term{Kind: mir.TBranch, Cond: cond, True: thenB.ID, False: elseB.ID})
	lw.setCur(thenB)
	if err := lw.block(v.Then); err != nil {
		return err
	}
	lw.terminate(mir.Term{Kind: mir.TJump, True: joinB.ID})
	lw.setCur(elseB)
	if v.Else != nil {
		if err := lw.stmt(v.Else); err != nil {
			return err
		}
	}
	lw.terminate(mir.Term{Kind: mir.TJump, True: joinB.ID})
	lw.setCur(joinB)
	return nil
}

// loop lowers while/for bodies. post may be nil.
func (lw *lowerer) loop(_ source.Stmt, cond source.Expr, post source.Stmt, body *source.BlockStmt) error {
	headB := lw.newBlock()
	bodyB := lw.newBlock()
	postB := lw.newBlock()
	exitB := lw.newBlock()
	lw.terminate(mir.Term{Kind: mir.TJump, True: headB.ID})
	lw.setCur(headB)
	if cond != nil {
		c, err := lw.expr(cond)
		if err != nil {
			return err
		}
		lw.terminate(mir.Term{Kind: mir.TBranch, Cond: c, True: bodyB.ID, False: exitB.ID})
	} else {
		lw.terminate(mir.Term{Kind: mir.TJump, True: bodyB.ID})
	}
	lw.loops = append(lw.loops, loopCtx{breakTo: exitB.ID, continueTo: postB.ID})
	lw.setCur(bodyB)
	if err := lw.block(body); err != nil {
		return err
	}
	lw.terminate(mir.Term{Kind: mir.TJump, True: postB.ID})
	lw.loops = lw.loops[:len(lw.loops)-1]
	lw.setCur(postB)
	if post != nil {
		if err := lw.stmt(post); err != nil {
			return err
		}
	}
	lw.terminate(mir.Term{Kind: mir.TJump, True: headB.ID})
	lw.setCur(exitB)
	return nil
}

func (lw *lowerer) assign(v *source.AssignStmt) error {
	switch lhs := v.LHS.(type) {
	case *source.Ident:
		rhs := v.RHS
		if v.Op != "=" {
			rhs = &source.Binary{Op: v.Op[:len(v.Op)-1], X: lhs, Y: v.RHS}
		}
		r, err := lw.expr(rhs)
		if err != nil {
			return err
		}
		if b, ok := lw.vars[lhs.Name]; ok {
			if b.kind == bindSlot {
				return &source.Error{Pos: v.Pos, Msg: fmt.Sprintf("cannot assign to array %s", lhs.Name)}
			}
			lw.emit(mir.Instr{Kind: mir.KMovReg, Dst: b.vreg, A: r})
			return nil
		}
		if g, ok := lw.info.Globals[lhs.Name]; ok {
			if g.Size > 0 || g.IsStr {
				return &source.Error{Pos: v.Pos, Msg: fmt.Sprintf("cannot assign to array %s", lhs.Name)}
			}
			addr := lw.proc.NewVReg()
			lw.emit(mir.Instr{Kind: mir.KAddrGlobal, Dst: addr, Sym: lhs.Name})
			lw.emit(mir.Instr{Kind: mir.KStore, A: addr, B: r, Size: 4})
			return nil
		}
		return &source.Error{Pos: v.Pos, Msg: fmt.Sprintf("undefined: %s", lhs.Name)}
	case *source.Index:
		addr, size, err := lw.indexAddr(lhs)
		if err != nil {
			return err
		}
		rhs := v.RHS
		if v.Op != "=" {
			rhs = &source.Binary{Op: v.Op[:len(v.Op)-1], X: lhs, Y: v.RHS}
		}
		r, err := lw.expr(rhs)
		if err != nil {
			return err
		}
		lw.emit(mir.Instr{Kind: mir.KStore, A: addr, B: r, Size: size})
		return nil
	default:
		return &source.Error{Pos: v.Pos, Msg: "bad assignment target"}
	}
}

// elemSize decides the access width of an index expression, following the
// firmlang memory model: int arrays (global or local) are word-indexed;
// string globals and any pointer arriving through a scalar are
// byte-indexed.
func (lw *lowerer) elemSize(x source.Expr) uint8 {
	id, ok := x.(*source.Ident)
	if !ok {
		return 1
	}
	if b, ok := lw.vars[id.Name]; ok {
		if b.kind == bindSlot {
			return 4
		}
		return 1 // scalar holding a byte pointer
	}
	if g, ok := lw.info.Globals[id.Name]; ok {
		if g.IsStr {
			return 1
		}
		if g.Size > 0 {
			return 4
		}
		return 1
	}
	return 1
}

// indexAddr computes the address and access size for x[i].
func (lw *lowerer) indexAddr(v *source.Index) (mir.VReg, uint8, error) {
	size := lw.elemSize(v.X)
	base, err := lw.expr(v.X)
	if err != nil {
		return 0, 0, err
	}
	idx, err := lw.expr(v.I)
	if err != nil {
		return 0, 0, err
	}
	off := idx
	if size == 4 {
		four := lw.constReg(4)
		scaled := lw.proc.NewVReg()
		lw.emit(mir.Instr{Kind: mir.KBin, Op: uir.OpMul, Dst: scaled, A: idx, B: four})
		off = scaled
	}
	addr := lw.proc.NewVReg()
	lw.emit(mir.Instr{Kind: mir.KBin, Op: uir.OpAdd, Dst: addr, A: base, B: off})
	return addr, size, nil
}

var binOps = map[string]uir.Op{
	"+": uir.OpAdd, "-": uir.OpSub, "*": uir.OpMul, "/": uir.OpDivS, "%": uir.OpRemS,
	"&": uir.OpAnd, "|": uir.OpOr, "^": uir.OpXor, "<<": uir.OpShl, ">>": uir.OpShrS,
	"==": uir.OpCmpEQ, "!=": uir.OpCmpNE, "<": uir.OpCmpLTS, "<=": uir.OpCmpLES,
}

func (lw *lowerer) expr(e source.Expr) (mir.VReg, error) {
	switch v := e.(type) {
	case *source.IntLit:
		return lw.constReg(uint32(v.Val)), nil
	case *source.StrLit:
		sym, ok := lw.strPool[v.Val]
		if !ok {
			sym = fmt.Sprintf(".str%d", len(lw.strPool))
			lw.strPool[v.Val] = sym
			lw.pkg.Globals = append(lw.pkg.Globals, mir.Global{
				Name: sym,
				Data: append([]byte(v.Val), 0),
				RO:   true,
			})
		}
		d := lw.proc.NewVReg()
		lw.emit(mir.Instr{Kind: mir.KAddrGlobal, Dst: d, Sym: sym})
		return d, nil
	case *source.Ident:
		if c, ok := lw.info.Consts[v.Name]; ok {
			return lw.constReg(uint32(c)), nil
		}
		if b, ok := lw.vars[v.Name]; ok {
			if b.kind == bindSlot {
				d := lw.proc.NewVReg()
				lw.emit(mir.Instr{Kind: mir.KAddrStack, Dst: d, Const: uint32(b.slot)})
				return d, nil
			}
			return b.vreg, nil
		}
		if g, ok := lw.info.Globals[v.Name]; ok {
			addr := lw.proc.NewVReg()
			lw.emit(mir.Instr{Kind: mir.KAddrGlobal, Dst: addr, Sym: v.Name})
			if g.Size > 0 || g.IsStr {
				return addr, nil // arrays evaluate to their address
			}
			d := lw.proc.NewVReg()
			lw.emit(mir.Instr{Kind: mir.KLoad, Dst: d, A: addr, Size: 4})
			return d, nil
		}
		return 0, &source.Error{Pos: v.Pos, Msg: fmt.Sprintf("undefined: %s", v.Name)}
	case *source.Unary:
		x, err := lw.expr(v.X)
		if err != nil {
			return 0, err
		}
		d := lw.proc.NewVReg()
		switch v.Op {
		case "-":
			lw.emit(mir.Instr{Kind: mir.KUn, Op: uir.OpNeg, Dst: d, A: x})
		case "~":
			lw.emit(mir.Instr{Kind: mir.KUn, Op: uir.OpNot, Dst: d, A: x})
		case "!":
			z := lw.constReg(0)
			lw.emit(mir.Instr{Kind: mir.KBin, Op: uir.OpCmpEQ, Dst: d, A: x, B: z})
		default:
			return 0, &source.Error{Pos: v.Pos, Msg: "unknown unary operator " + v.Op}
		}
		return d, nil
	case *source.Binary:
		return lw.binary(v)
	case *source.Call:
		fn, ok := lw.info.Funcs[v.Name]
		if !ok {
			return 0, &source.Error{Pos: v.Pos, Msg: "call to undefined procedure " + v.Name}
		}
		if fn.Feature != "" && !lw.features[fn.Feature] {
			// Feature disabled at configure time: the call site compiles
			// to the disabled-stub constant (cf. --disable-opie).
			return lw.constReg(0), nil
		}
		args := make([]mir.VReg, len(v.Args))
		for i, a := range v.Args {
			r, err := lw.expr(a)
			if err != nil {
				return 0, err
			}
			args[i] = r
		}
		d := lw.proc.NewVReg()
		lw.emit(mir.Instr{Kind: mir.KCall, Dst: d, Sym: v.Name, Args: args})
		return d, nil
	case *source.Index:
		addr, size, err := lw.indexAddr(v)
		if err != nil {
			return 0, err
		}
		d := lw.proc.NewVReg()
		lw.emit(mir.Instr{Kind: mir.KLoad, Dst: d, A: addr, Size: size})
		return d, nil
	default:
		return 0, fmt.Errorf("compiler: unknown expression %T", e)
	}
}

func (lw *lowerer) binary(v *source.Binary) (mir.VReg, error) {
	switch v.Op {
	case "&&", "||":
		return lw.shortCircuit(v)
	case ">", ">=":
		// a > b lowers as b < a.
		op := uir.OpCmpLTS
		if v.Op == ">=" {
			op = uir.OpCmpLES
		}
		x, err := lw.expr(v.X)
		if err != nil {
			return 0, err
		}
		y, err := lw.expr(v.Y)
		if err != nil {
			return 0, err
		}
		d := lw.proc.NewVReg()
		lw.emit(mir.Instr{Kind: mir.KBin, Op: op, Dst: d, A: y, B: x})
		return d, nil
	}
	op, ok := binOps[v.Op]
	if !ok {
		return 0, &source.Error{Pos: v.Pos, Msg: "unknown operator " + v.Op}
	}
	x, err := lw.expr(v.X)
	if err != nil {
		return 0, err
	}
	y, err := lw.expr(v.Y)
	if err != nil {
		return 0, err
	}
	d := lw.proc.NewVReg()
	lw.emit(mir.Instr{Kind: mir.KBin, Op: op, Dst: d, A: x, B: y})
	return d, nil
}

// shortCircuit lowers && and || with control flow, like C.
func (lw *lowerer) shortCircuit(v *source.Binary) (mir.VReg, error) {
	res := lw.proc.NewVReg()
	rhsB := lw.newBlock()
	shortB := lw.newBlock()
	joinB := lw.newBlock()
	x, err := lw.expr(v.X)
	if err != nil {
		return 0, err
	}
	xb := lw.proc.NewVReg()
	lw.emit(mir.Instr{Kind: mir.KUn, Op: uir.OpBool, Dst: xb, A: x})
	if v.Op == "&&" {
		lw.terminate(mir.Term{Kind: mir.TBranch, Cond: xb, True: rhsB.ID, False: shortB.ID})
	} else {
		lw.terminate(mir.Term{Kind: mir.TBranch, Cond: xb, True: shortB.ID, False: rhsB.ID})
	}
	// Short-circuit arm: result is 0 for &&, 1 for ||.
	lw.setCur(shortB)
	var shortVal uint32
	if v.Op == "||" {
		shortVal = 1
	}
	c := lw.constReg(shortVal)
	lw.emit(mir.Instr{Kind: mir.KMovReg, Dst: res, A: c})
	lw.terminate(mir.Term{Kind: mir.TJump, True: joinB.ID})
	// Evaluate RHS.
	lw.setCur(rhsB)
	y, err := lw.expr(v.Y)
	if err != nil {
		return 0, err
	}
	yb := lw.proc.NewVReg()
	lw.emit(mir.Instr{Kind: mir.KUn, Op: uir.OpBool, Dst: yb, A: y})
	lw.emit(mir.Instr{Kind: mir.KMovReg, Dst: res, A: yb})
	lw.terminate(mir.Term{Kind: mir.TJump, True: joinB.ID})
	lw.setCur(joinB)
	return res, nil
}

// pruneUnreachable removes blocks with no path from the entry and
// renumbers the remainder.
func pruneUnreachable(p *mir.Proc) {
	reach := make([]bool, len(p.Blocks))
	var stack []int
	reach[0] = true
	stack = append(stack, 0)
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range p.Blocks[b].Term.Succs() {
			if !reach[s] {
				reach[s] = true
				stack = append(stack, s)
			}
		}
	}
	remap := make([]int, len(p.Blocks))
	var kept []*mir.Block
	for i, b := range p.Blocks {
		if reach[i] {
			remap[i] = len(kept)
			b.ID = len(kept)
			kept = append(kept, b)
		}
	}
	for _, b := range kept {
		switch b.Term.Kind {
		case mir.TJump:
			b.Term.True = remap[b.Term.True]
		case mir.TBranch:
			b.Term.True = remap[b.Term.True]
			b.Term.False = remap[b.Term.False]
		}
	}
	p.Blocks = kept
}
