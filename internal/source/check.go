package source

import (
	"fmt"
)

// PackageInfo is the result of a successful Check: symbol tables consumed
// by the compiler front end.
type PackageInfo struct {
	File   *File
	Consts map[string]int32
	// Globals maps name to declaration (scalars and arrays).
	Globals map[string]*VarDecl
	// Funcs maps name to declaration, including externs.
	Funcs map[string]*FuncDecl
	// FuncNames is the declaration order of non-extern functions.
	FuncNames []string
}

// Check resolves names and validates a parsed file. It returns symbol
// tables for the compiler.
func Check(f *File) (*PackageInfo, error) {
	info := &PackageInfo{
		File:    f,
		Consts:  map[string]int32{},
		Globals: map[string]*VarDecl{},
		Funcs:   map[string]*FuncDecl{},
	}
	// Pass 1: collect top-level names.
	for _, d := range f.Decls {
		switch v := d.(type) {
		case *ConstDecl:
			if err := info.declareTop(v.Name, v.Pos); err != nil {
				return nil, err
			}
			info.Consts[v.Name] = v.Val
		case *VarDecl:
			if err := info.declareTop(v.Name, v.Pos); err != nil {
				return nil, err
			}
			info.Globals[v.Name] = v
		case *FuncDecl:
			if err := info.declareTop(v.Name, v.Pos); err != nil {
				return nil, err
			}
			info.Funcs[v.Name] = v
			if !v.Extern {
				info.FuncNames = append(info.FuncNames, v.Name)
			}
		}
	}
	// Pass 2: check function bodies.
	for _, d := range f.Decls {
		fn, ok := d.(*FuncDecl)
		if !ok || fn.Extern {
			continue
		}
		c := &checker{info: info, fn: fn}
		c.pushScope()
		for _, p := range fn.Params {
			if err := c.declare(p, fn.Pos, 0); err != nil {
				return nil, err
			}
		}
		if err := c.checkBlock(fn.Body); err != nil {
			return nil, err
		}
	}
	return info, nil
}

func (info *PackageInfo) declareTop(name string, pos Pos) error {
	_, c := info.Consts[name]
	_, g := info.Globals[name]
	_, f := info.Funcs[name]
	if c || g || f {
		return &Error{pos, fmt.Sprintf("%s redeclared at top level", name)}
	}
	return nil
}

type localVar struct {
	size int // 0 scalar, >0 array length
}

type checker struct {
	info      *PackageInfo
	fn        *FuncDecl
	scopes    []map[string]localVar
	loopDepth int
}

func (c *checker) pushScope() { c.scopes = append(c.scopes, map[string]localVar{}) }
func (c *checker) popScope()  { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *checker) declare(name string, pos Pos, size int) error {
	top := c.scopes[len(c.scopes)-1]
	if _, ok := top[name]; ok {
		return &Error{pos, fmt.Sprintf("%s redeclared in this scope", name)}
	}
	top[name] = localVar{size: size}
	return nil
}

func (c *checker) lookupLocal(name string) (localVar, bool) {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if v, ok := c.scopes[i][name]; ok {
			return v, true
		}
	}
	return localVar{}, false
}

func (c *checker) checkBlock(b *BlockStmt) error {
	c.pushScope()
	defer c.popScope()
	for _, s := range b.Stmts {
		if err := c.checkStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (c *checker) checkStmt(s Stmt) error {
	switch v := s.(type) {
	case *BlockStmt:
		return c.checkBlock(v)
	case *DeclStmt:
		if v.Init != nil {
			if v.Size > 0 {
				return &Error{v.Pos, fmt.Sprintf("array %s cannot have an expression initializer", v.Name)}
			}
			if err := c.checkExpr(v.Init); err != nil {
				return err
			}
		}
		return c.declare(v.Name, v.Pos, v.Size)
	case *AssignStmt:
		if err := c.checkLValue(v.LHS); err != nil {
			return err
		}
		return c.checkExpr(v.RHS)
	case *IfStmt:
		if err := c.checkExpr(v.Cond); err != nil {
			return err
		}
		if err := c.checkBlock(v.Then); err != nil {
			return err
		}
		if v.Else != nil {
			return c.checkStmt(v.Else)
		}
		return nil
	case *WhileStmt:
		if err := c.checkExpr(v.Cond); err != nil {
			return err
		}
		c.loopDepth++
		defer func() { c.loopDepth-- }()
		return c.checkBlock(v.Body)
	case *ForStmt:
		c.pushScope()
		defer c.popScope()
		if v.Init != nil {
			if err := c.checkStmt(v.Init); err != nil {
				return err
			}
		}
		if v.Cond != nil {
			if err := c.checkExpr(v.Cond); err != nil {
				return err
			}
		}
		if v.Post != nil {
			if err := c.checkStmt(v.Post); err != nil {
				return err
			}
		}
		c.loopDepth++
		defer func() { c.loopDepth-- }()
		return c.checkBlock(v.Body)
	case *ReturnStmt:
		if v.Value != nil {
			return c.checkExpr(v.Value)
		}
		return nil
	case *ExprStmt:
		return c.checkExpr(v.X)
	case *BreakStmt:
		if c.loopDepth == 0 {
			return &Error{v.Pos, "break outside loop"}
		}
		return nil
	case *ContinueStmt:
		if c.loopDepth == 0 {
			return &Error{v.Pos, "continue outside loop"}
		}
		return nil
	default:
		return fmt.Errorf("source: unknown statement %T", s)
	}
}

func (c *checker) checkLValue(e Expr) error {
	switch v := e.(type) {
	case *Ident:
		if _, ok := c.lookupLocal(v.Name); ok {
			return nil
		}
		if _, ok := c.info.Globals[v.Name]; ok {
			return nil
		}
		if _, ok := c.info.Consts[v.Name]; ok {
			return &Error{v.Pos, fmt.Sprintf("cannot assign to constant %s", v.Name)}
		}
		return &Error{v.Pos, fmt.Sprintf("undefined: %s", v.Name)}
	case *Index:
		if err := c.checkExpr(v.X); err != nil {
			return err
		}
		return c.checkExpr(v.I)
	default:
		return fmt.Errorf("source: bad lvalue %T", e)
	}
}

func (c *checker) checkExpr(e Expr) error {
	switch v := e.(type) {
	case *IntLit, *StrLit:
		return nil
	case *Ident:
		if _, ok := c.lookupLocal(v.Name); ok {
			return nil
		}
		if _, ok := c.info.Globals[v.Name]; ok {
			return nil
		}
		if _, ok := c.info.Consts[v.Name]; ok {
			return nil
		}
		return &Error{v.Pos, fmt.Sprintf("undefined: %s", v.Name)}
	case *Unary:
		return c.checkExpr(v.X)
	case *Binary:
		if err := c.checkExpr(v.X); err != nil {
			return err
		}
		return c.checkExpr(v.Y)
	case *Call:
		fn, ok := c.info.Funcs[v.Name]
		if !ok {
			return &Error{v.Pos, fmt.Sprintf("call to undefined procedure %s", v.Name)}
		}
		if len(v.Args) != len(fn.Params) {
			return &Error{v.Pos, fmt.Sprintf("%s takes %d arguments, got %d", v.Name, len(fn.Params), len(v.Args))}
		}
		for _, a := range v.Args {
			if err := c.checkExpr(a); err != nil {
				return err
			}
		}
		return nil
	case *Index:
		if err := c.checkExpr(v.X); err != nil {
			return err
		}
		return c.checkExpr(v.I)
	default:
		return fmt.Errorf("source: unknown expression %T", e)
	}
}
