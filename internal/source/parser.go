package source

import (
	"fmt"
)

// Parse parses a firmlang translation unit.
func Parse(src string) (*File, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	return p.parseFile()
}

type parser struct {
	toks []token
	i    int
}

func (p *parser) cur() token { return p.toks[p.i] }

func (p *parser) advance() token {
	t := p.toks[p.i]
	if p.i < len(p.toks)-1 {
		p.i++
	}
	return t
}

func (p *parser) errf(format string, args ...any) error {
	return &Error{p.cur().pos, fmt.Sprintf(format, args...)}
}

func (p *parser) expectPunct(s string) error {
	t := p.cur()
	if t.kind != tkPunct || t.text != s {
		return p.errf("expected %q, found %q", s, t.String())
	}
	p.advance()
	return nil
}

func (p *parser) expectKeyword(s string) error {
	t := p.cur()
	if t.kind != tkKeyword || t.text != s {
		return p.errf("expected keyword %q, found %q", s, t.String())
	}
	p.advance()
	return nil
}

func (p *parser) expectIdent() (string, Pos, error) {
	t := p.cur()
	if t.kind != tkIdent {
		return "", t.pos, p.errf("expected identifier, found %q", t.String())
	}
	p.advance()
	return t.text, t.pos, nil
}

func (p *parser) isPunct(s string) bool {
	return p.cur().kind == tkPunct && p.cur().text == s
}

func (p *parser) isKeyword(s string) bool {
	return p.cur().kind == tkKeyword && p.cur().text == s
}

func (p *parser) parseFile() (*File, error) {
	f := &File{}
	if err := p.expectKeyword("package"); err != nil {
		return nil, err
	}
	name, _, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	f.Package = name
	if p.isKeyword("version") {
		p.advance()
		t := p.cur()
		if t.kind != tkString {
			return nil, p.errf("expected version string")
		}
		f.Version = t.text
		p.advance()
	}
	for p.cur().kind != tkEOF {
		d, err := p.parseDecl()
		if err != nil {
			return nil, err
		}
		f.Decls = append(f.Decls, d)
	}
	return f, nil
}

func (p *parser) parseDecl() (Decl, error) {
	switch {
	case p.isKeyword("var"):
		return p.parseVarDecl()
	case p.isKeyword("const"):
		return p.parseConstDecl()
	case p.isKeyword("extern"):
		pos := p.advance().pos
		name, params, err := p.parseFuncHead()
		if err != nil {
			return nil, err
		}
		p.skipSemi()
		return &FuncDecl{Pos: pos, Name: name, Params: params, Extern: true}, nil
	case p.isKeyword("feature"), p.isKeyword("func"):
		return p.parseFuncDecl()
	default:
		return nil, p.errf("expected declaration, found %q", p.cur().String())
	}
}

func (p *parser) skipSemi() {
	for p.isPunct(";") {
		p.advance()
	}
}

// parseConstInt parses an optionally-negated integer literal.
func (p *parser) parseConstInt() (int32, error) {
	neg := false
	if p.isPunct("-") {
		neg = true
		p.advance()
	}
	t := p.cur()
	if t.kind != tkInt {
		return 0, p.errf("expected integer literal, found %q", t.String())
	}
	p.advance()
	if neg {
		return -t.val, nil
	}
	return t.val, nil
}

// parseVarHead parses `var NAME` and an optional `[N]`, returning size 0
// for a scalar. Both global and local declarations start this way.
func (p *parser) parseVarHead() (pos Pos, name string, size int, err error) {
	pos = p.advance().pos // "var"
	if name, _, err = p.expectIdent(); err != nil {
		return pos, "", 0, err
	}
	if !p.isPunct("[") {
		return pos, name, 0, nil
	}
	p.advance()
	n, err := p.parseConstInt()
	if err != nil {
		return pos, name, 0, err
	}
	if n <= 0 {
		return pos, name, 0, &Error{pos, fmt.Sprintf("array %s has non-positive size %d", name, n)}
	}
	return pos, name, int(n), p.expectPunct("]")
}

func (p *parser) parseVarDecl() (Decl, error) {
	pos, name, size, err := p.parseVarHead()
	if err != nil {
		return nil, err
	}
	d := &VarDecl{Pos: pos, Name: name, Size: size}
	if p.isPunct("=") {
		p.advance()
		switch {
		case p.cur().kind == tkString:
			d.Str = p.cur().text
			d.IsStr = true
			p.advance()
		case p.isPunct("{"):
			p.advance()
			for !p.isPunct("}") {
				v, err := p.parseConstInt()
				if err != nil {
					return nil, err
				}
				d.Init = append(d.Init, v)
				if p.isPunct(",") {
					p.advance()
				}
			}
			p.advance() // "}"
		default:
			v, err := p.parseConstInt()
			if err != nil {
				return nil, err
			}
			d.Init = []int32{v}
		}
	}
	p.skipSemi()
	return d, nil
}

func (p *parser) parseConstDecl() (Decl, error) {
	pos := p.advance().pos // "const"
	name, _, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("="); err != nil {
		return nil, err
	}
	v, err := p.parseConstInt()
	if err != nil {
		return nil, err
	}
	p.skipSemi()
	return &ConstDecl{Pos: pos, Name: name, Val: v}, nil
}

func (p *parser) parseParams() ([]string, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var params []string
	for !p.isPunct(")") {
		name, _, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		params = append(params, name)
		if p.isPunct(",") {
			p.advance()
		} else {
			break
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return params, nil
}

// parseFuncHead parses `func NAME(params)`, the head an extern and a
// defined function share.
func (p *parser) parseFuncHead() (string, []string, error) {
	if err := p.expectKeyword("func"); err != nil {
		return "", nil, err
	}
	name, _, err := p.expectIdent()
	if err != nil {
		return "", nil, err
	}
	params, err := p.parseParams()
	return name, params, err
}

func (p *parser) parseFuncDecl() (Decl, error) {
	var feature string
	pos := p.cur().pos
	if p.isKeyword("feature") {
		p.advance()
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		name, _, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		feature = name
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
	}
	name, params, err := p.parseFuncHead()
	if err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &FuncDecl{Pos: pos, Name: name, Params: params, Body: body, Feature: feature}, nil
}

func (p *parser) parseBlock() (*BlockStmt, error) {
	pos := p.cur().pos
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	b := &BlockStmt{Pos: pos}
	for !p.isPunct("}") {
		if p.cur().kind == tkEOF {
			return nil, p.errf("unterminated block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	p.advance() // "}"
	return b, nil
}

func (p *parser) parseStmt() (Stmt, error) {
	switch {
	case p.isKeyword("var"):
		return p.parseDeclStmt()
	case p.isKeyword("if"):
		return p.parseIf()
	case p.isKeyword("while"):
		pos := p.advance().pos
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		return &WhileStmt{Pos: pos, Cond: cond, Body: body}, nil
	case p.isKeyword("for"):
		return p.parseFor()
	case p.isKeyword("return"):
		pos := p.advance().pos
		var val Expr
		if !p.isPunct(";") && !p.isPunct("}") {
			var err error
			val, err = p.parseExpr()
			if err != nil {
				return nil, err
			}
		}
		p.skipSemi()
		return &ReturnStmt{Pos: pos, Value: val}, nil
	case p.isKeyword("break"):
		pos := p.advance().pos
		p.skipSemi()
		return &BreakStmt{Pos: pos}, nil
	case p.isKeyword("continue"):
		pos := p.advance().pos
		p.skipSemi()
		return &ContinueStmt{Pos: pos}, nil
	case p.isPunct("{"):
		return p.parseBlock()
	default:
		s, err := p.parseSimpleStmt()
		if err != nil {
			return nil, err
		}
		p.skipSemi()
		return s, nil
	}
}

func (p *parser) parseDeclStmt() (Stmt, error) {
	pos, name, size, err := p.parseVarHead()
	if err != nil {
		return nil, err
	}
	d := &DeclStmt{Pos: pos, Name: name, Size: size}
	if p.isPunct("=") {
		p.advance()
		init, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		d.Init = init
	}
	p.skipSemi()
	return d, nil
}

func (p *parser) parseIf() (Stmt, error) {
	pos := p.advance().pos // "if"
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	then, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	st := &IfStmt{Pos: pos, Cond: cond, Then: then}
	if p.isKeyword("else") {
		p.advance()
		if p.isKeyword("if") {
			el, err := p.parseIf()
			if err != nil {
				return nil, err
			}
			st.Else = el
		} else {
			el, err := p.parseBlock()
			if err != nil {
				return nil, err
			}
			st.Else = el
		}
	}
	return st, nil
}

func (p *parser) parseFor() (Stmt, error) {
	pos := p.advance().pos // "for"
	st := &ForStmt{Pos: pos}
	if !p.isPunct(";") {
		var err error
		if p.isKeyword("var") {
			st.Init, err = p.parseDeclStmt()
			if err != nil {
				return nil, err
			}
			// parseDeclStmt consumed the separating semicolon.
		} else {
			st.Init, err = p.parseSimpleStmt()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(";"); err != nil {
				return nil, err
			}
		}
	} else {
		p.advance()
	}
	if !p.isPunct(";") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Cond = cond
	}
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	if !p.isPunct("{") {
		post, err := p.parseSimpleStmt()
		if err != nil {
			return nil, err
		}
		st.Post = post
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	st.Body = body
	return st, nil
}

var assignOps = map[string]bool{
	"=": true, "+=": true, "-=": true, "*=": true, "/=": true, "%=": true,
	"&=": true, "|=": true, "^=": true, "<<=": true, ">>=": true,
}

// parseSimpleStmt parses an assignment or expression statement (without
// consuming a trailing semicolon).
func (p *parser) parseSimpleStmt() (Stmt, error) {
	pos := p.cur().pos
	lhs, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.cur().kind == tkPunct && assignOps[p.cur().text] {
		op := p.advance().text
		rhs, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		switch lhs.(type) {
		case *Ident, *Index:
		default:
			return nil, &Error{pos, "left side of assignment must be a name or index expression"}
		}
		return &AssignStmt{Pos: pos, LHS: lhs, Op: op, RHS: rhs}, nil
	}
	return &ExprStmt{Pos: pos, X: lhs}, nil
}

// Precedence climbing. Level 1 is loosest.
var binPrec = map[string]int{
	"||": 1,
	"&&": 2,
	"==": 3, "!=": 3, "<": 3, "<=": 3, ">": 3, ">=": 3,
	"|":  4,
	"^":  5,
	"&":  6,
	"<<": 7, ">>": 7,
	"+": 8, "-": 8,
	"*": 9, "/": 9, "%": 9,
}

func (p *parser) parseExpr() (Expr, error) { return p.parseBinary(1) }

func (p *parser) parseBinary(minPrec int) (Expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.kind != tkPunct {
			return lhs, nil
		}
		prec, ok := binPrec[t.text]
		if !ok || prec < minPrec {
			return lhs, nil
		}
		p.advance()
		rhs, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &Binary{Pos: t.pos, Op: t.text, X: lhs, Y: rhs}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	t := p.cur()
	if t.kind == tkPunct && (t.text == "-" || t.text == "!" || t.text == "~") {
		p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{Pos: t.pos, Op: t.text, X: x}, nil
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() (Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.isPunct("[") {
		pos := p.advance().pos
		idx, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("]"); err != nil {
			return nil, err
		}
		x = &Index{Pos: pos, X: x, I: idx}
	}
	return x, nil
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch {
	case t.kind == tkInt:
		p.advance()
		return &IntLit{Pos: t.pos, Val: t.val}, nil
	case t.kind == tkString:
		p.advance()
		return &StrLit{Pos: t.pos, Val: t.text}, nil
	case t.kind == tkIdent:
		p.advance()
		if p.isPunct("(") {
			p.advance()
			call := &Call{Pos: t.pos, Name: t.text}
			for !p.isPunct(")") {
				arg, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, arg)
				if p.isPunct(",") {
					p.advance()
				} else {
					break
				}
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return call, nil
		}
		return &Ident{Pos: t.pos, Name: t.text}, nil
	case t.kind == tkPunct && t.text == "(":
		p.advance()
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return x, nil
	default:
		return nil, p.errf("expected expression, found %q", t.String())
	}
}
