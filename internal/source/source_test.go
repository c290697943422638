package source

import (
	"strings"
	"testing"
)

const sampleSrc = `
package wget version "1.15"

const RETR_CODE = 31;
var retry_count = 3;
var buf[64];
var banner = "220 ready\n";
var table[4] = {1, 2, 4, 8};

extern func memcopy(dst, src, n);

feature(OPIE) func skey_resp(chal, out) {
    var i = 0;
    while i < 8 {
        out = out + chal;
        i = i + 1;
    }
    return out;
}

func ftp_retrieve_glob(u, action) {
    var res = 0;
    if action == RETR_CODE {
        res = get_ftp(u);
    } else if action > 0 {
        res = res | 1;
    } else {
        return 0 - 1;
    }
    for var i = 0; i < retry_count; i = i + 1 {
        buf[i] = res * 2;
        if buf[i] >= 100 {
            break;
        }
        continue;
    }
    memcopy(buf, banner, 8);
    return res;
}

func get_ftp(u) {
    return (u << 2) ^ 0x1F;
}
`

func mustParse(t *testing.T, src string) *File {
	t.Helper()
	f, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return f
}

func TestParseSample(t *testing.T) {
	f := mustParse(t, sampleSrc)
	if f.Package != "wget" || f.Version != "1.15" {
		t.Errorf("package = %s version %s", f.Package, f.Version)
	}
	if len(f.Decls) != 9 {
		t.Fatalf("got %d decls, want 9", len(f.Decls))
	}
	c := f.Decls[0].(*ConstDecl)
	if c.Name != "RETR_CODE" || c.Val != 31 {
		t.Errorf("const = %+v", c)
	}
	v := f.Decls[2].(*VarDecl)
	if v.Name != "buf" || v.Size != 64 {
		t.Errorf("buf = %+v", v)
	}
	s := f.Decls[3].(*VarDecl)
	if !s.IsStr || s.Str != "220 ready\n" {
		t.Errorf("banner = %+v", s)
	}
	tab := f.Decls[4].(*VarDecl)
	if tab.Size != 4 || len(tab.Init) != 4 || tab.Init[2] != 4 {
		t.Errorf("table = %+v", tab)
	}
	ext := f.Decls[5].(*FuncDecl)
	if !ext.Extern || len(ext.Params) != 3 {
		t.Errorf("extern = %+v", ext)
	}
	sk := f.Decls[6].(*FuncDecl)
	if sk.Feature != "OPIE" {
		t.Errorf("feature = %q", sk.Feature)
	}
}

func TestCheckSample(t *testing.T) {
	f := mustParse(t, sampleSrc)
	info, err := Check(f)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if len(info.FuncNames) != 3 {
		t.Errorf("FuncNames = %v", info.FuncNames)
	}
	if info.Consts["RETR_CODE"] != 31 {
		t.Error("constant table")
	}
	if len(info.Globals) != 4 {
		t.Errorf("Globals = %v", info.Globals)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"package", "expected identifier"},
		{"package p\nvar x[0];", "non-positive size"},
		{"package p\nfunc f( {", "expected identifier"},
		{"package p\nfunc f() { if x { }", "unterminated block"},
		{"package p\nconst c = ;", "expected integer"},
		{"package p\nfunc f() { return 1 + ; }", "expected expression"},
		{"package p\nfunc f() { x = ", "expected expression"},
		{"package p\nvar s = \"abc", "unterminated string"},
		{"package p\n/* open", "unterminated block comment"},
		{"package p\nfunc f() { @ }", "unexpected character"},
		{"package p\nfunc f() { 1 = 2; }", "left side of assignment"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			f, _ := Parse(c.src)
			_, err = Check(f)
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q) error = %v, want containing %q", c.src, err, c.want)
		}
	}
}

func TestCheckErrors(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"package p\nfunc f() { return y; }", "undefined: y"},
		{"package p\nvar x;\nvar x;", "redeclared"},
		{"package p\nfunc f() { var a; var a; }", "redeclared in this scope"},
		{"package p\nconst c = 1;\nfunc f() { c = 2; }", "cannot assign to constant"},
		{"package p\nfunc f() { break; }", "break outside loop"},
		{"package p\nfunc f() { continue; }", "continue outside loop"},
		{"package p\nfunc f() { g(); }", "undefined procedure"},
		{"package p\nfunc g(a) { return a; }\nfunc f() { return g(); }", "takes 1 arguments, got 0"},
		{"package p\nfunc f() { var a[4] = 3; }", "cannot have an expression initializer"},
	}
	for _, c := range cases {
		f, err := Parse(c.src)
		if err != nil {
			t.Errorf("Parse(%q) unexpectedly failed: %v", c.src, err)
			continue
		}
		_, err = Check(f)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Check(%q) error = %v, want containing %q", c.src, err, c.want)
		}
	}
}

func TestScopingAllowsShadowing(t *testing.T) {
	src := `package p
func f(a) {
    var x = 1;
    if a {
        var x = 2;
        x = x + 1;
    }
    return x;
}`
	f := mustParse(t, src)
	if _, err := Check(f); err != nil {
		t.Errorf("shadowing in nested scope must be legal: %v", err)
	}
}

func TestForLoopVariants(t *testing.T) {
	variants := []string{
		"for ; ; { break; }",
		"for var i = 0; i < 3; i = i + 1 { }",
		"for i = 0; i < 3; i = i + 1 { }",
		"for ; i < 3; { i = i + 1; }",
	}
	for _, v := range variants {
		src := "package p\nvar i;\nfunc f() { " + v + " }"
		f, err := Parse(src)
		if err != nil {
			t.Errorf("Parse(%q): %v", v, err)
			continue
		}
		if _, err := Check(f); err != nil {
			t.Errorf("Check(%q): %v", v, err)
		}
	}
}

func TestPrecedence(t *testing.T) {
	// 1 + 2*3 == 7 should parse as (1 + (2*3)) == 7.
	f := mustParse(t, "package p\nfunc f() { return 1 + 2 * 3 == 7; }")
	ret := f.Decls[0].(*FuncDecl).Body.Stmts[0].(*ReturnStmt)
	eq := ret.Value.(*Binary)
	if eq.Op != "==" {
		t.Fatalf("top op = %q, want ==", eq.Op)
	}
	add := eq.X.(*Binary)
	if add.Op != "+" {
		t.Fatalf("left op = %q, want +", add.Op)
	}
	mul := add.Y.(*Binary)
	if mul.Op != "*" {
		t.Fatalf("right of + is %q, want *", mul.Op)
	}
}

func TestHexAndNegativeLiterals(t *testing.T) {
	f := mustParse(t, "package p\nconst a = 0x1F;\nconst b = -5;")
	if f.Decls[0].(*ConstDecl).Val != 31 {
		t.Error("hex literal")
	}
	if f.Decls[1].(*ConstDecl).Val != -5 {
		t.Error("negative literal")
	}
}

func TestCommentsIgnored(t *testing.T) {
	src := "package p // trailing\n/* block\ncomment */ var x = 1;\n"
	f := mustParse(t, src)
	if len(f.Decls) != 1 {
		t.Errorf("decls = %d", len(f.Decls))
	}
}

func TestLexAllPositions(t *testing.T) {
	toks, err := lexAll("package p\nvar x;")
	if err != nil {
		t.Fatal(err)
	}
	if toks[2].pos.Line != 2 || toks[2].pos.Col != 1 {
		t.Errorf("var token at %v, want 2:1", toks[2].pos)
	}
}
