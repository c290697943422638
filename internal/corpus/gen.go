package corpus

import (
	"fmt"
	"hash/fnv"
	"strings"

	"firmup/internal/isa"
)

// fillerProcs deterministically generates the package's supporting
// procedures. The bodies are seeded by (package, index) so the same
// procedure is recognizably the same source across versions, with a
// version-seeded perturbation applied to a fraction of them (patch
// simulation). Generated procedures call earlier generated procedures
// and the runtime, giving every executable a realistic call graph.
func fillerProcs(pkg, version string, n int) string {
	var sb strings.Builder
	verSeed := seedOf(pkg + "@" + version)
	vrng := isa.NewRNG(verSeed)
	names := make([]string, n)
	arities := map[string]int{}
	for i := range names {
		names[i] = fillerName(pkg, i)
		// The first draw of the base RNG fixes the arity; recorded here
		// so later procedures can call earlier ones correctly.
		arities[names[i]] = 1 + isa.NewRNG(seedOf(fmt.Sprintf("%s#%d", pkg, i))).Intn(3)
	}
	for i := 0; i < n; i++ {
		baseRng := isa.NewRNG(seedOf(fmt.Sprintf("%s#%d", pkg, i)))
		patched := vrng.Intn(100) < 25
		patchRng := isa.NewRNG(verSeed ^ uint64(i)*0x9E3779B9)
		// Callee choice keeps total execution cost linear: early "leaf
		// layer" procedures (constant cost) plus the immediate
		// predecessor (chain of bounded length). Unbounded fan-out would
		// compose loops multiplicatively across the call graph.
		var callees []string
		leafLayer := 6
		if i >= leafLayer {
			// Leaf-layer procedures call nothing; later ones call leaves
			// plus their immediate predecessor.
			callees = append(append([]string(nil), names[:leafLayer]...), names[i-1])
		}
		g := &procGen{
			rng:      baseRng,
			patchRng: patchRng,
			patched:  patched,
			name:     names[i],
			callees:  callees,
			arities:  arities,
		}
		sb.WriteString(g.generate())
	}
	return sb.String()
}

var fillerVerbs = []string{"parse", "handle", "init", "send", "recv", "check", "format", "emit", "scan", "update", "flush", "decode"}
var fillerNouns = []string{"opt", "header", "buf", "conn", "msg", "state", "block", "entry", "frame", "token", "addr", "chunk"}

func fillerName(pkg string, i int) string {
	v := fillerVerbs[i%len(fillerVerbs)]
	n := fillerNouns[(i/len(fillerVerbs)+i)%len(fillerNouns)]
	return fmt.Sprintf("%s_%s_%s%d", pkg[:3], v, n, i)
}

func seedOf(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// procGen emits one filler procedure.
type procGen struct {
	rng      *isa.RNG
	patchRng *isa.RNG
	patched  bool
	name     string
	callees  []string
	arities  map[string]int
	params   []string
	locals   []string
	ivars    []string // loop induction variables: readable, never assigned
	sb       strings.Builder
	stmts    int
	calls    int
}

var runtimeCallable = []struct {
	name  string
	arity int
}{
	{"to_lower", 1}, {"hex_digit", 1}, {"str_len", 1}, {"checksum16", 2},
}

func (g *procGen) generate() string {
	nparams := 1 + g.rng.Intn(3)
	for i := 0; i < nparams; i++ {
		g.params = append(g.params, fmt.Sprintf("p%d", i))
	}
	fmt.Fprintf(&g.sb, "\nfunc %s(%s) {\n", g.name, strings.Join(g.params, ", "))
	// Size distribution: mostly small, occasionally large — large
	// procedures are what drags procedure-centric matching astray.
	budget := 4 + g.rng.Intn(8)
	if g.rng.Intn(6) == 0 {
		budget = 18 + g.rng.Intn(20)
	}
	nLocals := 1 + g.rng.Intn(3)
	for i := 0; i < nLocals; i++ {
		name := fmt.Sprintf("v%d", i)
		fmt.Fprintf(&g.sb, "    var %s = %s;\n", name, g.expr(1))
		g.locals = append(g.locals, name)
	}
	for g.stmts < budget {
		g.stmt(1)
	}
	if g.patched {
		// Version patch: an extra guarded statement with new constants.
		fmt.Fprintf(&g.sb, "    if %s > %d {\n        %s = %s + %d;\n    }\n",
			g.anyVar(), g.patchRng.Intn(64), g.locals[0], g.locals[0], 1+g.patchRng.Intn(16))
	}
	fmt.Fprintf(&g.sb, "    return %s;\n}\n", g.expr(2))
	return g.sb.String()
}

func (g *procGen) anyVar() string {
	all := append(append([]string(nil), g.params...), g.locals...)
	all = append(all, g.ivars...)
	return all[g.rng.Intn(len(all))]
}

var binOps = []string{"+", "-", "*", "&", "|", "^", "+", "-", "<<", ">>"}

// expr emits a side-effect-free expression of bounded depth.
func (g *procGen) expr(depth int) string {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		switch g.rng.Intn(3) {
		case 0:
			return g.anyVar()
		case 1:
			return fmt.Sprintf("%d", g.rng.Intn(256))
		default:
			return fmt.Sprintf("0x%x", g.rng.Intn(0x10000))
		}
	}
	op := binOps[g.rng.Intn(len(binOps))]
	lhs := g.expr(depth - 1)
	rhs := g.expr(depth - 1)
	if op == "<<" || op == ">>" {
		rhs = fmt.Sprintf("%d", 1+g.rng.Intn(7))
	}
	return fmt.Sprintf("(%s %s %s)", lhs, op, rhs)
}

var cmpOps = []string{"<", "<=", ">", ">=", "==", "!="}

func (g *procGen) cond() string {
	return fmt.Sprintf("%s %s %s", g.anyVar(), cmpOps[g.rng.Intn(len(cmpOps))], g.expr(1))
}

func (g *procGen) indent(depth int) {
	for i := 0; i <= depth; i++ {
		g.sb.WriteString("    ")
	}
}

// stmt emits one statement (possibly compound).
func (g *procGen) stmt(depth int) {
	g.stmts++
	kind := g.rng.Intn(10)
	switch {
	case kind < 4: // assignment
		g.indent(depth)
		fmt.Fprintf(&g.sb, "%s = %s;\n", g.locals[g.rng.Intn(len(g.locals))], g.expr(2))
	case kind < 6 && depth < 3: // if / if-else
		g.indent(depth)
		fmt.Fprintf(&g.sb, "if %s {\n", g.cond())
		g.stmt(depth + 1)
		if g.rng.Intn(2) == 0 {
			g.indent(depth)
			g.sb.WriteString("} else {\n")
			g.stmt(depth + 1)
		}
		g.indent(depth)
		g.sb.WriteString("}\n")
	case kind < 7 && depth < 2: // bounded loop
		g.indent(depth)
		iv := fmt.Sprintf("i%d", g.stmts)
		fmt.Fprintf(&g.sb, "for var %s = 0; %s < %d; %s = %s + 1 {\n", iv, iv, 2+g.rng.Intn(14), iv, iv)
		g.ivars = append(g.ivars, iv)
		g.stmt(depth + 1)
		g.ivars = g.ivars[:len(g.ivars)-1]
		g.indent(depth)
		g.sb.WriteString("}\n")
	case kind < 9: // call into the runtime or an earlier filler proc
		g.indent(depth)
		dst := g.locals[g.rng.Intn(len(g.locals))]
		if len(g.callees) > 0 && g.rng.Intn(2) == 0 && g.calls < 3 && depth == 1 {
			g.calls++
			callee := g.callees[g.rng.Intn(len(g.callees))]
			arity := g.arities[callee]
			args := make([]string, arity)
			for i := range args {
				args[i] = g.expr(1)
			}
			fmt.Fprintf(&g.sb, "%s = %s + %s(%s);\n", dst, dst, callee, strings.Join(args, ", "))
		} else {
			rc := runtimeCallable[g.rng.Intn(2)] // to_lower / hex_digit (scalar-safe)
			fmt.Fprintf(&g.sb, "%s = %s ^ %s(%s);\n", dst, dst, rc.name, g.expr(1))
		}
	default: // early return
		g.indent(depth)
		fmt.Fprintf(&g.sb, "if %s {\n", g.cond())
		g.indent(depth + 1)
		fmt.Fprintf(&g.sb, "return %s;\n", g.expr(1))
		g.indent(depth)
		g.sb.WriteString("}\n")
	}
}
