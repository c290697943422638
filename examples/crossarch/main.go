// Cross-architecture demo: reproduce the paper's Fig. 1 and Fig. 3
// narrative. The same wget procedure is compiled by two different tool
// chains; the machine code shares no instructions, yet after lifting,
// decomposition and canonicalization the two builds share most of their
// canonical strands — and the same holds across architectures.
//
// Run with: go run ./examples/crossarch
package main

import (
	"fmt"
	"log"

	"firmup/internal/cfg"
	"firmup/internal/compiler"
	"firmup/internal/corpus"
	"firmup/internal/corpusindex"
	"firmup/internal/isa"
	_ "firmup/internal/isa/arm"
	_ "firmup/internal/isa/mips"
	_ "firmup/internal/isa/ppc"
	_ "firmup/internal/isa/x86"
	"firmup/internal/obj"
	"firmup/internal/strand"
	"firmup/internal/uir"
)

const procName = "ftp_retrieve_glob"

// build compiles wget 1.15 for arch under the given profile and returns
// the recovered view plus the target procedure's strand set, interned
// under it so that sets of one interner compare by dense ID.
func build(it strand.Interner, arch uir.Arch, prof compiler.Profile, opt isa.Options) (*cfg.Proc, strand.Set, error) {
	src, err := corpus.PackageSource("wget", "1.15")
	if err != nil {
		return nil, strand.Set{}, err
	}
	pkg, err := compiler.CompileToMIR(src, prof)
	if err != nil {
		return nil, strand.Set{}, err
	}
	be, err := isa.ByArch(arch)
	if err != nil {
		return nil, strand.Set{}, err
	}
	art, err := be.Generate(pkg, opt)
	if err != nil {
		return nil, strand.Set{}, err
	}
	f := obj.FromArtifact(art)
	rec, err := cfg.Recover(f)
	if err != nil {
		return nil, strand.Set{}, err
	}
	p := rec.Proc(procName)
	if p == nil {
		return nil, strand.Set{}, fmt.Errorf("%s not recovered", procName)
	}
	ex := strand.NewExtractor(&strand.Options{ABI: be.ABI(), Sections: f.Map()}, it, nil)
	defer ex.Release()
	set, _ := ex.Proc(p.Blocks)
	return p, set, nil
}

func main() {
	features := map[string]bool{"OPIE": true, "SSL": true, "COOKIES": true, "IPV6": true}
	it := corpusindex.NewInterner()

	// Build A: the analyst's query tool chain (gcc52-O2 style, MIPS).
	profA := compiler.DefaultQueryProfile(uir.ArchMIPS32)
	pA, setA, err := build(it, uir.ArchMIPS32, profA, isa.Options{
		TextBase: 0x400000, RegSeed: 1, SchedSeed: 1, MulByShift: true})
	if err != nil {
		log.Fatal(err)
	}

	// Build B: a vendor-style tool chain on the same architecture.
	profB := compiler.Profile{OptLevel: 1, Features: features, RegSeed: 77, SchedSeed: 13}
	pB, setB, err := build(it, uir.ArchMIPS32, profB, isa.Options{
		TextBase: 0x80001000, RegSeed: 77, SchedSeed: 13, ShuffleProcs: true})
	if err != nil {
		log.Fatal(err)
	}

	// Build C: a different architecture entirely.
	profC := compiler.Profile{OptLevel: 2, Features: features, RegSeed: 5}
	_, setC, err := build(it, uir.ArchARM32, profC, isa.Options{TextBase: 0x8000, RegSeed: 5})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("=== Fig. 1: the syntactic gap ===")
	fmt.Printf("\nFirst basic block of %s, build A (gcc52-O2, MIPS):\n", procName)
	printHead(pA, 7)
	fmt.Printf("\nFirst basic block of %s, build B (vendor tool chain, MIPS):\n", procName)
	printHead(pB, 7)

	beMIPS, _ := isa.ByArch(uir.ArchMIPS32)

	shared := map[string]bool{}
	for _, in := range pA.Insts[:min(20, len(pA.Insts))] {
		shared[beMIPS.Disasm(in)] = true
	}
	overlap := 0
	for _, in := range pB.Insts[:min(20, len(pB.Insts))] {
		if shared[beMIPS.Disasm(in)] {
			overlap++
		}
	}
	fmt.Printf("\nidentical instruction lines among the first 20: %d\n", overlap)

	fmt.Println("\n=== Fig. 3: canonical strands bridge the gap ===")
	fmt.Printf("build A: %3d canonical strands\n", setA.Size())
	fmt.Printf("build B: %3d canonical strands, %d shared with A (Sim)\n", setB.Size(), setA.Intersect(setB))
	fmt.Printf("build C: %3d canonical strands, %d shared with A — across architectures (ARM vs MIPS)\n",
		setC.Size(), setA.Intersect(setC))

	fmt.Println("\nA canonical branch strand from build A:")
	be, _ := isa.ByArch(uir.ArchMIPS32)
	opt := &strand.Options{ABI: be.ABI()}
	for _, s := range strand.ExtractBlock(pA.Blocks[0], opt) {
		fmt.Println("  ---")
		fmt.Println("  " + s.Text)
	}
}

func printHead(p *cfg.Proc, n int) {
	be, _ := isa.ByArch(uir.ArchMIPS32)
	for i, in := range p.Insts {
		if i >= n {
			return
		}
		fmt.Printf("  %08x  %s\n", in.Addr, be.Disasm(in))
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
