package isa_test

import (
	"testing"

	"firmup/internal/compiler"
	"firmup/internal/isa"
	"firmup/internal/isa/arm"
	"firmup/internal/isa/isatest"
	"firmup/internal/isa/mips"
	"firmup/internal/isa/ppc"
	"firmup/internal/isa/x86"
)

// FuzzDecode drives each backend's decoder and lifter over arbitrary text,
// as firmupd does over an uploaded executable's text section. The first
// input picks the backend; the text is decoded at every offset, and every
// instruction that decodes is lifted. The contract: an error, never a
// panic. The seeds are the conformance program (isatest.Source) as each
// backend compiles it, plainly and under perturbed register allocation,
// scheduling and filled delay slots.
func FuzzDecode(f *testing.F) {
	backends := []isa.Backend{mips.New(), arm.New(), ppc.New(), x86.New()}
	pkg, err := compiler.CompileToMIR(isatest.Source, compiler.Profile{OptLevel: 2})
	if err != nil {
		f.Fatal(err)
	}
	for i, be := range backends {
		for _, opt := range []isa.Options{
			{TextBase: 0x400000},
			{TextBase: 0x80001000, RegSeed: 7, SchedSeed: 13, MulByShift: true, FillDelaySlots: true},
		} {
			art, err := be.Generate(pkg, opt)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(uint8(i), art.Text)
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, text []byte) {
		be := backends[int(which)%len(backends)]
		var lb isa.LiftBuilder
		for off := range text {
			inst, err := be.Decode(text, off, 0x400000+uint32(off))
			if err != nil {
				continue
			}
			lb.Stmts = lb.Stmts[:0]
			lb.NewBlock()
			_ = be.Lift(inst, &lb)
		}
	})
}
