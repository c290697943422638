package gitz

import (
	"testing"

	"firmup/internal/corpusindex"
	"firmup/internal/sim"
	"firmup/internal/strand"
)

func mk(name string, hashes ...uint64) *sim.Proc {
	s := append([]uint64(nil), hashes...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return &sim.Proc{Name: name, Set: strand.Set{Hashes: s}}
}

func TestWeightFavorsRareStrands(t *testing.T) {
	// Strand 1 appears in every procedure; strand 9 in exactly one.
	it := corpusindex.NewInterner()
	sample := sim.FromProcs("s", []*sim.Proc{
		mk("a", 1, 9),
		mk("b", 1, 2),
		mk("c", 1, 3),
		mk("d", 1, 4),
	}, it)
	ctx := Train([]*sim.Exe{sample})
	common, rare := it.Intern(1), it.Intern(9)
	if ctx.Weight(common) >= ctx.Weight(rare) {
		t.Errorf("ubiquitous strand weight %.3f must be below rare strand %.3f", ctx.Weight(common), ctx.Weight(rare))
	}
	if ctx.Weight(it.Intern(1234)) <= ctx.Weight(common) {
		t.Error("never-seen strand must outweigh ubiquitous strand")
	}
}

func TestNilContextDegradesToCount(t *testing.T) {
	var c *Context
	if c.Weight(7) != 1 {
		t.Error("nil context must weight uniformly")
	}
}

// The weighting is the point of the baseline: a procedure sharing one
// rare strand must outrank one sharing a slightly larger number of
// ubiquitous strands.
func TestRankingUsesContext(t *testing.T) {
	// Training: strands 1..4 are everywhere, 100 is unique.
	var trainProcs []*sim.Proc
	for i := 0; i < 40; i++ {
		trainProcs = append(trainProcs, mk("p", 1, 2, 3, 4))
	}
	trainProcs = append(trainProcs, mk("rare", 100))
	it := corpusindex.NewInterner()
	ctx := Train([]*sim.Exe{sim.FromProcs("train", trainProcs, it)})
	e := &Engine{Ctx: ctx}

	q := mk("query", 1, 2, 100).Set.Interned(it)
	tgt := sim.FromProcs("T", []*sim.Proc{
		mk("common_twin", 1, 2, 3, 4), // shares 2 ubiquitous strands
		mk("real_twin", 100, 7),       // shares the 1 rare strand
	}, it)
	top := e.TopK(q, tgt, 2)
	if len(top) != 2 {
		t.Fatalf("top = %v", top)
	}
	if top[0].Proc != 1 {
		t.Errorf("top-1 = %s, want real_twin", tgt.Procs[top[0].Proc].Name)
	}
}

func TestTopKOrderingAndCutoff(t *testing.T) {
	e := &Engine{Ctx: Train(nil)}
	it := corpusindex.NewInterner()
	q := mk("q", 1, 2, 3).Set.Interned(it)
	tgt := sim.FromProcs("T", []*sim.Proc{
		mk("a", 1),
		mk("b", 1, 2),
		mk("c", 1, 2, 3),
		mk("d", 9),
	}, it)
	top := e.TopK(q, tgt, 2)
	if len(top) != 2 || top[0].Proc != 2 || top[1].Proc != 1 {
		t.Errorf("top = %+v", top)
	}
}
