// Package gitz implements the procedure-centric baseline of the paper's
// evaluation, modeled on GitZ (David et al., PLDI'17): pairwise strand
// similarity weighted by a statistical global context, with no use of the
// surrounding executable. Given a query it returns a ranked top-k list;
// the paper's comparison takes the top-1 as GitZ's answer.
package gitz

import (
	"math"
	"sort"

	"firmup/internal/sim"
	"firmup/internal/strand"
)

// Context is the trained global context: for every strand, by dense ID,
// how common it is in a random sample of procedures "in the wild". Rare
// strands carry more evidence of shared origin than ubiquitous ones. The
// sample and every set scored against it share one ID space: the
// sample's session, which a query's overlay extends with private IDs no
// sampled procedure holds.
type Context struct {
	df     map[uint32]int
	nprocs int
}

// Train builds a context from a sample of executables (the paper trains
// one per architecture over more than a thousand procedures).
func Train(sample []*sim.Exe) *Context {
	c := &Context{df: map[uint32]int{}}
	for _, e := range sample {
		for _, p := range e.Procs {
			c.nprocs++
			for _, id := range p.Set.IDs {
				c.df[id]++
			}
		}
	}
	return c
}

// Weight returns the significance of strand id: log(N/df), the inverse
// document frequency over the sampled procedures.
func (c *Context) Weight(id uint32) float64 {
	if c == nil || c.nprocs == 0 {
		return 1
	}
	df := c.df[id]
	return math.Log(float64(c.nprocs+1) / float64(df+1))
}

// Engine is a GitZ-style searcher.
type Engine struct {
	Ctx *Context
}

// Score computes the context-weighted similarity between a query strand
// set and procedure i of t.
func (e *Engine) Score(q strand.Set, t *sim.Exe, i int) float64 {
	shared := 0.0
	qs, ts := q.IDs, t.Procs[i].Set.IDs
	j, k := 0, 0
	for j < len(qs) && k < len(ts) {
		switch {
		case qs[j] == ts[k]:
			shared += e.Ctx.Weight(qs[j])
			j++
			k++
		case qs[j] < ts[k]:
			j++
		default:
			k++
		}
	}
	return shared
}

// TopK ranks the procedures of t by decreasing weighted similarity to q.
// There is no notion of a positive or negative match: the caller decides
// what to do with the ranking (the paper's comparison takes top-1).
func (e *Engine) TopK(q strand.Set, t *sim.Exe, k int) []sim.Scored {
	var out []sim.Scored
	for i := range t.Procs {
		s := e.Score(q, t, i)
		if s > 0 {
			out = append(out, sim.Scored{Proc: i, Score: s})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Proc < out[j].Proc
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}
