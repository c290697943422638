package core

import (
	"sync"
	"sync/atomic"

	"firmup/internal/sim"
)

// BatchQuery identifies one query procedure of a batched search pass:
// procedure QI of the query executable Q.
type BatchQuery struct {
	Q  *sim.Exe
	QI int
}

// runShared plays one game through a caller-managed matcher with fresh
// pooled game state, recording the same per-game telemetry Match does.
// acceptable is runGame's.
func runShared(q *sim.Exe, qi int, t *sim.Exe, opt *Options, m *matcher, acceptable []int32) Result {
	st := newGameState()
	res := runGame(q, qi, t, opt, m, st, acceptable)
	st.release()
	if tel := opt.tel(); tel != nil {
		tel.Games.Inc()
		tel.Steps.Observe(int64(res.Steps))
	}
	return res
}

// Plan is one query's resolved play list for PlayBatch: the targets its
// games run against and, when the caller's narrowing already counted
// them, the query's similarity vector in each.
type Plan struct {
	// Targets are valid, duplicate-free indices into the pass's targets.
	Targets []int
	// Off and Vec, when Off is non-nil, carry the vectors: Vec[Off[k]:
	// Off[k+1]] are the positive entries of Targets[k]'s SimAll for the
	// query procedure's set, in procedure order (len(Off) is
	// len(Targets)+1). A corpus posting scan produces exactly this
	// (corpusindex.Scans); the game then starts from it instead of
	// accumulating it again.
	Off []int32
	Vec []sim.ProcScore
}

// vector returns the query's similarity vector in Targets[k], or nil
// when the plan carries none.
func (p *Plan) vector(k int) []sim.ProcScore {
	if p.Off == nil {
		return nil
	}
	return p.Vec[p.Off[k]:p.Off[k+1]]
}

// Played is the outcome of one PlayBatch pass.
type Played struct {
	// Findings are the per-target result slots: Findings[qx][ti] is the
	// accepted finding of query qx in targets[ti], nil where there is
	// none — so a caller whose targets stand for several occurrences each
	// can fan one game out without re-finding it by path.
	Findings [][]*Finding
	// Unplayed counts the planned (query, target) pairs not played because
	// the target holds no acceptable procedure; Cut the games stopped
	// with EndUnacceptable.
	Unplayed, Cut int
}

// slot is one planned game of a target pass: query qx, whose plan lists
// the target at position k.
type slot struct{ qx, k int }

// PlayBatch is the search pass: every query's games in one sweep over
// the targets, with the candidate narrowing already resolved by the
// caller. Query qx is played against targets[ti] for every ti in
// plans[qx].Targets (targets outside every list are never dereferenced
// and may be nil). Each target is visited once, on one of opt.Workers
// goroutines: the queries aimed at it play their games back-to-back, and
// queries from the same query executable share one matcher, so similarity
// vectors accumulated for one query answer the rest. Per-query state —
// game state, findings — is never shared, so a query's findings do not
// depend on what else is in the batch, on query order or on the worker
// count.
//
// A game is played only while it can still be accepted. Before each one
// the pass computes, from the query's similarity vector in the target —
// the plan's, or the matcher's own first accumulation — the procedures
// accept would pass (matcher.acceptableSet): when there are none the
// game is not played, and a game that is played stops once the last of
// them has been matched to another query procedure (see runGame).
// Neither changes a finding or its step count.
//
// A panic on a worker goroutine is re-raised on the caller's once every
// worker has stopped, so the caller's recover sees it.
//
// The pass records under "core.search_batch", or "core.search" for a
// batch of one.
func PlayBatch(queries []BatchQuery, targets []*sim.Exe, plans []Plan, opt *SearchOptions) Played {
	tel := opt.game().tel()
	name := "core.search_batch"
	if len(queries) == 1 {
		name = "core.search"
	}
	sp := opt.span().Start(name)
	defer sp.End()
	if tel != nil {
		tel.BatchSearches.Inc()
	}

	// Group query indices by query executable (first-appearance order)
	// so each per-target pass sees same-executable queries contiguously
	// and shares one matcher across them.
	groups := map[*sim.Exe][]int{}
	var exes []*sim.Exe
	for qx, bq := range queries {
		if _, ok := groups[bq.Q]; !ok {
			exes = append(exes, bq.Q)
		}
		groups[bq.Q] = append(groups[bq.Q], qx)
	}
	perTarget := make([][]slot, len(targets))
	for _, e := range exes {
		for _, qx := range groups[e] {
			if tel != nil {
				tel.Searches.Inc()
				tel.PrefilterKept.Add(int64(len(plans[qx].Targets)))
				tel.PrefilterSkipped.Add(int64(len(targets) - len(plans[qx].Targets)))
			}
			for k, ti := range plans[qx].Targets {
				perTarget[ti] = append(perTarget[ti], slot{qx, k})
			}
		}
	}

	findings := make([][]*Finding, len(queries))
	for qx := range queries {
		findings[qx] = make([]*Finding, len(targets))
	}
	var work []int
	for ti, slots := range perTarget {
		if len(slots) > 0 {
			work = append(work, ti)
		}
	}
	workers := opt.workers()
	if workers > len(work) {
		workers = len(work)
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	var steps, unplayed, cut atomic.Int64
	var panicOnce sync.Once
	var panicked any
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicked = r })
					for range jobs { // unplayed, so the feeding loop below ends
					}
				}
			}()
			var c passCounts
			for ti := range jobs {
				runTargetPass(queries, targets[ti], ti, perTarget[ti], plans, opt, findings, &c)
			}
			steps.Add(c.steps)
			unplayed.Add(c.unplayed)
			cut.Add(c.cut)
		}()
	}
	for _, ti := range work {
		jobs <- ti
	}
	close(jobs)
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}

	out := Played{Findings: findings, Unplayed: int(unplayed.Load()), Cut: int(cut.Load())}
	if tel != nil {
		tel.Unplayed.Add(unplayed.Load())
		tel.Cut.Add(cut.Load())
		for qx := range findings {
			for _, f := range findings[qx] {
				if f != nil {
					tel.AcceptedSteps.Observe(int64(f.Steps))
				}
			}
		}
	}
	if sp.Traced() {
		var examined, nFindings int64
		for qx := range queries {
			examined += int64(len(plans[qx].Targets))
			for _, f := range findings[qx] {
				if f != nil {
					nFindings++
				}
			}
		}
		sp.SetAttr("queries", int64(len(queries)))
		sp.SetAttr("targets", int64(len(targets)))
		sp.SetAttr("examined", examined)
		sp.SetAttr("findings", nFindings)
		sp.SetAttr("game_steps", steps.Load())
		sp.SetAttr("games_unplayed", unplayed.Load())
		sp.SetAttr("games_cut", cut.Load())
	}
	return out
}

// passCounts is one worker's tally over the target passes it ran.
type passCounts struct{ steps, unplayed, cut int64 }

// runTargetPass plays every batch query aimed at one target. Queries
// from the same query executable (contiguous in slots by construction)
// run through one matcher, so the similarity vectors and candidate
// lists the first game memoizes answer the rest; game state and findings
// stay per-query.
func runTargetPass(queries []BatchQuery, t *sim.Exe, ti int, slots []slot, plans []Plan, opt *SearchOptions, findings [][]*Finding, c *passCounts) {
	tel := opt.game().tel()
	if tel != nil {
		tel.BatchQueriesPerTarget.Observe(int64(len(slots)))
	}
	for i := 0; i < len(slots); {
		q := queries[slots[i].qx].Q
		m := newMatcher(q, t, tel)
		j := i
		for ; j < len(slots) && queries[slots[j].qx].Q == q; j++ {
			qx, qi := slots[j].qx, queries[slots[j].qx].QI
			acc := m.acceptableSet(qi, plans[qx].vector(slots[j].k), opt)
			if len(acc) == 0 {
				c.unplayed++
				continue
			}
			r := runShared(q, qi, t, opt.game(), m, acc)
			c.steps += int64(r.Steps)
			if r.Reason == EndUnacceptable {
				c.cut++
			}
			findings[qx][ti] = accept(q, qi, t, r, opt)
			if tel != nil && j > i {
				tel.BatchSharedGames.Inc()
			}
		}
		m.release()
		i = j
	}
}
