package core

import (
	"sort"
	"sync"

	"firmup/internal/sim"
)

// BatchQuery identifies one query procedure of a batched search pass:
// procedure QI of the query executable Q.
type BatchQuery struct {
	Q  *sim.Exe
	QI int
}

// MatchBatch plays the game for several procedures of one query
// executable against a single target through one shared matcher. The
// matcher's memoized similarity vectors are exclusion-independent (see
// the matcher doc), so candidate lists computed for one game answer
// every later game of the batch; per-game state (partial matching, work
// stack, trace) is fresh for each entry. Every Result — target, score,
// steps, matched pairs, end reason and trace — is byte-identical to an
// independent Match call for the same (qi, target) pair, in any batch
// composition or order; the equivalence tests enforce it.
func MatchBatch(q *sim.Exe, qis []int, t *sim.Exe, opt *Options) []Result {
	out := make([]Result, len(qis))
	m := newMatcher(q, t, opt.tel())
	for i, qi := range qis {
		out[i] = runShared(q, qi, t, opt, m)
	}
	m.release()
	return out
}

// runShared plays one game through a caller-managed matcher with fresh
// pooled game state, recording the same per-game telemetry Match does.
func runShared(q *sim.Exe, qi int, t *sim.Exe, opt *Options, m *matcher) Result {
	st := newGameState()
	res := runGame(q, qi, t, opt, m, st)
	st.release()
	if tel := opt.tel(); tel != nil {
		tel.Games.Inc()
		tel.Steps.Observe(int64(res.Steps))
	}
	return res
}

// SearchBatch runs Search for every query against the same target set
// in one batched game-engine pass. Each target executable is visited
// once: all batch queries whose prefilter kept it play their games
// back-to-back, and queries from the same query executable share one
// matcher, so similarity vectors accumulated for one query answer the
// rest (near-linear throughput in queries-per-target on serve and
// sweep workloads).
//
// The results are positionally aligned with queries and byte-identical
// to running Search once per query: same findings, same examined
// counts, same step histograms, regardless of batch composition or
// query order. Per-query state — game state, findings, histograms — is
// never shared; only the exclusion-independent matcher caches and
// pooled arenas are.
func SearchBatch(queries []BatchQuery, targets []*sim.Exe, opt *SearchOptions) []SearchResult {
	// Per-query candidate narrowing, exactly as the sequential path
	// computes it.
	cands := make([][]int, len(queries))
	for qx, bq := range queries {
		cands[qx] = candidateIndices(bq.Q, bq.QI, targets, opt)
	}
	findings := PlayBatch(queries, targets, cands, opt)
	out := make([]SearchResult, len(queries))
	for qx := range queries {
		res := &out[qx]
		*res = SearchResult{StepsHistogram: map[int]int{}, Examined: len(cands[qx])}
		for _, f := range findings[qx] {
			if f != nil {
				res.Findings = append(res.Findings, *f)
				res.StepsHistogram[f.Steps]++
			}
		}
		sort.Slice(res.Findings, func(i, j int) bool { return res.Findings[i].ExePath < res.Findings[j].ExePath })
	}
	return out
}

// PlayBatch is the game-playing pass under SearchBatch, with the
// candidate narrowing already resolved by the caller: query qx is played
// against targets[ti] for every ti in cands[qx] (valid, duplicate-free
// indices; targets outside every list are never dereferenced and may be
// nil). It returns the per-target result slots — findings[qx][ti] is the
// accepted finding of query qx in target ti, nil where the game was
// rejected or not played — so a caller whose targets stand for several
// occurrences each can fan one game out without re-finding it by path.
//
// The pass records under "core.search_batch", or "core.search" for a
// batch of one.
func PlayBatch(queries []BatchQuery, targets []*sim.Exe, cands [][]int, opt *SearchOptions) [][]*Finding {
	tel := opt.game().tel()
	name := "core.search_batch"
	if len(queries) == 1 {
		name = "core.search"
	}
	sp := opt.traceStart(name)
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
	perTarget := make([][]int, len(targets))
	for _, e := range exes {
		for _, qx := range groups[e] {
			if tel != nil {
				tel.Searches.Inc()
				tel.PrefilterKept.Add(int64(len(cands[qx])))
				tel.PrefilterSkipped.Add(int64(len(targets) - len(cands[qx])))
			}
			for _, ti := range cands[qx] {
				perTarget[ti] = append(perTarget[ti], qx)
			}
		}
	}

	findings := make([][]*Finding, len(queries))
	steps := make([][]int, len(queries))
	for qx := range queries {
		findings[qx] = make([]*Finding, len(targets))
		steps[qx] = make([]int, len(targets))
	}
	var work []int
	for ti, qxs := range perTarget {
		if len(qxs) > 0 {
			work = append(work, ti)
		}
	}
	workers := opt.workers()
	if workers > len(work) {
		workers = len(work)
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ti := range jobs {
				runTargetPass(queries, targets[ti], ti, perTarget[ti], opt, findings, steps)
			}
		}()
	}
	for _, ti := range work {
		jobs <- ti
	}
	close(jobs)
	wg.Wait()

	if tel != nil {
		for qx := range findings {
			for _, f := range findings[qx] {
				if f != nil {
					tel.AcceptedSteps.Observe(int64(f.Steps))
				}
			}
		}
	}
	if sp.Active() {
		var examined, nFindings, gameSteps int64
		for qx := range queries {
			examined += int64(len(cands[qx]))
			for ti, s := range steps[qx] {
				gameSteps += int64(s)
				if findings[qx][ti] != nil {
					nFindings++
				}
			}
		}
		sp.SetAttr("queries", int64(len(queries)))
		sp.SetAttr("targets", int64(len(targets)))
		sp.SetAttr("examined", examined)
		sp.SetAttr("findings", nFindings)
		sp.SetAttr("game_steps", gameSteps)
		sp.End()
	}
	return findings
}

// runTargetPass plays every batch query aimed at one target. Queries
// from the same query executable (contiguous in qxs by construction)
// run through one matcher, so the similarity vectors and candidate
// lists the first game memoizes answer the rest; game state, steps and
// findings stay per-query.
func runTargetPass(queries []BatchQuery, t *sim.Exe, ti int, qxs []int, opt *SearchOptions, findings [][]*Finding, steps [][]int) {
	tel := opt.game().tel()
	if tel != nil {
		tel.BatchQueriesPerTarget.Observe(int64(len(qxs)))
	}
	for i := 0; i < len(qxs); {
		q := queries[qxs[i]].Q
		m := newMatcher(q, t, tel)
		j := i
		for ; j < len(qxs) && queries[qxs[j]].Q == q; j++ {
			qx := qxs[j]
			r := runShared(q, queries[qx].QI, t, opt.game(), m)
			steps[qx][ti] = r.Steps
			findings[qx][ti] = accept(q, queries[qx].QI, t, r, opt)
			if tel != nil && j > i {
				tel.BatchSharedGames.Inc()
			}
		}
		m.release()
		i = j
	}
}
