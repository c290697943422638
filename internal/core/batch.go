package core

import (
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"

	"firmup/internal/sim"
	"firmup/internal/telemetry"
)

// BatchQuery identifies one query procedure of a batched search pass:
// procedure QI of the query executable Q.
type BatchQuery struct {
	Q  *sim.Exe
	QI int
}

// meters are what a search pass counts into, looked up once per pass
// (PlayBatch) in its span's registry; all nil — recording nothing —
// without one. Game outcomes are identical either way.
type meters struct {
	// played counts the games the pass plays; unplayed the (query,
	// target) pairs it did not play because no procedure of the target
	// could be accepted; cut the games it stopped once every acceptable
	// procedure had been matched to some other query procedure
	// (EndUnacceptable).
	played, unplayed, cut *telemetry.Counter
	// steps observes the step count of every game played; accepted that
	// of the games whose finding cleared the acceptance thresholds — the
	// paper's Fig. 9 population.
	steps, accepted *telemetry.Histogram
	// hits and misses count memoized candidate-list reuse versus
	// first-touch similarity accumulations inside the matchers.
	hits, misses *telemetry.Counter
	// searches counts the pass's queries; kept and skipped the targets
	// each query's plan lists versus those the caller's narrowing left
	// out.
	searches, kept, skipped *telemetry.Counter
	// batches counts passes; shared the games answered through a matcher
	// already warmed by an earlier query of the same target pass — the
	// cross-query similarity-vector reuse the batch engine exists for;
	// perTarget observes, for every target the pass examines, how many
	// of its queries shared that target's pass.
	batches, shared *telemetry.Counter
	perTarget       *telemetry.Histogram
}

// metersOf looks the pass's meters up in sp's registry.
func metersOf(sp telemetry.Span) *meters {
	return &meters{
		played:    sp.Counter("game.played"),
		unplayed:  sp.Counter("game.unplayed"),
		cut:       sp.Counter("game.cut"),
		steps:     sp.Histogram("game.steps"),
		accepted:  sp.Histogram("game.steps.accepted"),
		hits:      sp.Counter("game.matcher_hits"),
		misses:    sp.Counter("game.matcher_misses"),
		searches:  sp.Counter("search.runs"),
		kept:      sp.Counter("search.targets_kept"),
		skipped:   sp.Counter("search.targets_skipped"),
		batches:   sp.Counter("batch.searches"),
		shared:    sp.Counter("batch.shared_games"),
		perTarget: sp.Histogram("batch.queries_per_target"),
	}
}

// runShared plays one game through a caller-managed matcher with fresh
// pooled game state. acceptable is runGame's.
func runShared(q *sim.Exe, qi int, t *sim.Exe, opt *Options, m *matcher, acceptable []int32) Result {
	st := newGameState()
	res := runGame(q, qi, t, opt, m, st, acceptable)
	st.release()
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

// slot is one planned game of a target pass: query qx, whose plan lists
// the target at position k.
type slot struct{ qx, k int }

// PlayBatch is the search pass: every query's games in one sweep over
// the targets, with the candidate narrowing already resolved by the
// caller. Query qx is played against targets[ti] for every ti in
// plans[qx].Targets (targets outside every list are never dereferenced
// and may be nil). Each target is visited once, on the caller's goroutine
// or one of opt.Workers−1 more: the queries aimed at it play their games
// back-to-back, and queries from the same query executable share one
// matcher, so similarity vectors accumulated for one query answer the
// rest. Per-query state —
// game state, findings — is never shared, so a query's findings do not
// depend on what else is in the batch, on query order or on the worker
// count. It returns the per-target result slots: [qx][ti] is the
// accepted finding of query qx in targets[ti], nil where there is none —
// so a caller whose targets stand for several occurrences each can fan
// one game out without re-finding it by path.
//
// A game is played only while it can still be accepted. Before each one
// the pass computes, from the query's similarity vector in the target —
// the plan's, or the matcher's own first accumulation — the procedures
// accept would pass (matcher.acceptableSet): when there are none the
// game is not played, and a game that is played stops once the last of
// them has been matched to another query procedure (see runGame).
// Neither changes a finding or its step count; game.unplayed and
// game.cut count them.
//
// A panic on any of them — a memory fault on a target's mapped slabs
// included — is re-raised on the caller's once every worker has stopped,
// as a TargetPanic naming the target it was playing, so the caller's
// recover sees it and can blame the store that holds the target.
//
// The pass is timed under "core.search_batch", or "core.search" for a
// batch of one, and counted (see meters) into the span's registry.
func PlayBatch(queries []BatchQuery, targets []*sim.Exe, plans []Plan, opt *SearchOptions) [][]*Finding {
	name := "core.search_batch"
	if len(queries) == 1 {
		name = "core.search"
	}
	sp := opt.span().Start(name)
	defer sp.End()
	m := metersOf(sp)
	m.batches.Inc()

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
			m.searches.Inc()
			m.kept.Add(int64(len(plans[qx].Targets)))
			m.skipped.Add(int64(len(targets) - len(plans[qx].Targets)))
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
	// The caller's goroutine plays too, beside workers−1 more; each
	// claims the next target until none is left.
	var next atomic.Int64
	var mu sync.Mutex
	var total passCounts
	var panicOnce sync.Once
	var panicked *TargetPanic
	run := func() {
		ti := -1
		defer func() {
			if r := recover(); r != nil {
				panicOnce.Do(func() { panicked = &TargetPanic{Target: ti, Value: r} })
				next.Store(int64(len(work))) // the others claim no more
			}
		}()
		var c passCounts
		for i := int(next.Add(1)) - 1; i < len(work); i = int(next.Add(1)) - 1 {
			ti = work[i]
			runTargetPass(queries, targets[ti], ti, perTarget[ti], plans, opt, m, findings, &c)
		}
		mu.Lock()
		total.add(&c)
		mu.Unlock()
	}
	var wg sync.WaitGroup
	for range min(opt.workers(), len(work)) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Targets may alias a mapped shard: a fault reading one that
			// was truncated under the process is a panic, re-raised below.
			debug.SetPanicOnFault(true)
			run()
		}()
	}
	run()
	wg.Wait()
	if panicked != nil {
		panic(*panicked)
	}

	m.unplayed.Add(total.unplayed)
	m.cut.Add(total.cut)
	if m.accepted != nil {
		for qx := range findings {
			for _, f := range findings[qx] {
				if f != nil {
					m.accepted.Observe(int64(f.Steps))
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
		sp.SetAttr("game_steps", total.steps)
		sp.SetAttr("games_unplayed", total.unplayed)
		sp.SetAttr("games_cut", total.cut)
		sp.SetAttr("games_lost", total.lost)
		for i, why := range refusals {
			sp.SetAttr("refused_"+why, total.refused[i])
		}
	}
	return findings
}

// TargetPanic is what PlayBatch re-raises of a panic in a game: the
// value the game panicked with and the index of the target it played.
type TargetPanic struct {
	Target int
	Value  any
}

// refusals are the reasons Refusal names, in passCounts.refused order.
var refusals = [...]string{"score", "ratio", "marker"}

// passCounts is one worker's tally over the target passes it ran: the
// steps of the games played, and every planned game that yielded no
// finding by why — unplayed, cut, lost (ended with no target) or refused
// by the acceptance predicate, per refusals entry. With the findings they
// sum to the planned games.
type passCounts struct {
	steps, unplayed, cut, lost int64
	refused                    [len(refusals)]int64
}

func (c *passCounts) add(o *passCounts) {
	c.steps += o.steps
	c.unplayed += o.unplayed
	c.cut += o.cut
	c.lost += o.lost
	for i, n := range o.refused {
		c.refused[i] += n
	}
}

// runTargetPass plays every batch query aimed at one target. Queries
// from the same query executable (contiguous in slots by construction)
// run through one matcher, so the similarity vectors and candidate
// lists the first game memoizes answer the rest; game state and findings
// stay per-query. Everything it counts goes into the pass's meters m.
func runTargetPass(queries []BatchQuery, t *sim.Exe, ti int, slots []slot, plans []Plan, opt *SearchOptions, m *meters, findings [][]*Finding, c *passCounts) {
	m.perTarget.Observe(int64(len(slots)))
	for i := 0; i < len(slots); {
		q := queries[slots[i].qx].Q
		mt := newMatcher(q, t, m)
		j := i
		for ; j < len(slots) && queries[slots[j].qx].Q == q; j++ {
			qx, qi := slots[j].qx, queries[slots[j].qx].QI
			acc := mt.acceptableSet(qi, plans[qx].vector(slots[j].k), opt)
			if len(acc) == 0 {
				c.unplayed++
				continue
			}
			r := runShared(q, qi, t, opt.game(), mt, acc)
			m.played.Inc()
			m.steps.Observe(int64(r.Steps))
			c.steps += int64(r.Steps)
			f := accept(q, qi, t, r, opt)
			findings[qx][ti] = f
			switch {
			case f != nil:
			case r.Reason == EndUnacceptable:
				c.cut++
			case r.Target < 0:
				c.lost++
			default:
				_, why := Refusal(q, qi, t, r.Target, r.Score, opt)
				c.refused[slices.Index(refusals[:], why)]++
			}
			if j > i {
				m.shared.Inc()
			}
		}
		mt.release()
		i = j
	}
}
