package core

import (
	"sync"

	"firmup/internal/sim"
	"firmup/internal/strand"
	"firmup/internal/telemetry"
)

// picker answers the game's two directed best-match queries. The
// memoized matcher and the reference engine implement it; runGame is
// written once against it, so the equivalence tests compare exactly the
// memoization, not two divergent game skeletons. The exclusion set is
// the game's live matched map for the scanned side — passing the map
// itself (rather than a closure over it) keeps the game loop free of
// per-game closure allocations.
type picker interface {
	// bestInT finds the best procedure of T for Q's procedure qi among
	// those not in excluded, under BestMatch's tie-break.
	bestInT(qi int, excluded map[int]int) (int, int)
	// bestInQ is the reverse direction.
	bestInQ(ti int, excluded map[int]int) (int, int)
}

// refPicker is the unmemoized reference: every query re-runs a full
// SimAll accumulation with a fresh buffer, as the engine did before the
// matcher existed. It backs MatchReference.
type refPicker struct{ q, t *sim.Exe }

func (p refPicker) bestInT(qi int, excluded map[int]int) (int, int) {
	return p.t.BestMatch(p.q.Procs[qi].Set, func(i int) bool { _, ok := excluded[i]; return ok })
}

func (p refPicker) bestInQ(ti int, excluded map[int]int) (int, int) {
	return p.q.BestMatch(p.t.Procs[ti].Set, func(i int) bool { _, ok := excluded[i]; return ok })
}

// span locates one procedure's candidate list inside the matcher's slab.
// n < 0 marks a vector not yet computed.
type span struct{ off, n int32 }

// matcher is the memoization layer between the back-and-forth game and
// sim.Exe. Each game step runs up to two best-match queries, and the same
// procedure is frequently re-queried after the exclusion set grew — yet
// its full similarity vector never changes: BestMatch applies the
// exclusion filter at scan time, so the accumulation is
// exclusion-independent. The matcher therefore computes each procedure's
// vector once, keeps its positive-Sim candidates as a compact list in
// procedure-index order, and answers every query — first touch and
// revisit alike — by one strictly-greater scan of that list under the
// caller's exclusion map: exactly BestMatch's scan with the zero
// entries already dropped, so the pick and its tie-break (equal scores
// keep the lower index) cannot differ from the reference's.
//
// The list is complete, so exclusions can never exhaust it short of the
// point where a full scan would find nothing either: there is no ranking
// to maintain and no bound tied to the game's MaxMatches. Almost every
// game ends on its first exchange (Fig. 9 of the paper), so selecting a
// ranked prefix on first touch would be all cost; a revisit scans the
// procedure's positive candidates instead of every procedure.
//
// Matchers, their count buffers and their candidate slabs are drawn from
// a package-level sync.Pool, so the games of one search pass (and of
// every concurrent search in the process) recycle the same arenas and the
// hot path allocates nothing after warm-up.
type matcher struct {
	q, t *sim.Exe

	qt   []span          // q procedure index → candidate list in t
	tq   []span          // t procedure index → candidate list in q
	slab []sim.ProcScore // backing store for all candidate lists of this game

	counts []int   // accumulation scratch, sized to max(|q.Procs|, |t.Procs|)
	acc    []int32 // acceptableSet's result, reused across the matcher's games

	// What the matcher counts into, reset per draw (matchers are pooled);
	// nil records nothing.
	hits, misses *telemetry.Counter
}

var matcherPool = sync.Pool{New: func() any { return new(matcher) }}

// newMatcher draws a matcher from the arena pool and readies it for the
// games of one (q, t) pair, counting candidate-list reuse into the
// pass's meters m (nil records nothing).
func newMatcher(q, t *sim.Exe, m *meters) *matcher {
	mt := matcherPool.Get().(*matcher)
	mt.q, mt.t = q, t
	mt.qt = resetSpans(mt.qt, len(q.Procs))
	mt.tq = resetSpans(mt.tq, len(t.Procs))
	mt.slab = mt.slab[:0]
	if n := max(len(q.Procs), len(t.Procs)); cap(mt.counts) < n {
		mt.counts = make([]int, n)
	}
	mt.hits, mt.misses = nil, nil
	if m != nil {
		mt.hits, mt.misses = m.hits, m.misses
	}
	return mt
}

// release returns the matcher (and its arenas) to the pool.
func (m *matcher) release() {
	m.q, m.t = nil, nil
	matcherPool.Put(m)
}

// resetSpans grows sp to n entries and marks every entry uncomputed.
func resetSpans(sp []span, n int) []span {
	if cap(sp) < n {
		sp = make([]span, n)
	} else {
		sp = sp[:n]
	}
	for i := range sp {
		sp[i] = span{n: -1}
	}
	return sp
}

func (m *matcher) bestInT(qi int, excluded map[int]int) (int, int) {
	return m.best(m.t, m.q.Procs[qi].Set, &m.qt[qi], excluded)
}

func (m *matcher) bestInQ(ti int, excluded map[int]int) (int, int) {
	return m.best(m.q, m.t.Procs[ti].Set, &m.tq[ti], excluded)
}

// best answers one directed query from the memoized candidate list,
// computing it on first touch. The exclusion map is consulted only for
// candidates that would otherwise take the lead.
func (m *matcher) best(e *sim.Exe, set strand.Set, sp *span, excluded map[int]int) (int, int) {
	if sp.n < 0 {
		m.misses.Inc()
		m.memoize(e, set, sp)
	} else {
		m.hits.Inc()
	}
	best, bestScore := -1, int32(0)
	for _, c := range m.slab[sp.off : sp.off+sp.n] {
		if c.Score <= bestScore {
			continue
		}
		if _, ok := excluded[int(c.Proc)]; ok {
			continue
		}
		best, bestScore = int(c.Proc), c.Score
	}
	return best, int(bestScore)
}

// memoize accumulates the full similarity vector for set over e and
// stores its positive entries, in index order, in the slab.
func (m *matcher) memoize(e *sim.Exe, set strand.Set, sp *span) {
	sp.off = int32(len(m.slab))
	m.counts = e.SimAllInto(set, m.counts)
	for i, c := range m.counts {
		if c != 0 {
			m.slab = append(m.slab, sim.ProcScore{Proc: int32(i), Score: int32(c)})
		}
	}
	sp.n = int32(len(m.slab)) - sp.off
}

// acceptableSet returns the procedures of t that accept would turn into
// a finding for qi — every positive entry of qi's similarity vector that
// passes acceptable — so it is empty exactly when no game for qi in t
// can end in a finding. The vector is qt[qi], the one the game's first
// query reads. On first touch a non-nil vec — the positive entries of
// t.SimAll for qi's set in procedure order, which a corpus posting scan
// has already counted — is installed as that vector; without one the
// matcher accumulates its own. The result aliases matcher scratch and is
// valid until the next call.
func (m *matcher) acceptableSet(qi int, vec []sim.ProcScore, opt *SearchOptions) []int32 {
	sp := &m.qt[qi]
	if sp.n < 0 {
		if vec != nil {
			sp.off, sp.n = int32(len(m.slab)), int32(len(vec))
			m.slab = append(m.slab, vec...)
		} else {
			m.misses.Inc()
			m.memoize(m.t, m.q.Procs[qi].Set, sp)
		}
	}
	m.acc = m.acc[:0]
	floor := int32(opt.minScore()) // Refusal refuses every score below it
	for _, c := range m.slab[sp.off : sp.off+sp.n] {
		if c.Score < floor {
			continue
		}
		if _, ok := acceptable(m.q, qi, m.t, int(c.Proc), int(c.Score), opt); ok {
			m.acc = append(m.acc, c.Proc)
		}
	}
	return m.acc
}

// gameState is the per-game bookkeeping (partial matching, work stack),
// pooled so the search hot path does not rebuild four containers per
// game.
type gameState struct {
	matchedQ, matchedT map[int]int
	inStack            map[item]bool
	stack              []item
}

var statePool = sync.Pool{New: func() any {
	return &gameState{
		matchedQ: map[int]int{},
		matchedT: map[int]int{},
		inStack:  map[item]bool{},
	}
}}

func newGameState() *gameState {
	s := statePool.Get().(*gameState)
	clear(s.matchedQ)
	clear(s.matchedT)
	clear(s.inStack)
	s.stack = s.stack[:0]
	return s
}

func (s *gameState) release() { statePool.Put(s) }

// push adds a work item unless it is already pending.
func (s *gameState) push(it item) bool {
	if s.inStack[it] {
		return false
	}
	s.inStack[it] = true
	s.stack = append(s.stack, it)
	return true
}

// pop removes the top work item.
func (s *gameState) pop() {
	top := s.stack[len(s.stack)-1]
	s.stack = s.stack[:len(s.stack)-1]
	delete(s.inStack, top)
}
