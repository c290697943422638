// Package core implements the paper's primary contribution: establishing
// a partial correspondence between the procedures of a query executable
// and a target executable through a back-and-forth game (Algorithm 2),
// and the search engine that applies it across firmware images.
//
// Pairwise similarity alone picks the target procedure with the highest
// Sim score — a local maximum that large unrelated procedures often win.
// The game corrects such mismatches: a locally-best match is kept only if
// the reverse search agrees; otherwise the contested procedures are
// pushed onto the work stack and matched first, building exactly the
// partial matching (containing the query procedure) that Eq. 1 of the
// paper specifies. No full bipartite matching is ever computed.
package core

import (
	"fmt"
	"slices"

	"firmup/internal/sim"
)

// side distinguishes the two executables in the game.
type side uint8

const (
	sideQ side = iota
	sideT
)

// item is one stack entry: a procedure awaiting a consistent match.
type item struct {
	side side
	idx  int
}

// EndReason explains why the game stopped.
type EndReason uint8

// Game end reasons.
const (
	EndMatched      EndReason = iota // the query procedure was matched
	EndNoCandidate                   // no target shares a single strand with some frontier procedure
	EndStuck                         // the stack reached a fixed state
	EndStepLimit                     // heuristic step cap
	EndMatchLimit                    // heuristic matched-pair cap
	EndUnacceptable                  // every target procedure a search could accept is matched elsewhere
)

func (r EndReason) String() string {
	switch r {
	case EndMatched:
		return "matched"
	case EndNoCandidate:
		return "no-candidate"
	case EndStuck:
		return "stuck"
	case EndStepLimit:
		return "step-limit"
	case EndMatchLimit:
		return "match-limit"
	default:
		return "unacceptable"
	}
}

// MarshalText encodes the reason as its String form, so JSON traces
// carry "matched" rather than an opaque ordinal.
func (r EndReason) MarshalText() ([]byte, error) {
	return []byte(r.String()), nil
}

// UnmarshalText decodes the String form.
func (r *EndReason) UnmarshalText(text []byte) error {
	for c := EndMatched; c <= EndUnacceptable; c++ {
		if c.String() == string(text) {
			*r = c
			return nil
		}
	}
	return fmt.Errorf("core: unknown end reason %q", text)
}

// TraceStep records one player/rival exchange for game-course reporting
// (Table 1 of the paper).
type TraceStep struct {
	Actor   string `json:"actor"` // "player" or "rival"
	Text    string `json:"text"`
	Matches string `json:"matches"`
}

// Result is the outcome of one game.
type Result struct {
	// Target is the index of the procedure matched to the query in the
	// target executable, or -1.
	Target int `json:"target"`
	// Score is Sim(query, Target).
	Score int `json:"score"`
	// Steps counts game iterations (1 = the first pick already agreed).
	Steps int `json:"steps"`
	// MatchedPairs is the partial matching built along the way,
	// including the query pair when matched.
	MatchedPairs [][2]int    `json:"matched_pairs,omitempty"`
	Reason       EndReason   `json:"reason"`
	Trace        []TraceStep `json:"trace,omitempty"`
}

// addTrace appends one game-course entry.
func (r *Result) addTrace(actor, text string, pairs int) {
	r.Trace = append(r.Trace, TraceStep{
		Actor:   actor,
		Text:    text,
		Matches: fmt.Sprintf("%d pairs", pairs),
	})
}

// Options bound the game per the paper's heuristics.
type Options struct {
	// MaxSteps caps game iterations (the paper observes up to 32 steps;
	// default 64).
	MaxSteps int
	// MaxMatches caps the size of the partial matching (default 64).
	MaxMatches int
	// RecordTrace captures a human-readable game course.
	RecordTrace bool
}

func (o *Options) maxSteps() int {
	if o == nil || o.MaxSteps <= 0 {
		return 64
	}
	return o.MaxSteps
}

func (o *Options) maxMatches() int {
	if o == nil || o.MaxMatches <= 0 {
		return 64
	}
	return o.MaxMatches
}

func (o *Options) trace() bool { return o != nil && o.RecordTrace }

// Match runs the similarity game to find a consistent match for procedure
// qi of Q inside T.
//
// The engine memoizes: every similarity vector the game queries is
// accumulated once and kept as a compact positive-candidate list, and all
// scratch state is drawn from pooled arenas shared across games (see
// matcher). The results — findings, scores, steps, matched pairs and
// traces — are identical to MatchReference's, byte for byte; the
// equivalence tests enforce it.
func Match(q *sim.Exe, qi int, t *sim.Exe, opt *Options) Result {
	m := newMatcher(q, t, nil)
	st := newGameState()
	res := runGame(q, qi, t, opt, m, st, nil)
	st.release()
	m.release()
	return res
}

// MatchReference is the unmemoized reference engine: the same game
// skeleton, but every best-match query re-runs a full similarity
// accumulation with fresh buffers. It exists for the memoization
// equivalence tests; search paths should use Match.
func MatchReference(q *sim.Exe, qi int, t *sim.Exe, opt *Options) Result {
	return runGame(q, qi, t, opt, refPicker{q: q, t: t}, &gameState{
		matchedQ: map[int]int{},
		matchedT: map[int]int{},
		inStack:  map[item]bool{},
	}, nil)
}

// runGame is the game skeleton, written once against the picker so the
// memoized and reference engines differ in nothing but the similarity
// queries. The body avoids per-game closures and defers trace formatting
// behind opt.trace() so an untraced game allocates only what escapes
// into its Result.
//
// acceptable, when non-empty, lists the only target procedures the
// caller would accept as qi's partner, and the game stops
// (EndUnacceptable) at the commit that matches the last of them to some
// other query procedure. The stop cannot lose a finding: a finding
// exists iff qi ends matched to a listed procedure, committed pairs are
// never retracted, and stopping cuts the game's course short without
// altering the part already played. Nil plays the game to its end.
func runGame(q *sim.Exe, qi int, t *sim.Exe, opt *Options, pk picker, st *gameState, acceptable []int32) Result {
	res := Result{Target: -1}
	left := len(acceptable) // acceptable procedures still unmatched
	matchedQ := st.matchedQ // Q index -> T index
	matchedT := st.matchedT
	trace := opt.trace()

	name := func(s side, i int) string {
		if s == sideQ {
			return q.Procs[i].Name
		}
		return t.Procs[i].Name
	}

	st.push(item{sideQ, qi})
	for {
		if res.Steps >= opt.maxSteps() {
			res.Reason = EndStepLimit
			return res
		}
		if len(matchedQ) >= opt.maxMatches() {
			res.Reason = EndMatchLimit
			return res
		}
		// Drop already-matched entries off the top of the stack.
		for len(st.stack) > 0 {
			top := st.stack[len(st.stack)-1]
			matched := false
			if top.side == sideQ {
				_, matched = matchedQ[top.idx]
			} else {
				_, matched = matchedT[top.idx]
			}
			if !matched {
				break
			}
			st.pop()
		}
		if len(st.stack) == 0 {
			// The query pair is not committed: committing it ends the game.
			res.Reason = EndStuck
			return res
		}
		res.Steps++
		m := st.stack[len(st.stack)-1]

		// Forward: the player's locally-best pick on the other side.
		var forward, fwdScore int
		if m.side == sideQ {
			forward, fwdScore = pk.bestInT(m.idx, matchedT)
		} else {
			forward, fwdScore = pk.bestInQ(m.idx, matchedQ)
		}
		if forward < 0 {
			// Nothing shares a strand with m. If m is the query, the
			// search fails; otherwise drop m and continue.
			st.pop()
			if m.side == sideQ && m.idx == qi {
				res.Reason = EndNoCandidate
				return res
			}
			continue
		}
		if trace {
			res.addTrace("player", fmt.Sprintf("matches %s with %s (Sim=%d)",
				name(m.side, m.idx), name(1-m.side, forward), fwdScore), len(matchedQ))
		}

		// Back: the rival's counter — the best match for forward on m's
		// side.
		var back, backScore int
		if m.side == sideQ {
			back, backScore = pk.bestInQ(forward, matchedQ)
		} else {
			back, backScore = pk.bestInT(forward, matchedT)
		}

		if back == m.idx {
			// Consistent in both directions: commit the pair.
			var qidx, tidx int
			if m.side == sideQ {
				qidx, tidx = m.idx, forward
			} else {
				qidx, tidx = forward, m.idx
			}
			matchedQ[qidx] = tidx
			matchedT[tidx] = qidx
			res.MatchedPairs = append(res.MatchedPairs, [2]int{qidx, tidx})
			st.pop()
			if trace {
				res.addTrace("player", fmt.Sprintf("pair (%s, %s) committed",
					q.Procs[qidx].Name, t.Procs[tidx].Name), len(matchedQ))
			}
			if qidx == qi {
				// Sim is symmetric, so the forward pick's score, in either
				// direction, is Sim(qi, tidx).
				res.Target = tidx
				res.Score = fwdScore
				res.Reason = EndMatched
				return res
			}
			if left > 0 && slices.Contains(acceptable, int32(tidx)) {
				if left--; left == 0 {
					res.Reason = EndUnacceptable
					return res
				}
			}
			continue
		}
		if trace {
			res.addTrace("rival", fmt.Sprintf("counters: %s prefers %s (Sim=%d > %d)",
				name(1-m.side, forward), name(m.side, back), backScore, fwdScore), len(matchedQ))
		}

		// Inconsistent: the contested procedures must be matched first.
		pushedF := st.push(item{1 - m.side, forward})
		pushedB := back >= 0 && st.push(item{m.side, back})
		if !pushedF && !pushedB {
			// Fixed state: no new work can be created, the game cannot
			// make progress (the paper's non-termination condition).
			res.Reason = EndStuck
			return res
		}
	}
}
