package core

import (
	"math/rand"
	"reflect"
	"testing"

	"firmup/internal/corpusindex"
	"firmup/internal/sim"
)

// randProcs generates n procedures with random strand sets drawn from a
// universe of the given size (the generator the termination tests use).
func randProcs(rng *rand.Rand, name string, n, universe, maxStrands int) []*sim.Proc {
	var out []*sim.Proc
	for i := 0; i < n; i++ {
		seen := map[uint64]bool{}
		var hs []uint64
		for k := 0; k < 1+rng.Intn(maxStrands); k++ {
			h := uint64(1 + rng.Intn(universe))
			if !seen[h] {
				seen[h] = true
				hs = append(hs, h)
			}
		}
		out = append(out, mkProc(name+string(rune('a'+i%26)), hs...))
	}
	return out
}

// assertGameEquiv runs both engines on the same game and requires the
// full Result — target, score, steps, reason, matched pairs and trace —
// to be deep-equal.
func assertGameEquiv(t *testing.T, trial int, q *sim.Exe, qi int, tt *sim.Exe, opt *Options) {
	t.Helper()
	memo := Match(q, qi, tt, opt)
	ref := MatchReference(q, qi, tt, opt)
	if !reflect.DeepEqual(memo, ref) {
		t.Fatalf("trial %d: memoized game diverges from reference:\nmemo: %+v\nref:  %+v",
			trial, memo, ref)
	}
}

// TestMemoizationEquivalenceRandomized: the memoized engine must be
// byte-identical to the reference on randomized corpora, every executable
// under the package's shared session.
func TestMemoizationEquivalenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	opt := &Options{RecordTrace: true}
	for trial := 0; trial < 300; trial++ {
		nq := 2 + rng.Intn(14)
		nt := 2 + rng.Intn(14)
		universe := 1 + rng.Intn(24)
		q := sim.FromProcs("Q", randProcs(rng, "q", nq, universe, 8), session)
		tt := sim.FromProcs("T", randProcs(rng, "t", nt, universe, 8), session)
		assertGameEquiv(t, trial, q, qi(rng, nq), tt, opt)
	}
}

// TestMemoizationEquivalenceSession is the same property with a fresh
// session per trial, so strand IDs run dense from zero.
func TestMemoizationEquivalenceSession(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	opt := &Options{RecordTrace: true}
	for trial := 0; trial < 300; trial++ {
		it := corpusindex.NewInterner()
		nq := 2 + rng.Intn(14)
		nt := 2 + rng.Intn(14)
		universe := 1 + rng.Intn(24)
		q := sim.FromProcs("Q", randProcs(rng, "q", nq, universe, 8), it)
		tt := sim.FromProcs("T", randProcs(rng, "t", nt, universe, 8), it)
		assertGameEquiv(t, trial, q, qi(rng, nq), tt, opt)
	}
}

// TestMemoizationEquivalenceTightLimits stresses the game bounds: tiny
// MaxMatches/MaxSteps with dense overlap force revisits and
// exclusion-heavy scans.
func TestMemoizationEquivalenceTightLimits(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 300; trial++ {
		opt := &Options{
			MaxSteps:    1 + rng.Intn(8),
			MaxMatches:  1 + rng.Intn(4),
			RecordTrace: true,
		}
		n := 4 + rng.Intn(10)
		universe := 1 + rng.Intn(6) // dense overlap: nearly everything collides
		q := sim.FromProcs("Q", randProcs(rng, "q", n, universe, 5), session)
		tt := sim.FromProcs("T", randProcs(rng, "t", n, universe, 5), session)
		assertGameEquiv(t, trial, q, qi(rng, n), tt, opt)
	}
}

func qi(rng *rand.Rand, n int) int { return rng.Intn(n) }

// TestMatcherLongGames pins the compact-list matcher where its scan
// differs most from a ranked prefix: wide executables whose procedures
// each see more than 64 positive candidates, nearly all of them tied,
// under every pairing of MaxMatches and MaxSteps in {1, 2, 3, 64}. The
// wide bounds let games run long, so lists are revisited under growing
// exclusion maps; the tight ones stop them mid-course. The full Result,
// trace included, must equal the reference engine's.
func TestMatcherLongGames(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	bounds := []int{1, 2, 3, 64}
	maxSteps, wide := 0, false
	for trial := 0; trial < 6; trial++ {
		// A six-strand universe over 80–140 procedures: every strand is
		// shared by dozens of procedures, so scores tie constantly.
		n := 80 + rng.Intn(61)
		q := sim.FromProcs("Q", randProcs(rng, "q", n, 6, 4), session)
		tt := sim.FromProcs("T", randProcs(rng, "t", n, 6, 4), session)
		for _, mm := range bounds {
			for _, ms := range bounds {
				opt := &Options{MaxMatches: mm, MaxSteps: ms, RecordTrace: true}
				for k := 0; k < 8; k++ {
					i := qi(rng, n)
					assertGameEquiv(t, trial, q, i, tt, opt)
					maxSteps = max(maxSteps, Match(q, i, tt, opt).Steps)
					positives := 0
					for _, c := range tt.SimAll(q.Procs[i].Set) {
						if c > 0 {
							positives++
						}
					}
					wide = wide || positives > 64
				}
			}
		}
	}
	if maxSteps < 3 {
		t.Errorf("longest game took %d steps; the revisit scan went unexercised", maxSteps)
	}
	if !wide {
		t.Error("no query saw more than 64 positive candidates; the wide-list case went unexercised")
	}
}

// TestMatcherScanMatchesBestMatch checks the memoized scan directly
// against a full BestMatch under exclusion maps that remove the leaders,
// including one that removes every candidate.
func TestMatcherScanMatchesBestMatch(t *testing.T) {
	q := sim.FromProcs("Q", []*sim.Proc{mkProc("q1", 1, 2, 3, 4)}, session)
	tt := sim.FromProcs("T", []*sim.Proc{
		mkProc("t0", 9),          // Sim 0: never listed
		mkProc("t1", 1, 2, 3),    // Sim 3
		mkProc("t2", 1, 2, 3, 4), // Sim 4
		mkProc("t3", 2, 3, 4),    // Sim 3: ties t1, loses on index
		mkProc("t4", 1),          // Sim 1
	}, session)
	m := newMatcher(q, tt, nil)
	defer m.release()
	for _, excluded := range []map[int]int{
		nil, {2: 0}, {2: 0, 1: 0}, {2: 0, 1: 0, 3: 0}, {1: 0, 2: 0, 3: 0, 4: 0},
	} {
		gotP, gotS := m.bestInT(0, excluded)
		wantP, wantS := tt.BestMatch(q.Procs[0].Set, func(i int) bool { _, ok := excluded[i]; return ok })
		if gotP != wantP || gotS != wantS {
			t.Errorf("excluded %v: pick = (%d, %d), want BestMatch's (%d, %d)", excluded, gotP, gotS, wantP, wantS)
		}
	}
	if sp := m.qt[0]; sp.n != 4 {
		t.Errorf("memoized list holds %d candidates, want the 4 positive ones", sp.n)
	}
}

// TestMatcherReuseAcrossGames: a pooled matcher recycled between games
// with different executables must not leak memoized state.
func TestMatcherReuseAcrossGames(t *testing.T) {
	qa := sim.FromProcs("QA", []*sim.Proc{mkProc("q1", 1, 2, 3)}, session)
	ta := sim.FromProcs("TA", []*sim.Proc{mkProc("t1", 1, 2, 3), mkProc("t2", 9, 10)}, session)
	qb := sim.FromProcs("QB", []*sim.Proc{mkProc("q1", 9, 10)}, session)
	tb := sim.FromProcs("TB", []*sim.Proc{mkProc("t1", 1, 2, 3), mkProc("t2", 9, 10)}, session)
	for i := 0; i < 50; i++ {
		ra := Match(qa, 0, ta, nil)
		if ra.Target != 0 || ra.Score != 3 {
			t.Fatalf("iter %d: game A target=%d score=%d", i, ra.Target, ra.Score)
		}
		rb := Match(qb, 0, tb, nil)
		if rb.Target != 1 || rb.Score != 2 {
			t.Fatalf("iter %d: game B target=%d score=%d", i, rb.Target, rb.Score)
		}
	}
}
