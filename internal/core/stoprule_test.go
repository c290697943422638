package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"firmup/internal/corpusindex"
	"firmup/internal/sim"
	"firmup/internal/telemetry"
)

// positives is a similarity vector in the form a plan carries it: the
// positive entries of t.SimAll(q.Procs[qi].Set) in procedure order.
func positives(q *sim.Exe, qi int, t *sim.Exe) []sim.ProcScore {
	out := []sim.ProcScore{}
	for pi, c := range t.SimAll(q.Procs[qi].Set) {
		if c > 0 {
			out = append(out, sim.ProcScore{Proc: int32(pi), Score: int32(c)})
		}
	}
	return out
}

// withVectors returns the plan for q's procedure qi over the listed
// targets carrying every similarity vector, as a posting scan would.
func withVectors(q *sim.Exe, qi int, targets []*sim.Exe, list []int) Plan {
	p := Plan{Targets: list, Off: []int32{0}, Vec: []sim.ProcScore{}}
	for _, ti := range list {
		p.Vec = append(p.Vec, positives(q, qi, targets[ti])...)
		p.Off = append(p.Off, int32(len(p.Vec)))
	}
	return p
}

// randMarkers gives about half the procedures a few sorted markers from a
// small universe, so the marker bar both passes and fails.
func randMarkers(rng *rand.Rand, procs []*sim.Proc) []*sim.Proc {
	for _, p := range procs {
		if rng.Intn(2) == 0 {
			continue
		}
		for m := uint32(1); m <= 6; m++ {
			if rng.Intn(2) == 0 {
				p.Markers = append(p.Markers, m)
			}
		}
	}
	return procs
}

// TestStopRuleEquivalence: not playing a game that cannot be accepted,
// and stopping one that no longer can, changes no finding. Randomized
// executables with heavy ties (tiny strand universes), every combination
// of tight and default game limits, the three
// marker-bar settings, plans with and without installed vectors, batches
// that repeat queries and share one matcher across several procedures
// of a query executable: for every planned (query, target) the batch's
// finding equals accept over the full game Match plays — Steps included
// — and every game the pass plays is a prefix of that full course,
// identical to it unless it ended EndUnacceptable. The pass's span
// accounts for every planned game once: found, unplayed, cut, lost or
// refused.
func TestStopRuleEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	limits := []int{1, 2, 3, 64}
	bars := []float64{0, 0.9, -1}
	var played, cut, unplayed, found int
	var lost, refused int64
	for trial := 0; trial < 400; trial++ {
		it := corpusindex.NewInterner()
		universe := 2 + rng.Intn(10)
		opt := &SearchOptions{
			Game:             Options{MaxSteps: limits[rng.Intn(4)], MaxMatches: limits[rng.Intn(4)]},
			MinScore:         1 + rng.Intn(3),
			MinRatio:         0.05 + 0.5*rng.Float64(),
			MarkerMinOverlap: bars[trial%3],
			Workers:          1 + rng.Intn(3),
		}
		var queries []BatchQuery
		for e := 0; e < 1+rng.Intn(3); e++ {
			nq := 2 + rng.Intn(8)
			q := sim.FromProcs("Q", randMarkers(rng, randProcs(rng, "q", nq, universe, 6)), it)
			for k := 0; k < 1+rng.Intn(5); k++ { // repeats allowed
				queries = append(queries, BatchQuery{Q: q, QI: rng.Intn(nq)})
			}
		}
		var targets []*sim.Exe
		for ti := 0; ti < 2+rng.Intn(6); ti++ {
			np := 1 + rng.Intn(10)
			targets = append(targets, sim.FromProcs("T", randMarkers(rng, randProcs(rng, "t", np, universe, 6)), it))
		}
		plans := make([]Plan, len(queries))
		for qx, bq := range queries {
			var list []int
			for _, ti := range rng.Perm(len(targets)) {
				if rng.Intn(4) > 0 {
					list = append(list, ti)
				}
			}
			plans[qx].Targets = list
			if rng.Intn(2) == 0 {
				plans[qx] = withVectors(bq.Q, bq.QI, targets, list)
			}
		}

		tr := telemetry.NewTrace(telemetry.NewTraceID())
		reg := telemetry.New()
		opt.Span = telemetry.Root(reg, tr)
		pass := PlayBatch(queries, targets, plans, opt)
		opt.Span = telemetry.Span{}
		passUnplayed, passCut := reg.Counter("game.unplayed").Value(), reg.Counter("game.cut").Value()
		attrs := tr.Snapshot().Spans[0].Attrs
		tr.Free()
		accounted := int64(0)
		for _, k := range []string{"findings", "games_unplayed", "games_cut", "games_lost", "refused_score", "refused_ratio", "refused_marker"} {
			accounted += attrs[k].(int64)
		}
		if accounted != attrs["examined"] {
			t.Fatalf("trial %d: the pass's span accounts for %d games, examined %v: %v", trial, accounted, attrs["examined"], attrs)
		}
		if attrs["games_unplayed"] != passUnplayed || attrs["games_cut"] != passCut {
			t.Fatalf("trial %d: span attrs %v, game.unplayed %d, game.cut %d", trial, attrs, passUnplayed, passCut)
		}
		lost += attrs["games_lost"].(int64)
		refused += attrs["refused_score"].(int64) + attrs["refused_ratio"].(int64) + attrs["refused_marker"].(int64)
		wantUnplayed := 0
		for qx, bq := range queries {
			want := make([]*Finding, len(targets))
			for _, ti := range plans[qx].Targets {
				tt := targets[ti]
				full := Match(bq.Q, bq.QI, tt, &opt.Game)
				want[ti] = accept(bq.Q, bq.QI, tt, full, opt)
				if want[ti] != nil {
					found++
				}
				anyAcceptable := false
				for pi, c := range tt.SimAll(bq.Q.Procs[bq.QI].Set) {
					if _, ok := acceptable(bq.Q, bq.QI, tt, pi, c, opt); ok {
						anyAcceptable = true
					}
				}
				if !anyAcceptable {
					wantUnplayed++
				}
			}
			if !reflect.DeepEqual(pass[qx], want) {
				t.Fatalf("trial %d query %d: batch findings diverge from accept(Match):\nbatch: %+v\nfull:  %+v",
					trial, qx, pass[qx], want)
			}
		}
		if passUnplayed != int64(wantUnplayed) {
			t.Fatalf("trial %d: %d games unplayed, %d (query, target) pairs hold no acceptable procedure", trial, passUnplayed, wantUnplayed)
		}
		unplayed += wantUnplayed

		// The games themselves, one matcher per (query executable, target)
		// shared by that executable's procedures as a target pass shares
		// it: each is a prefix of its full course.
		game := opt.Game
		game.RecordTrace = true
		for _, tt := range targets {
			var m *matcher
			for qx, bq := range queries {
				if m == nil || m.q != bq.Q {
					if m != nil {
						m.release()
					}
					m = newMatcher(bq.Q, tt, nil)
				}
				var vec []sim.ProcScore
				if qx%2 == 0 {
					vec = positives(bq.Q, bq.QI, tt)
				}
				acc := slices.Clone(m.acceptableSet(bq.QI, vec, opt))
				// Exactly the positive entries Refusal passes, in order.
				var wantAcc []int32
				for _, c := range positives(bq.Q, bq.QI, tt) {
					if _, ok := acceptable(bq.Q, bq.QI, tt, int(c.Proc), int(c.Score), opt); ok {
						wantAcc = append(wantAcc, c.Proc)
					}
				}
				if !slices.Equal(acc, wantAcc) {
					t.Fatalf("trial %d: acceptable set %v, Refusal passes %v", trial, acc, wantAcc)
				}
				if len(acc) == 0 {
					continue
				}
				played++
				r := runShared(bq.Q, bq.QI, tt, &game, m, acc)
				full := Match(bq.Q, bq.QI, tt, &game)
				if r.Reason != EndUnacceptable {
					if !reflect.DeepEqual(r, full) {
						t.Fatalf("trial %d: a game that was not cut diverges from its full course:\ncut:  %+v\nfull: %+v", trial, r, full)
					}
					continue
				}
				cut++
				if r.Steps > full.Steps || r.Target != -1 ||
					len(r.MatchedPairs) > len(full.MatchedPairs) ||
					!reflect.DeepEqual(r.MatchedPairs, full.MatchedPairs[:len(r.MatchedPairs)]) ||
					len(r.Trace) > len(full.Trace) ||
					!reflect.DeepEqual(r.Trace, full.Trace[:len(r.Trace)]) {
					t.Fatalf("trial %d: a cut game is not a prefix of its full course:\ncut:  %+v\nfull: %+v", trial, r, full)
				}
				// It was cut at the commit that took the last acceptable
				// procedure, and the full course found nothing either.
				last := r.MatchedPairs[len(r.MatchedPairs)-1]
				if !slices.Contains(acc, int32(last[1])) || last[0] == bq.QI {
					t.Fatalf("trial %d: game cut at pair %v, acceptable %v", trial, last, acc)
				}
				if f := accept(bq.Q, bq.QI, tt, full, opt); f != nil {
					t.Fatalf("trial %d: a cut game's full course is accepted: %+v", trial, f)
				}
			}
			if m != nil {
				m.release()
			}
		}
	}
	t.Logf("%d findings, %d played games of which %d cut, %d unplayed; the passes lost %d and refused %d", found, played, cut, unplayed, lost, refused)
	if found < 100 || cut < 100 || unplayed < 100 || played < 1000 || lost < 100 || refused < 50 {
		t.Fatalf("vacuous: %d findings, %d played games of which %d cut, %d unplayed; %d lost, %d refused", found, played, cut, unplayed, lost, refused)
	}
}

// TestStopRuleStolenPartner is the smallest lost game: the only
// procedure of T the search would accept for q0 prefers q1, the game
// commits (q1, t0) on its second step, and with t0 gone nothing q0 can
// still be matched to is acceptable — so the game ends there,
// unacceptable, one step before its full course matches q0 to a
// leftover the search rejects.
func TestStopRuleStolenPartner(t *testing.T) {
	q := sim.FromProcs("Q", []*sim.Proc{
		mkProc("q0", 1, 2, 3, 4),
		mkProc("q1", 1, 2, 3, 4, 5, 6),
	}, session)
	tt := sim.FromProcs("T", []*sim.Proc{
		mkProc("t0", 1, 2, 3, 4, 5, 6),
		mkProc("t1", 1, 9),
	}, session)
	opt := &SearchOptions{MinScore: 3, MinRatio: 0.25}

	full := Match(q, 0, tt, nil)
	if full.Reason != EndMatched || full.Target != 1 || full.Steps != 3 {
		t.Fatalf("full course = %+v, want q0 matched to t1 in 3 steps", full)
	}
	if f := accept(q, 0, tt, full, opt); f != nil {
		t.Fatalf("the leftover match was accepted: %+v", f)
	}

	m := newMatcher(q, tt, nil)
	acc := m.acceptableSet(0, nil, opt)
	if !slices.Equal(acc, []int32{0}) {
		t.Fatalf("acceptable set = %v, want [0]", acc)
	}
	r := runShared(q, 0, tt, nil, m, acc)
	m.release()
	want := Result{Target: -1, Steps: 2, MatchedPairs: [][2]int{{1, 0}}, Reason: EndUnacceptable}
	if !reflect.DeepEqual(r, want) {
		t.Fatalf("cut game = %+v, want %+v", r, want)
	}

	// Through a search pass: one game cut; against a target holding
	// nothing acceptable, none played.
	none := sim.FromProcs("none", []*sim.Proc{mkProc("n0", 1, 2, 50, 51)}, session)
	targets := []*sim.Exe{tt, none}
	reg := telemetry.New()
	opt.Span = telemetry.Root(reg, nil)
	found := PlayBatch([]BatchQuery{{Q: q, QI: 0}}, targets, []Plan{{Targets: []int{0, 1}}}, opt)
	cut, unplayed := reg.Counter("game.cut").Value(), reg.Counter("game.unplayed").Value()
	if cut != 1 || unplayed != 1 || found[0][0] != nil || found[0][1] != nil {
		t.Fatalf("pass cut %d, left %d unplayed, found %+v; want one game cut, one unplayed, no findings", cut, unplayed, found)
	}
}
