package core

import (
	"math/rand"
	"reflect"
	"testing"

	"firmup/internal/corpusindex"
	"firmup/internal/sim"
)

// matchBatch plays the game for several procedures of one query
// executable against a single target through one shared matcher, as a
// target pass does for the queries of one executable.
func matchBatch(q *sim.Exe, qis []int, t *sim.Exe, opt *Options) []Result {
	out := make([]Result, len(qis))
	m := newMatcher(q, t, nil)
	for i, qi := range qis {
		out[i] = runShared(q, qi, t, opt, m, nil)
	}
	m.release()
	return out
}

// everyTarget is the play-everything plan list: each of nq queries
// against all nt targets.
func everyTarget(nq, nt int) []Plan {
	all := make([]int, nt)
	for i := range all {
		all[i] = i
	}
	plans := make([]Plan, nq)
	for qx := range plans {
		plans[qx].Targets = all
	}
	return plans
}

// TestMatchBatchEquivalenceRandomized: every Result of a batched pass —
// target, score, steps, matched pairs, end reason and trace — must be
// deep-equal to an independent Match call for the same (qi, target)
// pair, for any batch composition including repeated procedures.
func TestMatchBatchEquivalenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	opt := &Options{RecordTrace: true}
	for trial := 0; trial < 200; trial++ {
		it := corpusindex.NewInterner()
		nq := 2 + rng.Intn(14)
		nt := 2 + rng.Intn(14)
		universe := 1 + rng.Intn(24)
		q := sim.FromProcs("Q", randProcs(rng, "q", nq, universe, 8), it)
		tt := sim.FromProcs("T", randProcs(rng, "t", nt, universe, 8), it)
		qis := make([]int, 1+rng.Intn(2*nq)) // duplicates allowed
		for i := range qis {
			qis[i] = rng.Intn(nq)
		}
		batch := matchBatch(q, qis, tt, opt)
		for i, qi := range qis {
			solo := Match(q, qi, tt, opt)
			if !reflect.DeepEqual(batch[i], solo) {
				t.Fatalf("trial %d: batched game %d (qi=%d) diverges from Match:\nbatch: %+v\nsolo:  %+v",
					trial, i, qi, batch[i], solo)
			}
		}
	}
}

// TestMatchBatchEquivalenceTightLimits stresses the shared matcher near
// the top-k truncation boundary: tiny MaxMatches/MaxSteps with dense
// overlap force exclusion-heavy revisits of candidate lists warmed by
// earlier games of the batch.
func TestMatchBatchEquivalenceTightLimits(t *testing.T) {
	rng := rand.New(rand.NewSource(555))
	for trial := 0; trial < 200; trial++ {
		opt := &Options{
			MaxSteps:    1 + rng.Intn(8),
			MaxMatches:  1 + rng.Intn(4),
			RecordTrace: true,
		}
		n := 4 + rng.Intn(10)
		universe := 1 + rng.Intn(6)
		q := sim.FromProcs("Q", randProcs(rng, "q", n, universe, 5), session)
		tt := sim.FromProcs("T", randProcs(rng, "t", n, universe, 5), session)
		qis := make([]int, 1+rng.Intn(n))
		for i := range qis {
			qis[i] = rng.Intn(n)
		}
		batch := matchBatch(q, qis, tt, opt)
		for i, qi := range qis {
			solo := Match(q, qi, tt, opt)
			if !reflect.DeepEqual(batch[i], solo) {
				t.Fatalf("trial %d: batched game %d (qi=%d) diverges under tight limits:\nbatch: %+v\nsolo:  %+v",
					trial, i, qi, batch[i], solo)
			}
		}
	}
}

// randBatchScenario is one randomized multi-executable search setup:
// several query executables with procedure picks, and a shared target
// set, all interned under one session so the CSR fast paths engage.
type randBatchScenario struct {
	queries []BatchQuery
	targets []*sim.Exe
}

func newRandBatchScenario(rng *rand.Rand) randBatchScenario {
	it := corpusindex.NewInterner()
	universe := 4 + rng.Intn(24)
	var sc randBatchScenario
	nexes := 1 + rng.Intn(3)
	for e := 0; e < nexes; e++ {
		nq := 2 + rng.Intn(8)
		q := sim.FromProcs("Q", randProcs(rng, "q", nq, universe, 8), it)
		for k := 0; k < 1+rng.Intn(4); k++ {
			sc.queries = append(sc.queries, BatchQuery{Q: q, QI: rng.Intn(nq)})
		}
	}
	nt := 3 + rng.Intn(8)
	for ti := 0; ti < nt; ti++ {
		np := 2 + rng.Intn(10)
		sc.targets = append(sc.targets, sim.FromProcs("T", randProcs(rng, "t", np, universe, 8), it))
	}
	return sc
}

// TestSearchBatchEquivalenceRandomized sweeps randomized batches of
// queries spanning several query executables: every query's per-target
// findings in the batched pass must deep-equal those of a pass of that
// query alone, and the batch must be order-insensitive: shuffling the
// queries permutes the results and nothing else.
func TestSearchBatchEquivalenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(31337))
	for trial := 0; trial < 120; trial++ {
		sc := newRandBatchScenario(rng)
		opt := &SearchOptions{
			MinScore:         1 + rng.Intn(3),
			MinRatio:         0.05 + 0.3*rng.Float64(),
			MarkerMinOverlap: -1, // random procs carry no markers
		}
		// Sweep batch sizes 1..len: each prefix is its own batch.
		for n := 1; n <= len(sc.queries); n++ {
			batch := PlayBatch(sc.queries[:n], sc.targets, everyTarget(n, len(sc.targets)), opt)
			for i, bq := range sc.queries[:n] {
				solo := PlayBatch([]BatchQuery{bq}, sc.targets, everyTarget(1, len(sc.targets)), opt)[0]
				if !reflect.DeepEqual(batch[i], solo) {
					t.Fatalf("trial %d: batch size %d query %d diverges from a pass of its own:\nbatch: %+v\nsolo:  %+v",
						trial, n, i, batch[i], solo)
				}
			}
		}
		// Order-insensitivity: a shuffled batch returns the same result
		// for each query, aligned to the shuffled positions.
		plans := everyTarget(len(sc.queries), len(sc.targets))
		full := PlayBatch(sc.queries, sc.targets, plans, opt)
		perm := rng.Perm(len(sc.queries))
		shuffled := make([]BatchQuery, len(sc.queries))
		for i, p := range perm {
			shuffled[i] = sc.queries[p]
		}
		reres := PlayBatch(shuffled, sc.targets, plans, opt)
		for i, p := range perm {
			if !reflect.DeepEqual(reres[i], full[p]) {
				t.Fatalf("trial %d: shuffled batch position %d (original %d) diverges:\nshuffled: %+v\noriginal: %+v",
					trial, i, p, reres[i], full[p])
			}
		}
	}
}
