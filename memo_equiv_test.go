package firmup_test

import (
	"reflect"
	"testing"

	"firmup/internal/core"
	"firmup/internal/corpus"
	"firmup/internal/eval"
	"firmup/internal/sim"
	"firmup/internal/uir"
)

// The memoized game engine must be indistinguishable from the reference
// on the realistic corpus: for every query procedure and every target
// executable, the full game result — target, score, steps, matched
// pairs, end reason and trace — deep-equal.
func TestMemoizedEngineEquivalenceOnCorpus(t *testing.T) {
	env, err := eval.Prepare(corpus.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	q, err := env.Query("wget", "1.15", uir.ArchMIPS32)
	if err != nil {
		t.Fatal(err)
	}
	var targets []*sim.Exe
	for _, u := range env.Units {
		if u.Arch == uir.ArchMIPS32 {
			targets = append(targets, u.Exe)
		}
	}
	if len(targets) < 2 {
		t.Fatalf("only %d MIPS targets", len(targets))
	}
	opt := &core.Options{RecordTrace: true}
	games, diverged := 0, 0
	for qi, qp := range q.Procs {
		if qp.Set.Size() < 3 {
			continue
		}
		for ti, tgt := range targets {
			games++
			memo := core.Match(q, qi, tgt, opt)
			ref := core.MatchReference(q, qi, tgt, opt)
			if !reflect.DeepEqual(memo, ref) {
				diverged++
				t.Errorf("query %q vs target %d: memoized engine diverges\nmemo: %+v\nref:  %+v",
					qp.Name, ti, memo, ref)
				if diverged > 3 {
					t.Fatal("too many divergences; aborting")
				}
			}
		}
	}
	if games == 0 {
		t.Fatal("no games played; scenario is vacuous")
	}
	t.Logf("%d games byte-identical across engines", games)
}

// A search pass through the memoized engine must agree with the games
// replayed one by one on the reference engine: every accepted finding
// took the reference's step count. This pins the engine swap at the
// PlayBatch layer, where the matcher arenas are shared across workers.
func TestMemoizedSearchMatchesReferenceReplay(t *testing.T) {
	env, err := eval.Prepare(corpus.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	q, err := env.Query("wget", "1.15", uir.ArchMIPS32)
	if err != nil {
		t.Fatal(err)
	}
	qi := q.ProcByName("ftp_retrieve_glob")
	if qi < 0 {
		t.Fatal("query lacks ftp_retrieve_glob")
	}
	var targets []*sim.Exe
	for _, u := range env.Units {
		if u.Arch == uir.ArchMIPS32 {
			targets = append(targets, u.Exe)
		}
	}
	// Replay each finding's game on the reference engine and cross-check
	// the step count behind it.
	found := 0
	for ti, f := range playEverywhere(q, qi, targets, &core.SearchOptions{}) {
		if f == nil {
			continue
		}
		found++
		if want := core.MatchReference(q, qi, targets[ti], &core.Options{}).Steps; f.Steps != want {
			t.Errorf("finding in target %d: steps = %d, reference replay = %d", ti, f.Steps, want)
		}
	}
	if found == 0 {
		t.Fatal("search found nothing; scenario is vacuous")
	}
}
