package core

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"firmup/internal/cfg"
	"firmup/internal/compiler"
	"firmup/internal/corpusindex"
	"firmup/internal/isa"
	_ "firmup/internal/isa/arm"
	"firmup/internal/isa/isatest"
	_ "firmup/internal/isa/mips"
	_ "firmup/internal/isa/ppc"
	_ "firmup/internal/isa/x86"
	"firmup/internal/obj"
	"firmup/internal/sim"
	"firmup/internal/strand"
	"firmup/internal/uir"
)

// session is the analyzer session the synthetic executables of a test
// share: strand hashes intern to the same dense IDs in every one of them,
// so their sets compare.
var session = corpusindex.NewInterner()

// mkProc builds a synthetic procedure from raw strand hashes.
func mkProc(name string, hashes ...uint64) *sim.Proc {
	s := append([]uint64(nil), hashes...)
	// strand.Set requires sorted unique hashes.
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return &sim.Proc{Name: name, Set: strand.Set{Hashes: s}}
}

// TestFig4Scenario reproduces the paper's Fig. 4: the procedure-centric
// pick for q1 is t1 (Sim=3), but t1's best partner is q2 (Sim=4), so the
// game must hand q1 its globally-correct match t2 (Sim=2).
func TestFig4Scenario(t *testing.T) {
	q := sim.FromProcs("Q", []*sim.Proc{
		mkProc("q1", 1, 2, 3),
		mkProc("q2", 1, 3, 4, 5),
	}, session)
	tt := sim.FromProcs("T", []*sim.Proc{
		mkProc("t1", 1, 2, 3, 4, 5),
		mkProc("t2", 2, 3),
	}, session)
	// Procedure-centric: q1's local best is t1.
	best, score := tt.BestMatch(q.Procs[0].Set, nil)
	if best != 0 || score != 3 {
		t.Fatalf("procedure-centric pick = t%d (Sim=%d), want t1 (3)", best+1, score)
	}
	// Executable-centric: the game corrects to t2.
	r := Match(q, 0, tt, &Options{RecordTrace: true})
	if r.Reason != EndMatched {
		t.Fatalf("game ended %v: %+v", r.Reason, r)
	}
	if r.Target != 1 {
		t.Errorf("game matched q1 with t%d, want t2; trace: %+v", r.Target+1, r.Trace)
	}
	if r.Steps < 2 {
		t.Errorf("correction requires >= 2 steps, got %d", r.Steps)
	}
	if len(r.Trace) == 0 {
		t.Error("trace not recorded")
	}
	// The partial matching must contain both pairs but never a full
	// matching requirement.
	if len(r.MatchedPairs) != 2 {
		t.Errorf("matched pairs = %v", r.MatchedPairs)
	}
}

func TestOneStepAgreement(t *testing.T) {
	q := sim.FromProcs("Q", []*sim.Proc{mkProc("q1", 1, 2, 3)}, session)
	tt := sim.FromProcs("T", []*sim.Proc{
		mkProc("t1", 1, 2, 3),
		mkProc("t2", 9, 10),
	}, session)
	r := Match(q, 0, tt, nil)
	if r.Target != 0 || r.Steps != 1 {
		t.Errorf("expected 1-step match to t1, got target=%d steps=%d", r.Target, r.Steps)
	}
	if r.Score != 3 {
		t.Errorf("score = %d", r.Score)
	}
}

func TestNoCandidate(t *testing.T) {
	q := sim.FromProcs("Q", []*sim.Proc{mkProc("q1", 1, 2)}, session)
	tt := sim.FromProcs("T", []*sim.Proc{mkProc("t1", 8, 9)}, session)
	r := Match(q, 0, tt, nil)
	if r.Target != -1 || r.Reason != EndNoCandidate {
		t.Errorf("result = %+v, want no-candidate", r)
	}
}

// The game must always terminate, whatever the strand structure.
func TestGameTerminationRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		nq := 2 + rng.Intn(12)
		nt := 2 + rng.Intn(12)
		universe := 1 + rng.Intn(20)
		mk := func(name string, n int) []*sim.Proc {
			var out []*sim.Proc
			for i := 0; i < n; i++ {
				seen := map[uint64]bool{}
				var hs []uint64
				for k := 0; k < 1+rng.Intn(8); k++ {
					h := uint64(1 + rng.Intn(universe))
					if !seen[h] {
						seen[h] = true
						hs = append(hs, h)
					}
				}
				out = append(out, mkProc(name+string(rune('a'+i)), hs...))
			}
			return out
		}
		q := sim.FromProcs("Q", mk("q", nq), session)
		tt := sim.FromProcs("T", mk("t", nt), session)
		qi := rng.Intn(nq)
		r := Match(q, qi, tt, nil)
		if r.Steps > 64 {
			t.Fatalf("trial %d: %d steps exceeds cap", trial, r.Steps)
		}
		// The matching must be injective in both directions.
		qs := map[int]bool{}
		ts := map[int]bool{}
		for _, pr := range r.MatchedPairs {
			if qs[pr[0]] || ts[pr[1]] {
				t.Fatalf("trial %d: matching not injective: %v", trial, r.MatchedPairs)
			}
			qs[pr[0]] = true
			ts[pr[1]] = true
		}
	}
}

// Every committed pair must be mutually best among the procedures not
// matched earlier — the local consistency Eq. 1 demands.
func TestMatchingConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		mk := func(name string, n int) []*sim.Proc {
			var out []*sim.Proc
			for i := 0; i < n; i++ {
				var hs []uint64
				for k := 0; k < 3+rng.Intn(6); k++ {
					hs = append(hs, uint64(1+rng.Intn(15)))
				}
				set := map[uint64]bool{}
				var uniq []uint64
				for _, h := range hs {
					if !set[h] {
						set[h] = true
						uniq = append(uniq, h)
					}
				}
				out = append(out, mkProc(name+string(rune('a'+i)), uniq...))
			}
			return out
		}
		q := sim.FromProcs("Q", mk("q", 6), session)
		tt := sim.FromProcs("T", mk("t", 6), session)
		r := Match(q, 0, tt, nil)
		// Replay: at each commit, both directions agreed given the
		// then-current exclusions.
		mq := map[int]bool{}
		mt := map[int]bool{}
		for _, pr := range r.MatchedPairs {
			qi, ti := pr[0], pr[1]
			fw, _ := tt.BestMatch(q.Procs[qi].Set, func(i int) bool { return mt[i] })
			bk, _ := q.BestMatch(tt.Procs[ti].Set, func(i int) bool { return mq[i] })
			if fw != ti || bk != qi {
				t.Fatalf("trial %d: pair (%d,%d) not mutually best (fw=%d bk=%d)", trial, qi, ti, fw, bk)
			}
			mq[qi] = true
			mt[ti] = true
		}
	}
}

// --- integration over real compiled binaries ---

func buildExe(t *testing.T, arch uir.Arch, prof compiler.Profile, opt isa.Options, strip bool) *sim.Exe {
	t.Helper()
	pkg, err := compiler.CompileToMIR(isatest.Source, prof)
	if err != nil {
		t.Fatal(err)
	}
	be, err := isa.ByArch(arch)
	if err != nil {
		t.Fatal(err)
	}
	art, err := be.Generate(pkg, opt)
	if err != nil {
		t.Fatal(err)
	}
	f := obj.FromArtifact(art)
	if strip {
		f.Strip()
	}
	rec, err := cfg.Recover(f)
	if err != nil {
		t.Fatal(err)
	}
	return sim.BuildWith("test-exe", rec, session, nil)
}

// The game over real cross-tool-chain binaries: match accuracy must be at
// least as good as procedure-centric matching.
func TestGameBeatsOrMatchesPairwiseOnRealBinaries(t *testing.T) {
	q := buildExe(t, uir.ArchMIPS32, compiler.Profile{OptLevel: 2},
		isa.Options{TextBase: 0x400000, MulByShift: true}, false)
	tgt := buildExe(t, uir.ArchMIPS32, compiler.Profile{OptLevel: 1},
		isa.Options{TextBase: 0x80000000, RegSeed: 77, SchedSeed: 13, ShuffleProcs: true}, false)
	gameCorrect, pairCorrect, total := 0, 0, 0
	for qi, qp := range q.Procs {
		if qp.Set.Size() < 3 {
			continue
		}
		total++
		r := Match(q, qi, tgt, nil)
		if r.Target >= 0 && tgt.Procs[r.Target].Name == qp.Name {
			gameCorrect++
		}
		best, _ := tgt.BestMatch(qp.Set, nil)
		if best >= 0 && tgt.Procs[best].Name == qp.Name {
			pairCorrect++
		}
	}
	if total == 0 {
		t.Fatal("no procedures")
	}
	if gameCorrect < pairCorrect {
		t.Errorf("game accuracy %d/%d below pairwise %d/%d", gameCorrect, total, pairCorrect, total)
	}
	if float64(gameCorrect)/float64(total) < 0.8 {
		t.Errorf("game accuracy %d/%d too low", gameCorrect, total)
	}
}

func TestSearchParallelAndThreshold(t *testing.T) {
	q := buildExe(t, uir.ArchARM32, compiler.Profile{OptLevel: 2}, isa.Options{TextBase: 0x8000}, false)
	qi := q.ProcByName("deep")
	if qi < 0 {
		t.Fatal("query proc missing")
	}
	// Targets: two containing the procedure (different tool chains), one
	// unrelated (different source entirely — approximate by an exe with
	// only tiny procedures: reuse same source but we check scores).
	t1 := buildExe(t, uir.ArchARM32, compiler.Profile{OptLevel: 2},
		isa.Options{TextBase: 0x10000, RegSeed: 5, SchedSeed: 3}, true)
	t2 := buildExe(t, uir.ArchARM32, compiler.Profile{OptLevel: 3},
		isa.Options{TextBase: 0x20000, RegSeed: 9, ShuffleProcs: true}, true)
	found := PlayBatch([]BatchQuery{{Q: q, QI: qi}}, []*sim.Exe{t1, t2}, everyTarget(1, 2), &SearchOptions{MinScore: 3, MinRatio: 0.25, Workers: 4})
	for ti, f := range found[0] {
		if f == nil {
			t.Fatalf("no finding in target %d: %+v", ti, found)
		}
		if f.Ratio < 0.25 {
			t.Errorf("finding ratio %.2f below threshold", f.Ratio)
		}
		if f.Steps < 1 {
			t.Errorf("finding %+v records no game steps", f)
		}
	}
}

// TestPlayBatchPanicReachesCaller: a panic inside a target pass — here a
// planned target that is nil — happens on one of the pass's worker
// goroutines, where nothing the caller does could recover it. PlayBatch
// must re-raise it on the calling goroutine, after every worker has
// stopped.
func TestPlayBatchPanicReachesCaller(t *testing.T) {
	q := sim.FromProcs("Q", []*sim.Proc{mkProc("q0", 1, 2, 3, 4)}, session)
	good := sim.FromProcs("T", []*sim.Proc{mkProc("t0", 1, 2, 3, 4)}, session)
	targets := []*sim.Exe{good, good, nil, good, good, good, good, good}
	before := runtime.NumGoroutine()
	var got any
	func() {
		defer func() { got = recover() }()
		PlayBatch([]BatchQuery{{Q: q, QI: 0}}, targets, everyTarget(1, len(targets)), &SearchOptions{MinScore: 3, MinRatio: 0.25, Workers: 4})
	}()
	if got == nil {
		t.Fatal("PlayBatch returned normally from a pass over a nil target")
	}
	if tp, ok := got.(TargetPanic); !ok || tp.Target != 2 {
		t.Errorf("PlayBatch re-raised %#v, want a TargetPanic naming target 2", got)
	}
	// Workers are waited for before the re-panic; allow the runtime a
	// moment to retire their goroutines.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before the pass, %d after: a worker is still running", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPlayBatchPanicNamesTarget: whichever goroutine of the pass plays
// the target that panics — the caller's alone with one worker, any of
// four with four — the re-raised panic carries that target's index and
// the value the game panicked with, so a caller whose targets live in
// different stores can blame the one that holds it.
func TestPlayBatchPanicNamesTarget(t *testing.T) {
	q := sim.FromProcs("Q", []*sim.Proc{mkProc("q0", 1, 2, 3, 4)}, session)
	good := sim.FromProcs("T", []*sim.Proc{mkProc("t0", 1, 2, 3, 4)}, session)
	for _, workers := range []int{1, 4} {
		for bad := range 8 {
			targets := []*sim.Exe{good, good, good, good, good, good, good, good}
			targets[bad] = nil
			var got any
			func() {
				defer func() { got = recover() }()
				PlayBatch([]BatchQuery{{Q: q, QI: 0}}, targets, everyTarget(1, len(targets)), &SearchOptions{MinScore: 3, MinRatio: 0.25, Workers: workers})
			}()
			tp, ok := got.(TargetPanic)
			if !ok || tp.Target != bad {
				t.Fatalf("workers=%d, nil target %d: PlayBatch re-raised %#v, want a TargetPanic naming target %d", workers, bad, got, bad)
			}
			if _, ok := tp.Value.(runtime.Error); !ok {
				t.Errorf("workers=%d: the panic carries %#v, want the game's runtime error", workers, tp.Value)
			}
		}
	}
}

func TestEndReasonStrings(t *testing.T) {
	seen := map[string]bool{}
	for r := EndMatched; r <= EndUnacceptable; r++ {
		if r.String() == "" || seen[r.String()] {
			t.Errorf("EndReason %d has an empty or repeated string %q", r, r)
		}
		seen[r.String()] = true
		text, _ := r.MarshalText()
		var back EndReason
		if err := back.UnmarshalText(text); err != nil || back != r {
			t.Errorf("EndReason %d (%s) round-trips to %d (err %v)", r, text, back, err)
		}
	}
	if EndUnacceptable.String() != "unacceptable" {
		t.Errorf("EndUnacceptable.String() = %q", EndUnacceptable)
	}
	var r EndReason
	if err := r.UnmarshalText([]byte("lost")); err == nil {
		t.Error("an unknown end reason decoded without error")
	}
}
