package firmup

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"firmup/internal/core"
	"firmup/internal/corpus"
	"firmup/internal/telemetry"
	"firmup/internal/uir"
)

// storeScenario is one generated corpus three ways: the session's
// images, the corpus sealed from them (one shard, in memory), and that
// corpus written to three shard files and opened again — whose
// executables come off the mapping built from strand IDs alone.
type storeScenario struct {
	analyzer *Analyzer
	live     []*Image
	sealed   *SealedCorpus
	stored   *SealedCorpus
	dir      string // stored's shard files
	query    []byte // the wget query, MIPS
}

const storeScenarioProc = "ftp_retrieve_glob"

func buildStoreScenario(t *testing.T) *storeScenario {
	t.Helper()
	c, err := corpus.Build(corpus.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	s := &storeScenario{analyzer: NewAnalyzer(nil)}
	for _, bi := range c.Images {
		img, err := s.analyzer.OpenImage(bi.Image.Pack(true))
		if err != nil {
			t.Fatal(err)
		}
		s.live = append(s.live, img)
	}
	if s.sealed, err = s.analyzer.Seal(s.live...); err != nil {
		t.Fatal(err)
	}
	s.dir = t.TempDir()
	if _, err := s.sealed.WriteShards(s.dir, 3); err != nil {
		t.Fatal(err)
	}
	if s.stored, err = OpenSealedCorpus(s.dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.stored.Close() })
	qf, err := corpus.QueryExe("wget", "1.15", uir.ArchMIPS32)
	if err != nil {
		t.Fatal(err)
	}
	s.query = qf.Bytes()
	return s
}

// TestStoreBackedHashesOnDemand pins what a store-backed executable built
// without hashes must still answer like the live one, whose sets carry no
// hashes either: every procedure's strands (derived through each one's
// session), a plain acceptance, and a search with a stored executable as
// the query of its own corpus.
func TestStoreBackedHashesOnDemand(t *testing.T) {
	s := buildStoreScenario(t)

	for ii, img := range s.live {
		for _, le := range img.Exes {
			se := s.stored.Images()[ii].Executable(le.Path)
			if se == nil {
				t.Fatalf("image %d: %s missing from the opened corpus", ii, le.Path)
			}
			for pi, p := range le.exe.Procs {
				sp := se.exe.Procs[pi]
				if got, want := sp.Set.AppendHashes(nil), p.Set.AppendHashes(nil); !slices.Equal(got, want) {
					t.Fatalf("image %d %s procedure %d: strands differ from the session's", ii, le.Path, pi)
				}
				if sp.Set.Hashes != nil || p.Set.Hashes != nil {
					t.Fatalf("image %d %s procedure %d: a pipeline set carries hashes (live %v, store-backed %v)", ii, le.Path, pi, p.Set.Hashes != nil, sp.Set.Hashes != nil)
				}
				live, stored := len(p.Set.AppendHashes(nil)), len(sp.Set.AppendHashes(nil))
				if p.Set.Size() != live || sp.Set.Size() != stored || sp.Set.Size() != p.Set.Size() {
					t.Fatalf("image %d %s procedure %d: Size %d live / %d stored, %d / %d strands", ii, le.Path, pi, p.Set.Size(), sp.Set.Size(), live, stored)
				}
			}
		}
	}

	// Every occurrence, sealed and off the mapping, must give the same
	// finding.
	q, err := s.stored.AnalyzeQuery(s.query, nil)
	if err != nil {
		t.Fatal(err)
	}
	ramQ, err := s.sealed.AnalyzeQuery(s.query, nil)
	if err != nil {
		t.Fatal(err)
	}
	qi := q.exe.ProcByName(storeScenarioProc)
	plain := &core.SearchOptions{MinScore: 8, MinRatio: 0.42}
	found := 0
	for ii, im := range s.stored.Images() {
		for k, oc := range im.occs {
			st, err := im.store.exe(oc.Exe)
			if err != nil {
				t.Fatal(err)
			}
			ramIm := s.sealed.Images()[ii]
			rt, _ := ramIm.store.exe(ramIm.occs[k].Exe)
			got, gotR := core.MatchOne(q.exe, qi, st, plain)
			want, wantR := core.MatchOne(ramQ.exe, qi, rt, plain)
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotR, wantR) {
				t.Fatalf("image %d %s: finding %+v (%+v), sealed %+v (%+v)", ii, oc.Path, got, gotR, want, wantR)
			}
			if got != nil {
				found++
			}
		}
	}
	if found == 0 {
		t.Error("the search accepted nothing: the comparison is vacuous")
	}

	// A stored executable as the query of its own corpus, against the same
	// executable of the sealed corpus querying that corpus.
	var storedQ, ramOwnQ *Executable
	ownProc, ownSize := "", 0
	for ii, im := range s.stored.Images() {
		for _, oc := range im.occs {
			e := im.Executable(oc.Path)
			for _, p := range e.exe.Procs {
				if p.Set.Size() > ownSize {
					storedQ, ramOwnQ = e, s.sealed.Images()[ii].Executable(oc.Path)
					ownProc, ownSize = p.Name, p.Set.Size()
				}
			}
		}
	}
	for _, opt := range []*Options{nil, {Exhaustive: true}, {Workers: 1}} {
		got, err := s.stored.SearchAll(storedQ, ownProc, opt)
		if err != nil {
			t.Fatal(err)
		}
		want, err := s.sealed.SearchAll(ramOwnQ, ownProc, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("options %+v: findings differ from the sealed corpus\ngot:  %+v\nwant: %+v", opt, got, want)
		}
		n := 0
		for _, im := range got {
			n += len(im.Findings)
		}
		if n == 0 {
			t.Error("the stored query found nothing: the comparison is vacuous")
		}
	}
}

// TestStoreBackedHashesConcurrent derives hashes from eight goroutines
// while batched searches run over the same executables; run under -race.
func TestStoreBackedHashesConcurrent(t *testing.T) {
	s := buildStoreScenario(t)
	q, err := s.stored.AnalyzeQuery(s.query, nil)
	if err != nil {
		t.Fatal(err)
	}
	ramQ, err := s.sealed.AnalyzeQuery(s.query, nil)
	if err != nil {
		t.Fatal(err)
	}
	batch := []BatchQuery{{Query: q, Procedure: storeScenarioProc}}
	want, err := s.sealed.SearchAllBatch([]BatchQuery{{Query: ramQ, Procedure: storeScenarioProc}}, &Options{Exhaustive: true})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			got, err := s.stored.SearchAllBatch(batch, &Options{Exhaustive: true})
			if err != nil {
				t.Error(err)
				return
			}
			if !reflect.DeepEqual(got, want) {
				t.Error("batched search over the opened corpus differs from the sealed one")
			}
		}
	}()
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ii, im := range s.stored.Images() {
				for k, oc := range im.occs {
					e := im.Executable(oc.Path)
					for pi := range e.exe.Procs {
						if !slices.Equal(e.exe.Procs[pi].Set.AppendHashes(nil), s.live[ii].Exes[k].exe.Procs[pi].Set.AppendHashes(nil)) {
							t.Errorf("image %d %s procedure %d: hashes differ from the session's", ii, oc.Path, pi)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}

// materializeAllocSlack is what first touch of a store-backed executable
// may allocate besides one name per procedure: the decoded record and its
// procedure slab, the in-degree counts, the sim.Proc slab, its pointer
// slice, the call-graph slab, the executable and its (unbuilt) index
// holder. The inverted index is not built here: a game's first similarity
// query builds it.
const materializeAllocSlack = 8

func TestMaterializeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	s := buildStoreScenario(t)
	for gi, g := range s.stored.groups {
		for u := 0; u < g.n; u++ {
			var e, failed = g.loadExe(u)
			if failed != nil {
				t.Fatal(failed)
			}
			allocs := testing.AllocsPerRun(3, func() {
				if _, err := g.loadExe(u); err != nil {
					failed = err
				}
			})
			if failed != nil {
				t.Fatal(failed)
			}
			if budget := float64(materializeAllocSlack + len(e.Procs)); allocs > budget {
				t.Errorf("shard %d executable %d (%d procedures): first touch makes %.0f allocations, budget %.0f", gi, u, len(e.Procs), allocs, budget)
			}
		}
	}
}

// TestImageSearchScansOnlyItsGroups pins the scope of a per-image pass:
// a one-query search of one image scans the corpus index once, however
// many groups hold the image's executables, and materializes executables
// of those groups only — the image's own — from a corpus nothing has
// materialized yet.
func TestImageSearchScansOnlyItsGroups(t *testing.T) {
	s := buildStoreScenario(t)
	fewer, several := false, false
	for ii := range s.stored.Images() {
		sc, err := OpenSealedCorpus(s.dir)
		if err != nil {
			t.Fatal(err)
		}
		defer sc.Close()
		reg := telemetry.New()
		sc.SetTelemetry(reg)
		q, err := sc.AnalyzeQuery(s.query, nil)
		if err != nil {
			t.Fatal(err)
		}
		im := sc.Images()[ii]
		mine := map[int]bool{}
		groups := map[*sealedGroup]bool{}
		for _, oc := range im.occs {
			mine[oc.Exe] = true
			groups[sc.groups.group(oc.Exe)] = true
		}
		if _, err := sc.SearchImageDetailed(q, storeScenarioProc, im, nil); err != nil {
			t.Fatal(err)
		}
		if got := reg.Counter("index.queries").Value(); got != 1 {
			t.Errorf("image %d: the search scanned the index %d times, want once", ii, got)
		}
		for _, g := range sc.groups {
			for u := range g.lazy {
				if g.lazy[u].exe != nil && !mine[g.base+u] {
					t.Errorf("image %d: the search materialized executable %d, which the image does not hold", ii, g.base+u)
				}
			}
		}
		fewer = fewer || len(groups) < len(sc.groups)
		several = several || len(groups) > 1
	}
	if !fewer || !several {
		t.Errorf("some image spans fewer groups than all: %v, some image spans several: %v; the check needs both", fewer, several)
	}
}
