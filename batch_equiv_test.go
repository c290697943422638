package firmup_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"firmup"
	"firmup/internal/corpus"
	"firmup/internal/uir"
)

// meaningfulProcs lists up to max procedure names of a query executable
// with enough strands to play a non-vacuous game.
func meaningfulProcs(q *firmup.Executable, max int) []string {
	var out []string
	for _, p := range q.Procedures() {
		if p.Strands >= 3 {
			out = append(out, p.Name)
			if len(out) == max {
				break
			}
		}
	}
	return out
}

// batchPool builds the paired live/sealed batch query pools: the same
// procedures, one side analyzed under the live session, the other under
// the sealed corpus's per-request overlay interner.
func batchPool(t *testing.T, s *sealedScenario) (live, sealed []firmup.BatchQuery) {
	t.Helper()
	sources := []struct {
		cveID string
		arch  uir.Arch
		procs int
	}{
		{"CVE-2014-4877", uir.ArchMIPS32, 6},
		{"CVE-2013-1944", uir.ArchARM32, 4},
	}
	for _, src := range sources {
		cve := corpus.CVEByID(src.cveID)
		if cve == nil {
			t.Fatalf("unknown CVE %s", src.cveID)
		}
		qb := queryBytesFor(t, cve, src.arch)
		liveQ, err := s.analyzer.LoadQueryExecutable(qb)
		if err != nil {
			t.Fatal(err)
		}
		sealedQ, err := s.sealed.AnalyzeQuery(qb)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range meaningfulProcs(liveQ, src.procs) {
			live = append(live, firmup.BatchQuery{Query: liveQ, Procedure: name})
			sealed = append(sealed, firmup.BatchQuery{Query: sealedQ, Procedure: name})
		}
	}
	if len(live) < 4 {
		t.Fatalf("only %d batch queries; scenario is vacuous", len(live))
	}
	return live, sealed
}

// TestSearchBatchEquivalenceOnCorpus is the batched analogue of the
// sealed/memoization equivalence suites: over a realistic corpus, every
// batch size 1..N and shuffled query order must produce results
// deep-equal — findings, examined counts and step histograms — to
// sequential per-query SearchImageDetailed, on both the live Analyzer
// path and the sealed SearchView path.
func TestSearchBatchEquivalenceOnCorpus(t *testing.T) {
	s := buildSealedScenario(t, corpus.Scale{DevicesPerVendor: 2, MaxReleases: 2, Seed: 7})
	livePool, sealedPool := batchPool(t, s)
	images := s.live
	if len(images) > 3 {
		images = images[:3]
	}
	opt := &firmup.Options{MinScore: 3, MinRatio: 0.2}

	// Sequential reference, computed once per (query, image).
	expected := make([][]*firmup.SearchResult, len(livePool))
	total := 0
	for qx, bq := range livePool {
		expected[qx] = make([]*firmup.SearchResult, len(images))
		for ii, img := range images {
			res, err := s.analyzer.SearchImageDetailed(bq.Query, bq.Procedure, img, opt)
			if err != nil {
				t.Fatal(err)
			}
			expected[qx][ii] = res
			total += len(res.Findings)
		}
	}
	if total == 0 {
		t.Fatal("sequential reference found nothing; equivalence is vacuous")
	}

	rng := rand.New(rand.NewSource(11))
	for n := 1; n <= len(livePool); n++ {
		perm := rng.Perm(len(livePool))[:n]
		liveSel := make([]firmup.BatchQuery, n)
		sealedSel := make([]firmup.BatchQuery, n)
		for i, p := range perm {
			liveSel[i] = livePool[p]
			sealedSel[i] = sealedPool[p]
		}
		for ii, img := range images {
			liveRes, err := s.analyzer.SearchBatch(liveSel, img, opt)
			if err != nil {
				t.Fatal(err)
			}
			sealedRes, err := s.sealed.SearchBatch(sealedSel, s.sealed.Images()[ii], opt)
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range perm {
				if !reflect.DeepEqual(liveRes[i], expected[p][ii]) {
					t.Errorf("size %d image %d: live batched result for %q diverges from sequential:\nbatch: %+v\nseq:   %+v",
						n, ii, liveSel[i].Procedure, liveRes[i], expected[p][ii])
				}
				if !reflect.DeepEqual(sealedRes[i], expected[p][ii]) {
					t.Errorf("size %d image %d: sealed batched result for %q diverges from sequential:\nbatch: %+v\nseq:   %+v",
						n, ii, sealedSel[i].Procedure, sealedRes[i], expected[p][ii])
				}
			}
		}
	}
}

// TestSearchAllBatchMatchesSearchAll pins the corpus-wide batched entry
// point (Table 2's, and bench/'s batch-sweep): per query, SearchAllBatch
// must be deep-equal to a sequential SearchAll.
func TestSearchAllBatchMatchesSearchAll(t *testing.T) {
	s := buildSealedScenario(t, corpus.Scale{DevicesPerVendor: 2, MaxReleases: 2, Seed: 3})
	_, sealedPool := batchPool(t, s)
	res, err := s.sealed.SearchAllBatch(sealedPool, nil)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for qx, bq := range sealedPool {
		solo, err := s.sealed.SearchAll(bq.Query, bq.Procedure, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res[qx], solo) {
			t.Errorf("query %d (%q): SearchAllBatch diverges from SearchAll:\nbatch: %+v\nseq:   %+v",
				qx, bq.Procedure, res[qx], solo)
		}
		for _, im := range solo {
			total += len(im.Findings)
		}
	}
	if total == 0 {
		t.Fatal("SearchAll found nothing; equivalence is vacuous")
	}
}

// TestSearchBatchConcurrentSealed hammers one sealed corpus with many
// goroutines issuing overlapping, shuffled batches under the race
// detector. After every batch returns, the goroutine clobbers the
// returned results in place — if any per-query state (findings slices,
// histogram maps, similarity buffers) were aliased across queries or
// batches, a later comparison or the race detector would catch it — and
// then replays a control query, which must still answer exactly the
// precomputed reference.
func TestSearchBatchConcurrentSealed(t *testing.T) {
	s := buildSealedScenario(t, corpus.Scale{DevicesPerVendor: 2, MaxReleases: 2, Seed: 5})
	_, pool := batchPool(t, s)
	img := s.sealed.Images()[0]

	// Reference results per query, and the control query's reference.
	expected := make([]*firmup.SearchResult, len(pool))
	for qx, bq := range pool {
		res, err := s.sealed.SearchImageDetailed(bq.Query, bq.Procedure, img, nil)
		if err != nil {
			t.Fatal(err)
		}
		expected[qx] = res
	}
	control := pool[0]
	controlWant := expected[0]

	const goroutines = 6
	const rounds = 5
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*rounds)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for r := 0; r < rounds; r++ {
				n := 1 + rng.Intn(len(pool))
				perm := rng.Perm(len(pool))[:n]
				sel := make([]firmup.BatchQuery, n)
				for i, p := range perm {
					sel[i] = pool[p]
				}
				res, err := s.sealed.SearchBatch(sel, img, nil)
				if err != nil {
					errs <- err
					return
				}
				for i, p := range perm {
					if !reflect.DeepEqual(res[i], expected[p]) {
						errs <- fmt.Errorf("goroutine %d round %d: query %q diverges under concurrency", g, r, sel[i].Procedure)
						return
					}
				}
				// Clobber everything the batch returned: any aliasing into
				// engine or cross-query state turns this into a data race
				// or a later mismatch.
				for _, sr := range res {
					for fi := range sr.Findings {
						sr.Findings[fi].ExePath = "CLOBBERED"
						sr.Findings[fi].Score = -1
					}
					sr.StepsHistogram[-7] = 99
					sr.Findings = append(sr.Findings, firmup.Finding{ExePath: "junk"})
					sr.Examined = -1
				}
				got, err := s.sealed.SearchImageDetailed(control.Query, control.Procedure, img, nil)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(got, controlWant) {
					errs <- fmt.Errorf("goroutine %d round %d: control query corrupted after clobbering batch results", g, r)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
