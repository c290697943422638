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

// batchPool builds a batch query pool: meaningful procedures of two CVE
// query executables, analyzed under the sealed corpus's per-request
// overlay interner.
func batchPool(t *testing.T, s *firmup.SealedCorpus) []firmup.BatchQuery {
	t.Helper()
	sources := []struct {
		cveID string
		arch  uir.Arch
		procs int
	}{
		{"CVE-2014-4877", uir.ArchMIPS32, 6},
		{"CVE-2013-1944", uir.ArchARM32, 4},
	}
	var pool []firmup.BatchQuery
	for _, src := range sources {
		cve := corpus.CVEByID(src.cveID)
		if cve == nil {
			t.Fatalf("unknown CVE %s", src.cveID)
		}
		q, err := s.AnalyzeQuery(queryBytesFor(t, cve, src.arch), nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range meaningfulProcs(q, src.procs) {
			pool = append(pool, firmup.BatchQuery{Query: q, Procedure: name})
		}
	}
	if len(pool) < 4 {
		t.Fatalf("only %d batch queries; scenario is vacuous", len(pool))
	}
	return pool
}

// TestSearchBatchEquivalenceOnCorpus is the batch-of-N ≡ N singles test:
// over a realistic corpus, every batch size 1..N in shuffled query order
// must give each query, on every image, the findings and examined count
// of a per-query, per-image SearchImageDetailed.
func TestSearchBatchEquivalenceOnCorpus(t *testing.T) {
	s := buildSealed(t, corpus.Scale{DevicesPerVendor: 2, MaxReleases: 2, Seed: 7})
	pool := batchPool(t, s)
	images := s.Images()
	opt := &firmup.Options{MinScore: 3, MinRatio: 0.2}

	// Sequential reference, computed once per (query, image).
	expected := make([][]*firmup.SearchResult, len(pool))
	total := 0
	for qx, bq := range pool {
		expected[qx] = make([]*firmup.SearchResult, len(images))
		for ii, img := range images {
			res, err := s.SearchImageDetailed(bq.Query, bq.Procedure, img, opt)
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
	for n := 1; n <= len(pool); n++ {
		perm := rng.Perm(len(pool))[:n]
		sel := make([]firmup.BatchQuery, n)
		for i, p := range perm {
			sel[i] = pool[p]
		}
		res, err := s.SearchAllBatch(sel, opt)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range perm {
			for ii, img := range images {
				want := firmup.ImageFindings{Vendor: img.Vendor, Device: img.Device, Version: img.Version,
					Findings: expected[p][ii].Findings, Examined: expected[p][ii].Examined}
				if !reflect.DeepEqual(res[i][ii], want) {
					t.Errorf("size %d image %d: batched result for %q diverges from sequential:\nbatch: %+v\nseq:   %+v",
						n, ii, sel[i].Procedure, res[i][ii], want)
				}
			}
		}
	}
}

// TestSearchAllBatchMatchesSearchAll pins the corpus-wide batched entry
// point (Table 2's, and bench/'s batch-sweep): per query, SearchAllBatch
// must be deep-equal to a sequential SearchAll.
func TestSearchAllBatchMatchesSearchAll(t *testing.T) {
	s := buildSealed(t, corpus.Scale{DevicesPerVendor: 2, MaxReleases: 2, Seed: 3})
	pool := batchPool(t, s)
	res, err := s.SearchAllBatch(pool, nil)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for qx, bq := range pool {
		solo, err := s.SearchAll(bq.Query, bq.Procedure, nil)
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
// similarity buffers) were aliased across queries or batches, a later
// comparison or the race detector would catch it — and then replays a
// control query, which must still answer exactly the precomputed
// reference.
func TestSearchBatchConcurrentSealed(t *testing.T) {
	s := buildSealed(t, corpus.Scale{DevicesPerVendor: 2, MaxReleases: 2, Seed: 5})
	pool := batchPool(t, s)

	// Reference results per query, and the control query's reference.
	expected := make([][]firmup.ImageFindings, len(pool))
	for qx, bq := range pool {
		res, err := s.SearchAll(bq.Query, bq.Procedure, nil)
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
				res, err := s.SearchAllBatch(sel, nil)
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
				for _, images := range res {
					for ii := range images {
						im := &images[ii]
						for fi := range im.Findings {
							im.Findings[fi].ExePath = "CLOBBERED"
							im.Findings[fi].Score = -1
						}
						im.Findings = append(im.Findings, firmup.Finding{ExePath: "junk"})
						im.Examined = -1
					}
				}
				got, err := s.SearchAll(control.Query, control.Procedure, nil)
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
