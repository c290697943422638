package firmup

// Property test for the search pass and its persisted form over
// arbitrary generated corpora: an image sealed (one shard, in memory)
// and the sealed corpus written to a shard file and opened again answer SearchImageDetailed
// identically, with the index's narrowing still sound. This extends the
// index-equivalence property (TestSearchImageIndexEquivalence) through
// the shard codec.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"firmup/internal/corpusindex"
	"firmup/internal/sim"
	"firmup/internal/strand"
)

// synthProc is one generated procedure: a name, a strand-hash multiset
// and confirmation markers.
type synthProc struct {
	name    string
	hashes  []uint64
	markers []uint32
}

// synthCorpus is one generated scenario: a query procedure and the
// image's executables (each a list of procedures).
type synthCorpus struct {
	query   synthProc
	exes    [][]synthProc
	skipped []SkipReason
}

// genCorpus draws a scenario: a vocabulary pool, a query of 12–40
// strands, and 3–7 executables whose procedures sample the pool —
// including, with high probability, near-clones of the query so the
// search has real findings to preserve.
func genCorpus(rng *rand.Rand) synthCorpus {
	pool := make([]uint64, 80+rng.Intn(120))
	for i := range pool {
		// High bit set: keeps the corpus vocabulary disjoint from the
		// junk hashes some tests pre-intern.
		pool[i] = rng.Uint64() | 1<<63
	}
	pick := func(n int) []uint64 {
		out := make([]uint64, 0, n)
		for i := 0; i < n; i++ {
			out = append(out, pool[rng.Intn(len(pool))])
		}
		return out
	}
	q := synthProc{name: "vuln", hashes: pick(12 + rng.Intn(28))}
	for i := rng.Intn(3); i > 0; i-- {
		q.markers = append(q.markers, rng.Uint32())
	}
	c := synthCorpus{query: q}
	nexes := 3 + rng.Intn(5)
	for ei := 0; ei < nexes; ei++ {
		var procs []synthProc
		nprocs := 2 + rng.Intn(5)
		for pi := 0; pi < nprocs; pi++ {
			p := synthProc{name: fmt.Sprintf("p%d_%d", ei, pi), hashes: pick(rng.Intn(30))}
			if rng.Intn(3) == 0 {
				// A true occurrence: the query's strands (and markers),
				// plus some noise.
				p.hashes = append(append([]uint64(nil), q.hashes...), pick(rng.Intn(10))...)
				p.markers = append([]uint32(nil), q.markers...)
			}
			procs = append(procs, p)
		}
		c.exes = append(c.exes, procs)
	}
	if rng.Intn(2) == 0 {
		c.skipped = append(c.skipped, SkipReason{Path: "bin/broken", Err: fmt.Errorf("synthetic skip")})
	}
	return c
}

// buildSet sorts and dedupes hashes into a strand set, to be interned by
// the session of the executable it goes into.
func buildSet(hashes []uint64) strand.Set {
	seen := map[uint64]bool{}
	var out []uint64
	for _, h := range hashes {
		if !seen[h] {
			seen[h] = true
			out = append(out, h)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return strand.Set{Hashes: out}
}

func buildProcs(specs []synthProc) []*sim.Proc {
	procs := make([]*sim.Proc, len(specs))
	for i, sp := range specs {
		procs[i] = &sim.Proc{
			Name:       sp.name,
			Addr:       uint32(0x1000 * (i + 1)),
			Set:        buildSet(sp.hashes),
			Markers:    append([]uint32(nil), sp.markers...),
			BlockCount: 1 + len(sp.hashes)/4,
			InstCount:  1 + len(sp.hashes),
		}
	}
	return procs
}

// buildSynthImage assembles the corpus as an analyzed Image under the
// session, mirroring what OpenImage produces (sealable, in order).
func buildSynthImage(a *Analyzer, c synthCorpus) *Image {
	img := &Image{Vendor: "synth", Device: "dev", Version: "1.0", Skipped: c.skipped}
	for ei, procs := range c.exes {
		e := sim.FromProcs(fmt.Sprintf("bin/exe_%d", ei), buildProcs(procs), a.interner)
		img.Exes = append(img.Exes, &Executable{Path: e.Path, exe: e})
	}
	return img
}

// buildSynthQuery builds the query executable under an interner: a
// sealed corpus's per-request overlay.
func buildSynthQuery(it strand.Interner, c synthCorpus) *Executable {
	e := sim.FromProcs("query", buildProcs([]synthProc{c.query}), it)
	return &Executable{Path: "query", exe: e}
}

// searchBoth runs one search through the narrowed and the exhaustive
// path.
func searchBoth(t *testing.T, search func(*Options) (*SearchResult, error)) (narrowed, exhaustive *SearchResult) {
	t.Helper()
	var err error
	if narrowed, err = search(nil); err != nil {
		t.Fatal(err)
	}
	if exhaustive, err = search(&Options{Exhaustive: true}); err != nil {
		t.Fatal(err)
	}
	return narrowed, exhaustive
}

// TestQuickSealedRoundTripSearchEquivalence is the persistence-layer
// property: for arbitrary corpora, the image sealed in memory and the
// sealed corpus written to a shard file and opened again — each queried under a
// fresh overlay of the frozen vocabulary — answer SearchImageDetailed
// identically, and on both the narrowing stays sound (narrowed ==
// exhaustive) and never examines more.
func TestQuickSealedRoundTripSearchEquivalence(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := genCorpus(rng)
		a := NewAnalyzer(nil)
		sealed, err := a.Seal(buildSynthImage(a, c))
		if err != nil {
			t.Logf("seed %d: seal: %v", seed, err)
			return false
		}
		paths, err := sealed.WriteShards(t.TempDir(), 1)
		if err != nil {
			t.Logf("seed %d: write shards: %v", seed, err)
			return false
		}
		opened, err := OpenSealedCorpus(paths[0])
		if err != nil {
			t.Logf("seed %d: open: %v", seed, err)
			return false
		}
		defer opened.Close()

		search := func(sc *SealedCorpus) (narrowed, exhaustive *SearchResult) {
			q := buildSynthQuery(corpusindex.NewQueryInterner(sc.frozen), c)
			return searchBoth(t, func(opt *Options) (*SearchResult, error) {
				return sc.SearchImageDetailed(q, "vuln", sc.Images()[0], opt)
			})
		}
		ramIdx, ramExh := search(sealed)
		gotIdx, gotExh := search(opened)
		if !reflect.DeepEqual(gotIdx, ramIdx) || !reflect.DeepEqual(gotExh, ramExh) {
			t.Logf("seed %d: the opened corpus answers differently:\nnarrowed:   %+v\nsealed:     %+v\nexhaustive: %+v\nsealed:     %+v",
				seed, gotIdx, ramIdx, gotExh, ramExh)
			return false
		}
		if !reflect.DeepEqual(ramIdx.Findings, ramExh.Findings) || ramIdx.Examined > ramExh.Examined {
			t.Logf("seed %d: narrowing is unsound:\nnarrowed:   %+v\nexhaustive: %+v", seed, ramIdx, ramExh)
			return false
		}
		if got := len(opened.Images()[0].Skipped); got != len(c.skipped) {
			t.Logf("seed %d: skip diagnostics lost: %d vs %d", seed, got, len(c.skipped))
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
