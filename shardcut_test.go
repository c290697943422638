package firmup

import (
	"fmt"
	"path"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
)

// cutPackage is the (arch, package) group planShards keys an executable
// by: its arch and the basename of the first path it ships under, in
// image order.
type cutPackage struct {
	arch uint8
	name string
}

// cutWeights reads every executable sc stores and returns its package,
// the total length of its procedures' strand sets, and the shard that
// stores it, by corpus ID.
func cutWeights(t *testing.T, sc *SealedCorpus) (pkgs []cutPackage, weights, shards []int) {
	t.Helper()
	n := sc.UniqueExecutables()
	pkgs, weights, shards = make([]cutPackage, n), make([]int, n), make([]int, n)
	for gi, g := range sc.groups {
		for u := range g.n {
			e, err := g.record(u)
			if err != nil {
				t.Fatal(err)
			}
			pkgs[g.base+u].arch = e.Arch
			for _, p := range e.Procs {
				weights[g.base+u] += len(p.IDs)
			}
			shards[g.base+u] = gi
		}
	}
	named := make([]bool, n)
	for _, im := range sc.images {
		for _, oc := range im.occs {
			if !named[oc.Exe] {
				named[oc.Exe] = true
				pkgs[oc.Exe].name = path.Base(oc.Path)
			}
		}
	}
	return pkgs, weights, shards
}

// WriteShards cuts by package: every (arch, package) group lands in
// exactly one shard, and the heaviest shard, by the total length of its
// executables' strand sets, weighs at most the mean plus the heaviest
// group (the bound of the LPT rule). One shard keeps every corpus ID.
func TestWriteShardsCutsByPackage(t *testing.T) {
	s := buildStoreScenario(t)
	pkgs, weights, _ := cutWeights(t, s.sealed)
	groupWeight := map[cutPackage]int{}
	for u, pk := range pkgs {
		groupWeight[pk] += weights[u]
	}
	heaviest := 0
	for _, w := range groupWeight {
		heaviest = max(heaviest, w)
	}
	if len(groupWeight) < 8 {
		t.Fatalf("corpus has %d packages; cutting it into 8 shards would leave some empty", len(groupWeight))
	}
	for _, n := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "shards")
			if _, err := s.sealed.WriteShards(dir, n); err != nil {
				t.Fatal(err)
			}
			sc, err := OpenSealedCorpus(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer sc.Close()
			pkgs, weights, shards := cutWeights(t, sc)
			home := map[cutPackage]int{}
			load := make([]int, n)
			total := 0
			for u, pk := range pkgs {
				if si, ok := home[pk]; ok && si != shards[u] {
					t.Errorf("package %v is stored in shards %d and %d", pk, si, shards[u])
				}
				home[pk] = shards[u]
				load[shards[u]] += weights[u]
				total += weights[u]
			}
			if len(home) != len(groupWeight) {
				t.Errorf("the written corpus has %d packages, the sealed one %d", len(home), len(groupWeight))
			}
			if top := slices.Max(load); top*n > total+heaviest*n {
				t.Errorf("heaviest shard weighs %d; the mean is %d/%d and the heaviest package %d", top, total, n, heaviest)
			}
			if n == 1 {
				for ii, im := range sc.images {
					if want := s.sealed.images[ii].occs; !reflect.DeepEqual(im.occs, want) {
						t.Errorf("image %d: one shard names executables %v, the sealed corpus %v", ii, im.occs, want)
					}
				}
			}
		})
	}
}

// Shards reports each shard's procedures, distinct strand sets, strand
// IDs and markers as the shard stores them: the procedures sum to the
// corpus's, and each shard's sets are the distinct ones among its
// executables' procedures, each stored with its markers once, so the
// sets, IDs and markers sum to what the corpus stores.
func TestShardsReportStoredCounts(t *testing.T) {
	s := buildStoreScenario(t)
	procs := 0
	for _, sh := range s.sealed.Shards() {
		procs += sh.Procedures
	}
	var got, want struct{ procs, sets, ids, markers int }
	for gi, g := range s.stored.groups {
		distinct := map[string]bool{}
		for u := range g.n {
			e, err := g.record(u)
			if err != nil {
				t.Fatal(err)
			}
			want.procs += len(e.Procs)
			for _, p := range e.Procs {
				if k := fmt.Sprint(p.IDs); !distinct[k] {
					distinct[k] = true
					want.sets++
					want.ids += len(p.IDs)
					want.markers += len(p.Markers)
				}
			}
		}
		sh := s.stored.Shards()[gi]
		got.procs += sh.Procedures
		got.sets += sh.StrandSets
		got.ids += sh.StrandIDs
		got.markers += sh.Markers
	}
	if got != want {
		t.Errorf("the 3 shards report %d procedures, %d strand sets, %d strand IDs, %d markers; their records hold %d, %d, %d, %d",
			got.procs, got.sets, got.ids, got.markers, want.procs, want.sets, want.ids, want.markers)
	}
	if want.markers == 0 {
		t.Error("the shards store no markers; the markers check is vacuous")
	}
	if got.procs != procs {
		t.Errorf("the 3 shards report %d procedures, the sealed corpus %d", got.procs, procs)
	}
}
