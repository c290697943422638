package strand

import (
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"sync"
	"testing"

	"firmup/internal/cfg"
	"firmup/internal/compiler"
	"firmup/internal/isa"
	"firmup/internal/isa/isatest"
	"firmup/internal/obj"
	"firmup/internal/uir"
)

// lockedInterner is a minimal thread-safe session interner for cache
// tests (the real one lives in corpusindex, which this package cannot
// import).
type lockedInterner struct {
	mu  sync.Mutex
	ids map[uint64]uint32
}

func newLockedInterner() *lockedInterner {
	return &lockedInterner{ids: map[uint64]uint32{}}
}

func (it *lockedInterner) Intern(h uint64) uint32 {
	it.mu.Lock()
	defer it.mu.Unlock()
	id, ok := it.ids[h]
	if !ok {
		id = uint32(len(it.ids))
		it.ids[h] = id
	}
	return id
}

// recoverProcs compiles the shared test source for one architecture and
// returns the recovered procedures plus the extraction options.
func recoverProcs(t *testing.T, arch uir.Arch) ([]*cfg.Proc, *Options) {
	t.Helper()
	pkg, err := compiler.CompileToMIR(isatest.Source, compiler.Profile{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	be, err := isa.ByArch(arch)
	if err != nil {
		t.Fatal(err)
	}
	art, err := be.Generate(pkg, isa.Options{TextBase: 0x400000})
	if err != nil {
		t.Fatal(err)
	}
	f := obj.FromArtifact(art)
	rec, err := cfg.Recover(f)
	if err != nil {
		t.Fatal(err)
	}
	return rec.Procs, &Options{ABI: be.ABI(), Sections: f.Map()}
}

func sameU32(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

var hexLiteral = regexp.MustCompile(`0x[0-9a-f]+`)

// referenceProc derives a procedure's strand set and markers from the
// text-producing inspection path: the union of ExtractBlock hashes, and
// the identity-bearing constants re-parsed out of the rendered text.
func referenceProc(t *testing.T, blocks []*uir.Block, opt *Options) ([]uint64, []uint32) {
	t.Helper()
	var hashes []uint64
	var markers []uint32
	for _, b := range blocks {
		for _, s := range ExtractBlock(b, opt) {
			hashes = append(hashes, s.Hash)
			for _, lit := range hexLiteral.FindAllString(s.Text, -1) {
				v, err := strconv.ParseUint(lit[2:], 16, 32)
				if err != nil {
					t.Fatalf("literal %q in %q: %v", lit, s.Text, err)
				}
				if isMarker(uint32(v)) {
					markers = append(markers, uint32(v))
				}
			}
		}
	}
	slices.Sort(hashes)
	slices.Sort(markers)
	return slices.Compact(hashes), slices.Compact(markers)
}

// The single-pass extractor must reproduce the per-block inspection path
// exactly — hashes, dense IDs and markers (which it collects from tokens,
// never from text) — with the cache off, with the cache cold, and with
// the cache warm; and FromBlocks is that same path.
func TestExtractorMatchesExtractBlock(t *testing.T) {
	for _, arch := range []uir.Arch{uir.ArchMIPS32, uir.ArchARM32, uir.ArchPPC32, uir.ArchX86} {
		procs, opt := recoverProcs(t, arch)
		it := newLockedInterner()
		cache := NewBlockCache(it)
		plain := NewExtractor(opt, it, nil)
		cold := NewExtractor(opt, it, cache)
		warm := NewExtractor(opt, it, cache)
		for _, p := range procs {
			wantHashes, wantMarkers := referenceProc(t, p.Blocks, opt)
			want := Set{Hashes: wantHashes}.Interned(it)
			if got := FromBlocks(p.Blocks, opt); !slices.Equal(got.Hashes, want.Hashes) {
				t.Fatalf("%v/%s: FromBlocks hashes = %v, want %v", arch, p.Name, got.Hashes, want.Hashes)
			}
			for name, ex := range map[string]*Extractor{"plain": plain, "cold": cold, "warm": warm} {
				set, markers := ex.Proc(p.Blocks)
				if !slices.Equal(set.Hashes, want.Hashes) {
					t.Fatalf("%v/%s/%s: hashes = %v, want %v", arch, p.Name, name, set.Hashes, want.Hashes)
				}
				if !sameU32(set.IDs, want.IDs) {
					t.Fatalf("%v/%s/%s: IDs = %v, want %v", arch, p.Name, name, set.IDs, want.IDs)
				}
				if set.It != Interner(it) {
					t.Fatalf("%v/%s/%s: set must carry the session interner", arch, p.Name, name)
				}
				if !sameU32(markers, wantMarkers) {
					t.Fatalf("%v/%s/%s: markers = %v, want %v", arch, p.Name, name, markers, wantMarkers)
				}
			}
		}
		st := cache.Stats()
		if st.Blocks == 0 || st.Unique == 0 {
			t.Fatalf("%v: cache saw no traffic: %+v", arch, st)
		}
		// The warm extractor replayed every block the cold one stored.
		if st.Hits < st.Blocks/2 {
			t.Fatalf("%v: expected ≥half hits after identical replay, got %+v", arch, st)
		}
	}
}

// Serial stats bookkeeping: every lookup is counted, and each miss
// stores exactly one entry.
func TestBlockCacheStats(t *testing.T) {
	procs, opt := recoverProcs(t, uir.ArchMIPS32)
	it := newLockedInterner()
	cache := NewBlockCache(it)
	ex := NewExtractor(opt, it, cache)
	blocks := 0
	for _, p := range procs {
		ex.Proc(p.Blocks)
		blocks += len(p.Blocks)
	}
	st := cache.Stats()
	if st.Blocks != int64(blocks) {
		t.Errorf("Blocks = %d, want %d", st.Blocks, blocks)
	}
	if int64(st.Unique) != st.Blocks-st.Hits {
		t.Errorf("Unique = %d, want Blocks-Hits = %d", st.Unique, st.Blocks-st.Hits)
	}
	if got := st.HitRate(); got < 0 || got > 1 {
		t.Errorf("HitRate = %v out of range", got)
	}
	for _, p := range procs {
		ex.Proc(p.Blocks)
	}
	st2 := cache.Stats()
	if st2.Hits != st.Hits+int64(blocks) {
		t.Errorf("replay hits = %d, want %d", st2.Hits, st.Hits+int64(blocks))
	}
	if st2.Unique != st.Unique {
		t.Errorf("replay grew the cache: %d -> %d", st.Unique, st2.Unique)
	}
	if (CacheStats{}).HitRate() != 0 {
		t.Error("zero-traffic HitRate must be 0")
	}
}

// A cache bound to a different interner than the extractor must be
// bypassed: dense IDs cached under one session are meaningless in
// another.
func TestExtractorCacheInternerMismatch(t *testing.T) {
	procs, opt := recoverProcs(t, uir.ArchMIPS32)
	cacheIt := newLockedInterner()
	exIt := newLockedInterner()
	cache := NewBlockCache(cacheIt)
	ex := NewExtractor(opt, exIt, cache)
	want := NewExtractor(opt, exIt, nil)
	for _, p := range procs {
		got, gotM := ex.Proc(p.Blocks)
		exp, expM := want.Proc(p.Blocks)
		if !reflect.DeepEqual(got.Hashes, exp.Hashes) || !sameU32(got.IDs, exp.IDs) || !sameU32(gotM, expM) {
			t.Fatalf("%s: mismatched-interner extraction diverged", p.Name)
		}
	}
	if st := cache.Stats(); st.Blocks != 0 || st.Unique != 0 {
		t.Errorf("mismatched-interner cache saw traffic: %+v", st)
	}
}

// Concurrent extractors sharing one cache must agree with a serial
// uncached run (exercised with -race in CI).
func TestBlockCacheConcurrent(t *testing.T) {
	procs, opt := recoverProcs(t, uir.ArchARM32)
	it := newLockedInterner()
	serial := NewExtractor(opt, it, nil)
	wantH := make([][]uint64, len(procs))
	wantM := make([][]uint32, len(procs))
	for i, p := range procs {
		s, m := serial.Proc(p.Blocks)
		wantH[i], wantM[i] = s.Hashes, m
	}
	cache := NewBlockCache(it)
	const workers = 8
	got := make([][]Set, workers)
	gotM := make([][][]uint32, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ex := NewExtractor(opt, it, cache)
			got[w] = make([]Set, len(procs))
			gotM[w] = make([][]uint32, len(procs))
			for i, p := range procs {
				got[w][i], gotM[w][i] = ex.Proc(p.Blocks)
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		for i := range procs {
			if !reflect.DeepEqual(got[w][i].Hashes, wantH[i]) {
				t.Fatalf("worker %d proc %d: hashes diverged", w, i)
			}
			if !sameU32(gotM[w][i], wantM[i]) {
				t.Fatalf("worker %d proc %d: markers diverged", w, i)
			}
		}
	}
	if st := cache.Stats(); st.Hits == 0 {
		t.Errorf("concurrent replay produced no hits: %+v", st)
	}
}

// A warm, uncached extractor allocates its results and nothing else: the
// three slices Proc returns (Hashes, IDs, markers) per procedure, however
// many blocks, strands or DAG levels the procedure has. The issue's
// ceiling allowed three more per block; blocks are views of the scratch
// and cost none. A formatted string or a fresh map in the per-strand
// loop shows up here as thousands, not as a slower benchmark next month.
func TestExtractorAllocationCeiling(t *testing.T) {
	for _, arch := range []uir.Arch{uir.ArchMIPS32, uir.ArchARM32, uir.ArchPPC32, uir.ArchX86} {
		procs, opt := recoverProcs(t, arch)
		it := newLockedInterner()
		ex := NewExtractor(opt, it, nil)
		blocks, strands := 0, 0
		for _, p := range procs {
			blocks += len(p.Blocks)
			for _, b := range p.Blocks {
				strands += len(ExtractBlock(b, opt))
			}
		}
		run := func() {
			for _, p := range procs {
				ex.Proc(p.Blocks)
			}
		}
		run() // warm: grow the scratch, intern every hash
		got := testing.AllocsPerRun(10, run)
		if ceiling := float64(3 * len(procs)); got > ceiling {
			t.Errorf("%v: %.0f allocations per pass over %d procedures / %d blocks / %d strands, want at most %.0f (3 per procedure)",
				arch, got, len(procs), blocks, strands, ceiling)
		}
	}
}
