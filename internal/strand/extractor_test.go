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
	"firmup/internal/telemetry"
	"firmup/internal/uir"
)

// lockedInterner is a minimal thread-safe session interner for extractor
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
// never from text).
func TestExtractorMatchesExtractBlock(t *testing.T) {
	for _, arch := range []uir.Arch{uir.ArchMIPS32, uir.ArchARM32, uir.ArchPPC32, uir.ArchX86} {
		procs, opt := recoverProcs(t, arch)
		it := newLockedInterner()
		ex := NewExtractor(opt, it, nil)
		for _, p := range procs {
			wantHashes, wantMarkers := referenceProc(t, p.Blocks, opt)
			want := Set{Hashes: wantHashes}.Interned(it)
			set, markers := ex.Proc(p.Blocks)
			if !slices.Equal(set.Hashes, want.Hashes) {
				t.Fatalf("%v/%s: hashes = %v, want %v", arch, p.Name, set.Hashes, want.Hashes)
			}
			if !sameU32(set.IDs, want.IDs) {
				t.Fatalf("%v/%s: IDs = %v, want %v", arch, p.Name, set.IDs, want.IDs)
			}
			if set.It != Interner(it) {
				t.Fatalf("%v/%s: set must carry the session interner", arch, p.Name)
			}
			if !sameU32(markers, wantMarkers) {
				t.Fatalf("%v/%s: markers = %v, want %v", arch, p.Name, markers, wantMarkers)
			}
		}
	}
}

// There is no block cache: every block an extractor is handed is
// computed and counted, on an identical replay as on the first pass, so
// the Blocks and Strands counters are exact per-pass totals.
func TestBlockCacheStats(t *testing.T) {
	procs, opt := recoverProcs(t, uir.ArchMIPS32)
	reg := telemetry.New()
	tel := &Telemetry{Blocks: reg.Counter("strand.blocks"), Strands: reg.Counter("strand.strands")}
	blocks, strands := 0, 0
	for _, p := range procs {
		blocks += len(p.Blocks)
		for _, b := range p.Blocks {
			strands += len(ExtractBlock(b, opt))
		}
	}
	it := newLockedInterner()
	for pass := 1; pass <= 2; pass++ {
		ex := NewExtractor(opt, it, tel)
		for _, p := range procs {
			ex.Proc(p.Blocks)
		}
		ex.Release()
		if got, want := tel.Blocks.Value(), int64(pass*blocks); got != want {
			t.Errorf("pass %d: Blocks = %d, want %d", pass, got, want)
		}
		if got, want := tel.Strands.Value(), int64(pass*strands); got != want {
			t.Errorf("pass %d: Strands = %d, want %d", pass, got, want)
		}
	}
}

// An extractor's pooled scratch may last have served another session.
// Dense IDs interned under one interner are meaningless under another,
// so no ID the scratch kept from the previous extractor may reach the
// next one's sets.
func TestExtractorCacheInternerMismatch(t *testing.T) {
	procs, opt := recoverProcs(t, uir.ArchMIPS32)
	prevIt := newLockedInterner()
	exIt := newLockedInterner()
	// Offset exIt's ID space so the two sessions disagree on every ID.
	for h := uint64(1); h <= 1000; h++ {
		exIt.Intern(^h)
	}
	for _, it := range []Interner{exIt, prevIt} {
		prev := NewExtractor(opt, prevIt, nil)
		for _, p := range procs {
			prev.Proc(p.Blocks)
		}
		prev.Release()
		ex := NewExtractor(opt, it, nil)
		for _, p := range procs {
			wantHashes, wantMarkers := referenceProc(t, p.Blocks, opt)
			want := Set{Hashes: wantHashes}.Interned(it)
			got, markers := ex.Proc(p.Blocks)
			if !slices.Equal(got.Hashes, want.Hashes) || !sameU32(got.IDs, want.IDs) || got.It != want.It {
				t.Fatalf("%s under %T: set = %+v, want %+v", p.Name, it, got, want)
			}
			if !sameU32(markers, wantMarkers) {
				t.Fatalf("%s under %T: markers = %v, want %v", p.Name, it, markers, wantMarkers)
			}
		}
		ex.Release()
	}
}

// Concurrent extractors sharing one session interner must agree with a
// serial run (exercised with -race in CI).
func TestExtractorConcurrent(t *testing.T) {
	procs, opt := recoverProcs(t, uir.ArchARM32)
	it := newLockedInterner()
	serial := NewExtractor(opt, it, nil)
	want := make([]Set, len(procs))
	wantM := make([][]uint32, len(procs))
	for i, p := range procs {
		want[i], wantM[i] = serial.Proc(p.Blocks)
	}
	const workers = 8
	got := make([][]Set, workers)
	gotM := make([][][]uint32, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ex := NewExtractor(opt, it, nil)
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
			if !reflect.DeepEqual(got[w][i].Hashes, want[i].Hashes) || !sameU32(got[w][i].IDs, want[i].IDs) {
				t.Fatalf("worker %d proc %d: strands diverged", w, i)
			}
			if !sameU32(gotM[w][i], wantM[i]) {
				t.Fatalf("worker %d proc %d: markers diverged", w, i)
			}
		}
	}
}

// A warm extractor allocates its results and nothing else: the
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

// TestExtractorSteadyStateAllocs pins the pipeline form's allocations: a
// warm extractor's IDs allocates the two slices it returns (the set's IDs
// and the markers) per procedure and nothing else, and rendering a block
// — hashing each strand as it is rendered, with no text — allocates
// nothing at all.
func TestExtractorSteadyStateAllocs(t *testing.T) {
	for _, arch := range []uir.Arch{uir.ArchMIPS32, uir.ArchARM32, uir.ArchPPC32, uir.ArchX86} {
		procs, opt := recoverProcs(t, arch)
		ex := NewExtractor(opt, newLockedInterner(), nil)
		ids := func() {
			for _, p := range procs {
				ex.IDs(p.Blocks)
			}
		}
		ids() // warm: grow the scratch, intern every hash
		if got, ceiling := testing.AllocsPerRun(10, ids), float64(2*len(procs)); got > ceiling {
			t.Errorf("%v: IDs makes %.0f allocations per pass over %d procedures, want at most %.0f (2 per procedure)", arch, got, len(procs), ceiling)
		}
		sc := ex.sc
		render := func() {
			for _, p := range procs {
				sc.hashes, sc.markers = sc.hashes[:0], sc.markers[:0]
				for _, b := range p.Blocks {
					sc.analyze(b)
					sc.render(nil)
				}
			}
		}
		if got := testing.AllocsPerRun(10, render); got != 0 {
			t.Errorf("%v: rendering every block makes %.0f allocations per pass, want 0", arch, got)
		}
		ex.Release()
	}
}
