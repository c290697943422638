package firmup

import (
	"cmp"
	"errors"
	"fmt"
	"os"
	"path"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync"

	"firmup/internal/corpusindex"
	"firmup/internal/sim"
	"firmup/internal/snapshot"
	"firmup/internal/strand"
	"firmup/internal/telemetry"
	"firmup/internal/uir"
)

// This file is the store side of SealedCorpus: every corpus keeps its
// bulk state in FWCORP shards — the files a corpus opened from disk maps,
// or the one shard Seal encodes in memory — one group per shard, the
// range of distinct executables the shard stores, and materializes
// executables lazily, on first search touch. The prefilter makes that pay
// off: a query's candidate set is computed from the corpus index —
// derived, on the first search, from the strand sets every shard stores
// — before any executable exists in RAM, so only candidates are ever
// materialized, and peak RSS tracks the working set instead of the
// corpus.
//
// Off the mapping (loadExe), an executable's strand IDs and markers alias
// the file; its procedures and call graph are decoded once, into a few
// slabs, and its CSR posting lists are built on its first similarity
// query (sim.Exe.SimAll). Many materialized targets are never asked one:
// a game's first pick comes from the posting scan's vector, and its
// rival step reads the query's index. It has no strand hashes, like an
// analysed executable: every similarity is counted over IDs, and a
// caller that wants hashes derives them from the vocabulary
// (strand.Set.AppendHashes).

// lazyExe is one executable's materialize-once slot.
type lazyExe struct {
	once sync.Once
	exe  *sim.Exe
	err  error
}

// SealedShard describes one shard of an open sealed corpus, for health
// reporting (firmupd /corpus). Executables counts the occurrences of the
// shard's images, UniqueExecutables the distinct executables the shard
// stores: its range of the corpus's, which any shard's images may name.
// Procedures counts those executables' procedures, StrandSets the
// distinct strand sets the shard stores for them, and StrandIDs and
// Markers the IDs and marker entries it stores for those sets: across
// shards, the skew of the cut. Corrupt is the
// first corruption a read of the shard returned — while deriving its
// index, materializing an executable, or as a fault recovered in a
// search — and empty while none has.
type SealedShard struct {
	Index             int    `json:"index"`
	Path              string `json:"path"`
	Images            int    `json:"images"`
	Executables       int    `json:"executables"`
	UniqueExecutables int    `json:"unique_executables"`
	Procedures        int    `json:"procedures"`
	StrandSets        int    `json:"strand_sets"`
	StrandIDs         int    `json:"strand_ids"`
	Markers           int    `json:"markers"`
	SizeBytes         int64  `json:"size_bytes"`
	Mapped            bool   `json:"mapped"`
	Corrupt           string `json:"corrupt,omitempty"`
}

// sealedShardPath is the path of the one shard of a corpus Seal built,
// which lives in memory, not in a file: what its SealedShard and errors
// name it by.
const sealedShardPath = "(sealed in memory)"

// Shards describes the shards backing this corpus, in shard order: the
// files it was opened from, or the one shard Seal encoded in memory.
func (sc *SealedCorpus) Shards() []SealedShard {
	var out []SealedShard
	for i, g := range sc.groups {
		occs := 0
		for li := range g.shard.NumImages() {
			occs += g.shard.Image(li).Executables
		}
		corrupt := ""
		if p := g.corrupt.Load(); p != nil {
			corrupt = *p
		}
		procs, sets, ids, markers := g.shard.StoredCounts()
		out = append(out, SealedShard{
			Index:             i,
			Path:              g.path,
			Images:            g.shard.NumImages(),
			Executables:       occs,
			UniqueExecutables: g.n,
			Procedures:        procs,
			StrandSets:        sets,
			StrandIDs:         ids,
			Markers:           markers,
			SizeBytes:         g.shard.SizeBytes(),
			Mapped:            g.shard.Mapped(),
			Corrupt:           corrupt,
		})
	}
	return out
}

// Close releases the corpus's shard mappings. Searches must have drained
// first: materialized executables alias the mapped slabs.
func (sc *SealedCorpus) Close() error {
	var errs []error
	for _, g := range sc.groups {
		if err := g.shard.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// exe returns the group's executable u (counted from the group's first),
// building it from the shard on first use. Safe for concurrent callers.
func (g *sealedGroup) exe(u int) (*sim.Exe, error) {
	le := &g.lazy[u]
	le.once.Do(func() {
		defer g.recoverCorrupt("exe", &le.err)
		defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
		le.exe, le.err = g.loadExe(u)
	})
	return le.exe, le.err
}

// record reads the group's executable u as stored, aliasing the shard,
// with a fault in the read blamed on the shard as exe blames one.
func (g *sealedGroup) record(u int) (e *snapshot.Exe, err error) {
	defer g.recoverCorrupt("exe", &err)
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	return g.shard.Exe(u)
}

// encodeVocab encodes the corpus vocabulary, which the frozen one reads
// off shard 0, so a fault in the read is blamed on that shard, and so is
// a vocabulary that no longer ascends, as the open checked it did.
func (sc *SealedCorpus) encodeVocab() (v *snapshot.Vocab, err error) {
	g := sc.groups[0]
	defer g.recoverCorrupt("corpus-vocab", &err)
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	if v, err = snapshot.EncodeVocab(sc.frozen.Vocab()); err != nil {
		err = &snapshot.CorruptError{Section: "corpus-vocab", Reason: fmt.Sprintf("%s: the file changed under the process: %v", g.path, err)}
	}
	return v, err
}

// recoverCorrupt, deferred by a read of the group's shard, blames a
// panic in the read on the shard.
func (g *sealedGroup) recoverCorrupt(section string, err *error) {
	g.blame(section, recover(), err)
}

// blame stores r, a panic in a read of the group's shard — the memory
// fault of a file truncated under its mapping, or code tripped by damaged
// bytes — in *err as the shard's corruption, so the caller, and every
// later one of a once-only read, gets an error naming the shard, not a
// nil result or a dead process. A memory fault (a recovered value with
// an address) is named as one: the runtime's own text for it reads as a
// nil dereference. The first corruption the group's reads return is kept
// for Shards.
func (g *sealedGroup) blame(section string, r any, err *error) {
	if f, ok := r.(interface{ Addr() uintptr }); ok {
		*err = &snapshot.CorruptError{Section: section, Reason: fmt.Sprintf("%s: memory fault at %#x reading the shard's mapping: the file shrank or changed under the process", g.path, f.Addr())}
	} else if r != nil {
		*err = &snapshot.CorruptError{Section: section, Reason: fmt.Sprintf("%s: panicked: %v", g.path, r)}
	}
	if errors.Is(*err, snapshot.ErrCorrupt) && g.corrupt.Load() == nil {
		msg := (*err).Error()
		g.corrupt.CompareAndSwap(nil, &msg)
	}
}

// loadExe materializes one executable from the shard in one
// linear pass and, names aside, a constant number of allocations: strand
// IDs and markers alias the mapped slabs (they are immutable), the
// procedures are one slab, and every Calls and CalledBy list is cut from
// one more (in-degrees counted first). Neither hashes nor the inverted
// index are built (see the file comment); the result binds to the
// corpus's frozen vocabulary.
func (g *sealedGroup) loadExe(u int) (*sim.Exe, error) {
	ed, err := g.shard.Exe(u)
	if err != nil {
		return nil, err
	}
	ncalls := 0
	indeg := make([]int32, len(ed.Procs))
	for pi := range ed.Procs {
		ncalls += len(ed.Procs[pi].Calls)
		for _, c := range ed.Procs[pi].Calls {
			indeg[c]++
		}
	}
	slab := make([]sim.Proc, len(ed.Procs))
	procs := make([]*sim.Proc, len(ed.Procs))
	edges := make([]int, 2*ncalls)
	calls, calledBy := edges[:ncalls:ncalls], edges[ncalls:]
	for pi := range ed.Procs {
		pd, p := &ed.Procs[pi], &slab[pi]
		*p = sim.Proc{
			Name:       pd.Name,
			Addr:       pd.Addr,
			Exported:   pd.Exported,
			Set:        strand.Set{IDs: pd.IDs, It: g.frozen},
			Markers:    pd.Markers,
			BlockCount: pd.BlockCount,
			EdgeCount:  pd.EdgeCount,
			InstCount:  pd.InstCount,
		}
		if n := len(pd.Calls); n > 0 {
			p.Calls, calls = calls[:n:n], calls[n:]
			for k, c := range pd.Calls {
				p.Calls[k] = int(c)
			}
		}
		if n := int(indeg[pi]); n > 0 {
			p.CalledBy, calledBy = calledBy[:0:n], calledBy[n:]
		}
		procs[pi] = p
	}
	for pi, p := range procs {
		for _, cl := range p.Calls {
			procs[cl].CalledBy = append(procs[cl].CalledBy, pi) // within the counted capacity
		}
	}
	e := sim.FromProcs("", procs, g.frozen)
	e.Arch = uir.Arch(ed.Arch)
	e.Stripped = ed.Stripped
	return e, nil
}

// ensureIndex returns the corpus index, building it on first use, or
// the error of the first shard, in shard order, whose strand sets it
// could not read and which stores an executable inScope admits.
func (sc *SealedCorpus) ensureIndex(inScope []bool) (*corpusindex.FrozenIndex, error) {
	x := sc.index.Load()
	if x == nil {
		x = sc.buildIndex()
	}
	for gi, g := range sc.groups {
		if err := x.errs[gi]; err != nil && slices.Contains(inScope[g.base:g.base+g.n], true) {
			return nil, err
		}
	}
	return x.x, nil
}

// buildIndex builds the corpus index once, under idxMu, from every
// shard's set table in shard order, numbered by corpus ID. A shard whose
// sets cannot be read contributes executables without procedures, and its
// error. A build that panics publishes nothing, so the next search builds
// again.
func (sc *SealedCorpus) buildIndex() *corpusIndex {
	sc.idxMu.Lock()
	defer sc.idxMu.Unlock()
	if x := sc.index.Load(); x != nil {
		return x
	}
	x := &corpusIndex{errs: make([]error, len(sc.groups))}
	var counts []int32
	tables := make([]corpusindex.SetTable, len(sc.groups))
	for gi, g := range sc.groups {
		c, t, err := g.procSets()
		if err != nil {
			x.errs[gi], c, t = err, make([]int32, g.n), corpusindex.SetTable{}
		}
		counts, tables[gi] = append(counts, c...), t
	}
	x.x = corpusindex.NewFrozenIndex(sc.frozen.Size(), counts, tables)
	sc.index.Store(x)
	return x
}

// procSets reads the group's share of the corpus index from its shard:
// every executable's procedure count and the shard's set table.
func (g *sealedGroup) procSets() (counts []int32, t corpusindex.SetTable, err error) {
	defer g.recoverCorrupt("corpus-index", &err)
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	counts, t.Sets, t.SetOf, err = g.shard.ProcSets()
	return counts, t, err
}

// targets returns the slice a pass's games run over, indexed by corpus
// ID: every executable some query is played against (played, by query
// and executable), materialized in ID order by the group that stores it,
// so the first failing shard in shard order names the error, and every
// other slot nil (never dereferenced).
func (st exeStore) targets(played [][]bool, parent telemetry.Span) ([]*sim.Exe, error) {
	msp := parent.Start("store.materialize")
	defer msp.End()
	targets := make([]*sim.Exe, st.size())
	n := 0
	for u := range targets {
		if !slices.ContainsFunc(played, func(p []bool) bool { return p[u] }) {
			continue
		}
		e, err := st.exe(u)
		if err != nil {
			return nil, err
		}
		targets[u] = e
		n++
	}
	msp.SetAttr("candidates", int64(n))
	return targets, nil
}

// WriteShards writes the sealed corpus as n FWCORP shard files
// (shard-NNNN.fwcorp) under dir, returning the paths in shard order: it
// re-splits the shards the corpus is read from. The images are split
// into n contiguous ranges, shard i holding range i. The distinct
// executables are cut by package (planShards), because a package's
// builds share strand sets, and a shard stores each of its sets once:
// the copies of one package on one ISA land in one shard. Corpus IDs are
// renumbered shard by shard, so shard i stores a contiguous ID range, and
// each distinct executable is stored and searched once however many
// shards' images ship it. Shard 0 also stores the frozen vocabulary, and
// every shard its position and the vocabulary's checksum, so
// OpenSealedCorpus can validate the set as one coherent corpus. n may
// exceed the image or package count; trailing shards then hold no images
// or no executables, but are still valid.
//
// Shards are encoded and written on workers the corpus lends; each shard's
// bytes depend only on the plan and its image range, so the output is
// identical to a sequential pass. Each shard is written to a temporary
// file beside its target and renamed over it, so a corpus that has the
// directory open — a running server's — keeps the shards it mapped,
// unchanged, until it closes them.
func (sc *SealedCorpus) WriteShards(dir string, n int) ([]string, error) {
	if n < 1 {
		return nil, fmt.Errorf("firmup: WriteShards: shard count %d must be at least 1", n)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	vocab, err := sc.encodeVocab()
	if err != nil {
		return nil, err
	}
	plan, err := sc.planShards(n)
	if err != nil {
		return nil, err
	}
	paths := make([]string, n)
	errs := make([]error, n)
	sc.spare.fan(n, runtime.GOMAXPROCS(0), func(si int) { paths[si], errs[si] = sc.writeShard(vocab, plan, dir, si, n) })
	// First error in shard order wins, matching the sequential contract.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return paths, nil
}

// shardPlan is how WriteShards cuts a corpus's distinct executables into
// shards. recs holds every stored record, by current corpus ID; order
// lists the current IDs in their new order, shard by shard, and newID is
// its inverse; shard si stores new IDs [base[si], base[si+1]).
type shardPlan struct {
	recs  []snapshot.Exe
	order []int
	newID []int
	base  []int
}

// planShards reads every stored record once, blaming a fault on the
// shard that stores it, and cuts the corpus into n shards by package.
// The packages are placed heaviest first, ties broken by (arch, name),
// each on the least-loaded shard, the lowest index on a tie: the LPT
// rule, so no shard weighs more than the mean plus the heaviest package.
// Inside a shard the executables keep their current ID order, so the
// plan with n = 1, or over a corpus opened from shards WriteShards(…, n)
// wrote, keeps every corpus ID.
func (sc *SealedCorpus) planShards(n int) (*shardPlan, error) {
	total := sc.UniqueExecutables()
	p := &shardPlan{recs: make([]snapshot.Exe, total), order: make([]int, total), newID: make([]int, total), base: make([]int, n+1)}
	for _, g := range sc.groups {
		for u := range g.n {
			e, err := g.record(u)
			if err != nil {
				return nil, err
			}
			p.recs[g.base+u] = *e
		}
	}
	// A package is the distinct executables of one arch whose first path,
	// in image order, has one basename.
	type key struct {
		arch uint8
		name string
	}
	type pkg struct {
		key
		weight int // the total length of the executables' strand sets
		exes   []int
	}
	seen := make([]bool, total)
	byKey := map[key]*pkg{}
	var pkgs []*pkg
	for _, im := range sc.images {
		for _, oc := range im.occs {
			if seen[oc.Exe] {
				continue
			}
			seen[oc.Exe] = true
			rec := &p.recs[oc.Exe]
			k := key{rec.Arch, path.Base(oc.Path)}
			pk := byKey[k]
			if pk == nil {
				pk = &pkg{key: k}
				byKey[k] = pk
				pkgs = append(pkgs, pk)
			}
			pk.exes = append(pk.exes, oc.Exe)
			for _, pr := range rec.Procs {
				pk.weight += len(pr.IDs)
			}
		}
	}
	slices.SortFunc(pkgs, func(a, b *pkg) int {
		return cmp.Or(cmp.Compare(b.weight, a.weight), cmp.Compare(a.arch, b.arch), strings.Compare(a.name, b.name))
	})
	load := make([]int, n)
	shardOf := make([]int, total)
	for _, pk := range pkgs {
		si := 0
		for i := range load {
			if load[i] < load[si] {
				si = i
			}
		}
		load[si] += pk.weight
		for _, u := range pk.exes {
			shardOf[u] = si
		}
		p.base[si+1] += len(pk.exes)
	}
	for si := range n {
		p.base[si+1] += p.base[si]
	}
	for u := range p.order {
		p.order[u] = u
	}
	slices.SortStableFunc(p.order, func(a, b int) int { return cmp.Compare(shardOf[a], shardOf[b]) })
	for k, u := range p.order {
		p.newID[u] = k
	}
	return p, nil
}

// shardRange is range i of total items split into n contiguous ranges,
// the first total%n one longer: its first item and its length.
func shardRange(i, n, total int) (base, cnt int) {
	base = i*(total/n) + min(i, total%n)
	cnt = total / n
	if i < total%n {
		cnt++
	}
	return base, cnt
}

// writeShard encodes and writes shard si of n under the corpus
// vocabulary vocab encodes: its image range, each occurrence renumbered
// through the plan, and the records of the executables the plan gives it.
// Nothing is materialized.
func (sc *SealedCorpus) writeShard(vocab *snapshot.Vocab, plan *shardPlan, dir string, si, n int) (string, error) {
	hdr := snapshot.ShardHeader{ShardIndex: si, ShardCount: n, TotalImages: len(sc.images), ExeBase: plan.base[si], TotalExes: len(plan.recs)}
	var images int
	hdr.ImageBase, images = shardRange(si, n, hdr.TotalImages)
	c := &snapshot.Corpus{}
	for _, u := range plan.order[plan.base[si]:plan.base[si+1]] {
		c.Exes = append(c.Exes, plan.recs[u])
	}
	for _, im := range sc.images[hdr.ImageBase : hdr.ImageBase+images] {
		occs := make([]snapshot.Occurrence, len(im.occs))
		for k, oc := range im.occs {
			occs[k] = snapshot.Occurrence{Path: oc.Path, Exe: plan.newID[oc.Exe]}
		}
		c.Images = append(c.Images, snapshot.CorpusImage{Vendor: im.Vendor, Device: im.Device, Version: im.Version, Skipped: skipsToModel(im.Skipped), Occs: occs})
	}
	data, err := vocab.EncodeShard(c, hdr)
	if err != nil {
		return "", err
	}
	p := filepath.Join(dir, fmt.Sprintf("shard-%04d.fwcorp", si))
	// Writing p in place would truncate it under every mapping of it, and
	// the next read through one faults. A rename leaves a mapping on the
	// old inode; the *.fwcorp glob never matches the temporary name.
	tmp := p + ".tmp"
	err = os.WriteFile(tmp, data, 0o644)
	if err == nil {
		err = os.Rename(tmp, p)
	}
	if err != nil {
		os.Remove(tmp)
		return "", err
	}
	return p, nil
}

// ErrCorpusCorrupt reports that a sealed-corpus shard failed to open or
// decode; it is firmup's re-export of snapshot.ErrCorrupt so callers can
// classify OpenSealedCorpus and search failures without importing the
// internal package.
var ErrCorpusCorrupt = snapshot.ErrCorrupt

// OpenSealedCorpus opens a sealed corpus from either persisted form: a
// directory of shards, or the single shard file of a 1-shard corpus.
// A directory's *.fwcorp files must form exactly one complete shard set
// (contiguous indexes, image and executable ranges, agreeing totals and
// vocabulary checksum, every executable named by an image); any file
// there that is not a shard of the one supported version fails the open
// with an error naming it.
func OpenSealedCorpus(path string) (*SealedCorpus, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if st.IsDir() {
		return openSealedCorpusDir(path)
	}
	shard, err := snapshot.OpenCorpusShardFile(path)
	if err != nil {
		return nil, err
	}
	if idx, cnt := shard.Header().ShardIndex, shard.Header().ShardCount; cnt != 1 {
		shard.Close()
		return nil, fmt.Errorf("firmup: %s is shard %d of %d: open the shard directory instead", path, idx, cnt)
	}
	sc, err := sealedFromShards([]*snapshot.CorpusShard{shard}, []string{path})
	if err != nil {
		shard.Close()
	}
	return sc, err
}

// openSealedCorpusDir opens every *.fwcorp shard under dir as one
// sealed corpus, validated as OpenSealedCorpus describes.
func openSealedCorpusDir(dir string) (*SealedCorpus, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "*.fwcorp"))
	if err != nil {
		return nil, err
	}
	if len(matches) == 0 {
		return nil, fmt.Errorf("firmup: %s holds no .fwcorp shards", dir)
	}
	sort.Strings(matches)
	shards := make([]*snapshot.CorpusShard, 0, len(matches))
	closeAll := func() {
		for _, s := range shards {
			s.Close()
		}
	}
	for _, p := range matches {
		s, err := snapshot.OpenCorpusShardFile(p)
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		shards = append(shards, s)
	}
	sc, err := sealedFromShards(shards, matches)
	if err != nil {
		closeAll()
		return nil, err
	}
	return sc, nil
}

// sealedFromShards assembles an open sealed corpus from already-open
// shards (with their paths aligned by index), validating them as one set.
// On error the caller owns closing the shards.
func sealedFromShards(shards []*snapshot.CorpusShard, paths []string) (*SealedCorpus, error) {
	order := make([]int, len(shards))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return shards[order[a]].Header().ShardIndex < shards[order[b]].Header().ShardIndex
	})

	want := shards[order[0]].Header()
	if want.ShardCount != len(shards) {
		return nil, fmt.Errorf("firmup: corpus declares %d shards but %d shard files are present", want.ShardCount, len(shards))
	}
	crc0, len0 := shards[order[0]].VocabChecksum()
	images, exes := 0, 0
	for pos, oi := range order {
		h := shards[oi].Header()
		if h.ShardIndex != pos {
			return nil, fmt.Errorf("firmup: shard set is not contiguous: missing shard %d (found %d in %s)", pos, h.ShardIndex, paths[oi])
		}
		if h.ShardCount != want.ShardCount || h.TotalImages != want.TotalImages || h.TotalExes != want.TotalExes {
			return nil, fmt.Errorf("firmup: %s declares %d shards / %d images / %d executables, shard 0 declares %d / %d / %d: mixed corpora",
				paths[oi], h.ShardCount, h.TotalImages, h.TotalExes, want.ShardCount, want.TotalImages, want.TotalExes)
		}
		if crc, l := shards[oi].VocabChecksum(); crc != crc0 || l != len0 {
			return nil, fmt.Errorf("firmup: %s vocabulary differs from shard 0: shards of different corpora", paths[oi])
		}
		if h.ImageBase != images {
			return nil, fmt.Errorf("firmup: %s starts at image %d, previous shards end at %d", paths[oi], h.ImageBase, images)
		}
		if h.ExeBase != exes {
			return nil, fmt.Errorf("firmup: %s stores executables from %d, previous shards end at %d", paths[oi], h.ExeBase, exes)
		}
		images += shards[oi].NumImages()
		exes += shards[oi].NumExes()
	}
	last := paths[order[len(order)-1]]
	if images != want.TotalImages || exes != want.TotalExes {
		return nil, fmt.Errorf("firmup: shards up to %s hold %d images and %d executables, the corpus declares %d and %d", last, images, exes, want.TotalImages, want.TotalExes)
	}

	// The frozen vocabulary comes straight off shard 0's mapped slab: no
	// map build, no clone. Vocab CRC-touches the section, and NewFrozen
	// checks that it ascends.
	vocab, err := shards[order[0]].Vocab()
	if err != nil {
		return nil, err
	}
	frozen, err := corpusindex.NewFrozen(vocab)
	if err != nil {
		return nil, err
	}

	sc := &SealedCorpus{frozen: frozen, spare: make(budget, runtime.GOMAXPROCS(0))}
	named := make([]bool, exes)
	for _, oi := range order {
		shard := shards[oi]
		sc.groups = append(sc.groups, &sealedGroup{
			base:   shard.Header().ExeBase,
			n:      shard.NumExes(),
			shard:  shard,
			path:   paths[oi],
			frozen: frozen,
			lazy:   make([]lazyExe, shard.NumExes()),
		})
		for li := range shard.NumImages() {
			info := shard.Image(li)
			si := &SealedImage{Vendor: info.Vendor, Device: info.Device, Version: info.Version}
			if si.occs, err = shard.Occurrences(li); err != nil {
				return nil, fmt.Errorf("%s: %w", paths[oi], err)
			}
			for _, oc := range si.occs {
				named[oc.Exe] = true
			}
			for _, s := range info.Skipped {
				si.Skipped = append(si.Skipped, SkipReason{Path: s.Path, Err: errors.New(s.Err)})
			}
			sc.images = append(sc.images, si)
		}
	}
	for _, im := range sc.images {
		im.store = sc.groups
	}
	if u := slices.Index(named, false); u >= 0 {
		return nil, fmt.Errorf("firmup: %s stores executable %d, which no image names", sc.groups.group(u).path, u)
	}
	return sc, nil
}
