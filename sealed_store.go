package firmup

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"unsafe"

	"firmup/internal/core"
	"firmup/internal/corpusindex"
	"firmup/internal/sim"
	"firmup/internal/snapshot"
	"firmup/internal/strand"
	"firmup/internal/uir"
)

// This file is the store-backed (mmap) side of SealedCorpus: a corpus
// opened from FWCORP shard files keeps its bulk state in the mapped
// files, one group per shard, and materializes distinct executables
// lazily, on first search touch. The prefilter makes that pay off: a
// query's candidate set is computed from the shard's CSR slabs before
// any executable exists in RAM, so only candidates are ever
// materialized, and peak RSS tracks the working set instead of the
// corpus.
//
// Off the mapping (loadExe), an executable's strand IDs and markers alias
// the file; its procedures, call graph and CSR posting lists are derived
// once, by counting, into a few slabs; its strand hashes are deferred. A
// set bound to an interner is its IDs: Set.Hashes is absent on these
// targets — read a procedure's hashes through sim.Exe.Hashes.

// lazyExe is one distinct executable's materialize-once slot.
type lazyExe struct {
	once sync.Once
	exe  *sim.Exe
	err  error
}

// SealedShard describes one shard of an open sealed corpus, for health
// reporting (firmupd /corpus). Executables counts occurrences,
// UniqueExecutables what the shard stores.
type SealedShard struct {
	Index             int    `json:"index"`
	Path              string `json:"path"`
	Images            int    `json:"images"`
	Executables       int    `json:"executables"`
	UniqueExecutables int    `json:"unique_executables"`
	SizeBytes         int64  `json:"size_bytes"`
	Mapped            bool   `json:"mapped"`
}

// Shards describes the open shards backing this corpus, in shard
// order; nil for an in-RAM (sealed-this-session) corpus.
func (sc *SealedCorpus) Shards() []SealedShard {
	var out []SealedShard
	for i, g := range sc.groups {
		if g.shard == nil {
			continue
		}
		nexes := 0
		for _, im := range sc.images[g.base : g.base+g.n] {
			nexes += len(im.occs)
		}
		out = append(out, SealedShard{
			Index:             i,
			Path:              g.path,
			Images:            g.n,
			Executables:       nexes,
			UniqueExecutables: g.nExes,
			SizeBytes:         g.shard.SizeBytes(),
			Mapped:            g.shard.Mapped(),
		})
	}
	return out
}

// Close releases the mappings of a store-backed corpus. Searches must
// have drained first: materialized executables alias the mapped slabs.
// Close on an in-RAM corpus is a no-op.
func (sc *SealedCorpus) Close() error {
	var errs []error
	for _, g := range sc.groups {
		if g.shard != nil {
			if err := g.shard.Close(); err != nil {
				errs = append(errs, err)
			}
		}
	}
	return errors.Join(errs...)
}

// exe returns distinct executable u of the group, building it from the
// mapped shard on first use when store-backed. Safe for concurrent
// callers.
func (g *sealedGroup) exe(u int) (*sim.Exe, error) {
	if g.shard == nil {
		return g.exes[u], nil
	}
	le := &g.lazy[u]
	le.once.Do(func() { le.exe, le.err = g.loadExe(u) })
	return le.exe, le.err
}

// loadExe materializes one distinct executable from the shard in one
// linear pass and, names aside, a constant number of allocations: strand
// IDs and markers alias the mapped slabs (they are immutable), the
// procedures are one slab, every Calls and CalledBy list is cut from one
// more (in-degrees counted first), and sim's CSR build counts instead of
// sorting. Hashes are not built (see the file comment); the result binds
// to the frozen interner like an executable sealed in RAM.
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
	e := sim.FromProcsSession("", procs, g.frozen)
	e.Arch = uir.Arch(ed.Arch)
	e.Stripped = ed.Stripped
	return e, nil
}

// ensureIndex builds the group's index once, on first search: over an
// in-RAM group's executables, or over the shard's CSR slabs (which can fail).
func (g *sealedGroup) ensureIndex() error {
	g.idxOnce.Do(func() {
		if g.shard == nil {
			g.index = corpusindex.NewFrozenIndex(g.it, g.bound, g.exes)
			g.index.SetTelemetry(g.tel)
			return
		}
		slabs, err := g.shard.Index()
		if err != nil {
			g.idxErr = err
			return
		}
		counts, err := g.shard.ProcCounts()
		if err != nil {
			g.idxErr = err
			return
		}
		idx, err := corpusindex.NewFrozenIndexForeign(g.frozen, counts, slabs.RowIDs, slabs.RowEnds, postsToIndex(slabs.Posts))
		if err != nil {
			// Semantic index violations are shard corruption, reported
			// under the same contract as every other decode failure.
			g.idxErr = &snapshot.CorruptError{Section: "corpus-index-posts", Reason: err.Error()}
			return
		}
		idx.SetTelemetry(g.tel)
		g.index = idx
	})
	return g.idxErr
}

// postsToIndex views the shard's posting slab as corpusindex postings.
// Both types are (exe int32, proc int32); when their layouts agree the
// conversion is a cast, not a copy.
func postsToIndex(sp []snapshot.Posting) []corpusindex.Posting {
	if len(sp) == 0 {
		return nil
	}
	if unsafe.Sizeof(snapshot.Posting{}) == unsafe.Sizeof(corpusindex.Posting{}) &&
		unsafe.Offsetof(snapshot.Posting{}.Proc) == unsafe.Offsetof(corpusindex.Posting{}.Proc) {
		return unsafe.Slice((*corpusindex.Posting)(unsafe.Pointer(&sp[0])), len(sp))
	}
	out := make([]corpusindex.Posting, len(sp))
	for i, p := range sp {
		out[i] = corpusindex.Posting{Exe: p.Exe, Proc: p.Proc}
	}
	return out
}

// targets returns the slice a pass's games run over, aligned with the
// group's distinct executables: all of them in RAM; store-backed, the
// union of the plans' targets materialized and every other slot nil
// (never dereferenced).
func (g *sealedGroup) targets(plans []core.Plan, s *core.SearchOptions) ([]*sim.Exe, error) {
	if g.shard == nil {
		return g.exes, nil
	}
	msp := s.Span.Start("store.materialize")
	defer msp.End()
	targets := make([]*sim.Exe, g.nExes)
	n := 0
	for _, p := range plans {
		for _, u := range p.Targets {
			if targets[u] != nil {
				continue
			}
			e, err := g.exe(u)
			if err != nil {
				return nil, err
			}
			targets[u] = e
			n++
		}
	}
	msp.SetAttr("candidates", int64(n))
	return targets, nil
}

// WriteShards splits the sealed corpus into n contiguous image ranges
// and writes each as one FWCORP shard file (shard-NNNN.fwcorp) under
// dir, returning the paths in shard order. Every shard embeds the full
// frozen vocabulary plus its position, so OpenSealedCorpusDir can
// validate the set as one coherent corpus, and stores each distinct
// executable of its own images once under one index built over them, so
// it is searched on its own. n may exceed the image count; trailing
// shards are then empty but still valid.
//
// Shards are encoded and written by a bounded worker pool; each shard's
// bytes depend only on its own image range, so the output is identical
// to a sequential pass.
func (sc *SealedCorpus) WriteShards(dir string, n int) ([]string, error) {
	if n < 1 {
		return nil, fmt.Errorf("firmup: WriteShards: shard count %d must be at least 1", n)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	total := len(sc.images)
	type shardRange struct{ base, cnt int }
	ranges := make([]shardRange, n)
	for si, base := 0, 0; si < n; si++ {
		cnt := total / n
		if si < total%n {
			cnt++
		}
		ranges[si] = shardRange{base, cnt}
		base += cnt
	}
	// Every shard embeds the same vocabulary sections: encode them once.
	vocab, err := snapshot.EncodeVocab(sc.frozen.Vocab())
	if err != nil {
		return nil, err
	}
	paths := make([]string, n)
	errs := make([]error, n)
	workers := min(n, runtime.GOMAXPROCS(0))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for si := range ranges {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			paths[si], errs[si] = sc.writeShard(vocab, dir, si, n, ranges[si].base, ranges[si].cnt)
		}(si)
	}
	wg.Wait()
	// First error in shard order wins, matching the sequential contract.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return paths, nil
}

// writeShard encodes and writes one shard's image range: the range's
// distinct executables in first-occurrence order (materialized first
// when the source is store-backed), one index built over them, and the
// images as occurrences, under the corpus vocabulary vocab encodes.
func (sc *SealedCorpus) writeShard(vocab *snapshot.Vocab, dir string, si, n, base, cnt int) (string, error) {
	c := &snapshot.Corpus{Interner: sc.frozen.Vocab()}
	dedup := newExeDedup()
	var exes []*sim.Exe
	for _, im := range sc.images[base : base+cnt] {
		ci := snapshot.CorpusImage{Vendor: im.Vendor, Device: im.Device, Version: im.Version}
		for _, s := range im.Skipped {
			ci.Skipped = append(ci.Skipped, snapshot.Skip{Path: s.Path, Err: s.Err.Error()})
		}
		for _, oc := range im.occs {
			e, err := im.group.exe(oc.Exe)
			if err != nil {
				return "", err
			}
			ref, fresh := dedup.add(e)
			if fresh {
				exes = append(exes, e)
				c.Exes = append(c.Exes, exeToModel("", e))
			}
			ci.Occs = append(ci.Occs, snapshot.Occurrence{Path: oc.Path, Exe: ref})
		}
		c.Images = append(c.Images, ci)
	}
	rows := corpusindex.NewFrozenIndex(sc.frozen, sc.frozen.Size(), exes).Rows()
	c.Index = make([]snapshot.IndexRow, len(rows))
	for k, r := range rows {
		c.Index[k] = snapshot.IndexRow{ID: r.ID, Posts: postsToModel(r.Posts)}
	}
	data, err := vocab.EncodeShard(c, snapshot.ShardHeader{
		ShardIndex:  si,
		ShardCount:  n,
		ImageBase:   base,
		TotalImages: len(sc.images),
	})
	if err != nil {
		return "", err
	}
	p := filepath.Join(dir, fmt.Sprintf("shard-%04d.fwcorp", si))
	if err := os.WriteFile(p, data, 0o644); err != nil {
		return "", err
	}
	return p, nil
}

func postsToModel(ps []corpusindex.Posting) []snapshot.Posting {
	out := make([]snapshot.Posting, len(ps))
	for i, p := range ps {
		out[i] = snapshot.Posting{Exe: p.Exe, Proc: p.Proc}
	}
	return out
}

// ErrCorpusCorrupt reports that a sealed-corpus shard failed to open or
// decode; it is firmup's re-export of snapshot.ErrCorrupt so callers can
// classify OpenSealedCorpus and search failures without importing the
// internal package.
var ErrCorpusCorrupt = snapshot.ErrCorrupt

// OpenSealedCorpus opens a sealed corpus from either persisted form: a
// directory of shards, or the single shard file of a 1-shard corpus.
func OpenSealedCorpus(path string) (*SealedCorpus, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if st.IsDir() {
		return OpenSealedCorpusDir(path)
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

// OpenSealedCorpusDir opens every *.fwcorp shard under dir as one
// sealed corpus, validating that the files form exactly one complete
// shard set (contiguous indexes, agreeing totals, byte-identical
// frozen vocabulary). Any file that is not a shard of the one supported
// version fails the open with an error naming it.
func OpenSealedCorpusDir(dir string) (*SealedCorpus, error) {
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
// shards (with their paths aligned by index). On error the caller owns
// closing the shards.
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
	base := 0
	for pos, oi := range order {
		h := shards[oi].Header()
		if h.ShardIndex != pos {
			return nil, fmt.Errorf("firmup: shard set is not contiguous: missing shard %d (found %d in %s)", pos, h.ShardIndex, paths[oi])
		}
		if h.ShardCount != want.ShardCount || h.TotalImages != want.TotalImages {
			return nil, fmt.Errorf("firmup: %s declares %d shards / %d images, shard 0 declares %d / %d: mixed corpora", paths[oi], h.ShardCount, h.TotalImages, want.ShardCount, want.TotalImages)
		}
		if crc, l := shards[oi].VocabChecksum(); crc != crc0 || l != len0 {
			return nil, fmt.Errorf("firmup: %s vocabulary differs from shard 0: shards of different corpora", paths[oi])
		}
		if h.ImageBase != base {
			return nil, fmt.Errorf("firmup: %s starts at image %d, previous shards end at %d", paths[oi], h.ImageBase, base)
		}
		base += shards[oi].NumImages()
	}
	if base != want.TotalImages {
		return nil, fmt.Errorf("firmup: shards hold %d images, corpus declares %d", base, want.TotalImages)
	}

	// The frozen vocabulary comes straight off shard 0's mapped slabs:
	// no map build, no clone. FrozenFromSlabs validates the sorted slab
	// against the vocabulary, which also CRC-touches both sections.
	vocab, err := shards[order[0]].Vocab()
	if err != nil {
		return nil, err
	}
	sortedH, sortedI, err := shards[order[0]].SortedVocab()
	if err != nil {
		return nil, err
	}
	frozen, err := corpusindex.FrozenFromSlabs(vocab, sortedH, sortedI)
	if err != nil {
		return nil, err
	}

	sc := &SealedCorpus{frozen: frozen}
	for _, oi := range order {
		shard := shards[oi]
		g := &sealedGroup{
			base:   len(sc.images),
			n:      shard.NumImages(),
			nExes:  shard.NumExes(),
			shard:  shard,
			path:   paths[oi],
			frozen: frozen,
			lazy:   make([]lazyExe, shard.NumExes()),
		}
		for li := 0; li < g.n; li++ {
			info := shard.Image(li)
			si := &SealedImage{Vendor: info.Vendor, Device: info.Device, Version: info.Version, group: g}
			if si.occs, err = shard.Occurrences(li); err != nil {
				return nil, fmt.Errorf("%s: %w", paths[oi], err)
			}
			for _, s := range info.Skipped {
				si.Skipped = append(si.Skipped, SkipReason{Path: s.Path, Err: errors.New(s.Err)})
			}
			sc.images = append(sc.images, si)
		}
		sc.groups = append(sc.groups, g)
	}
	return sc, nil
}
