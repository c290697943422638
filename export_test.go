package firmup

import (
	"encoding/binary"
	"slices"

	"firmup/internal/corpusindex"
	"firmup/internal/sim"
	"firmup/internal/snapshot"
	"firmup/internal/strand"
)

// AddVariant appends to an analysed image a copy of its executable src
// under another path, after mutate has edited the copy's procedures — how
// the dedup suite makes near-duplicates (one address moved, one marker
// changed) that no firmware build produces on demand. Sealing the image
// stores and indexes the copy like any analysed executable.
func AddVariant(im *Image, src *Executable, path string, mutate func([]*sim.Proc)) {
	procs := make([]*sim.Proc, len(src.exe.Procs))
	for i, p := range src.exe.Procs {
		cp := *p
		procs[i] = &cp
	}
	mutate(procs)
	e := sim.FromProcs(path, procs, src.exe.Session())
	e.Arch, e.Stripped = src.exe.Arch, src.exe.Stripped
	im.Exes = append(im.Exes, &Executable{Path: path, exe: e})
}

// TokensHeld reports how many of the session's analysis tokens are taken
// (see AnalyzerOptions.Workers): zero whenever nothing is analysing.
func (a *Analyzer) TokensHeld() int { return len(a.spare) }

// TokensHeld reports how many of the corpus's worker tokens are lent (see
// Options.Workers): zero whenever nothing is analysing or searching.
func (sc *SealedCorpus) TokensHeld() int { return len(sc.spare) }

// ImageShards lists, in order, the shards of its corpus that store an
// executable of im.
func ImageShards(im *SealedImage) []int {
	var out []int
	for _, oc := range im.occs {
		out = append(out, slices.Index(im.store, im.store.group(oc.Exe)))
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Occurrences returns every executable of a sealed image in image order,
// each under its occurrence's path, materializing store-backed ones.
func Occurrences(im *SealedImage) ([]*Executable, error) {
	out := make([]*Executable, len(im.occs))
	for i, oc := range im.occs {
		e, err := im.store.exe(oc.Exe)
		if err != nil {
			return nil, err
		}
		out[i] = &Executable{Path: oc.Path, exe: e}
	}
	return out, nil
}

// appendExeContent appends everything a sealed executable is except its
// path — arch, stripped flag, and every procedure's name, address,
// flags, shape counts, strand IDs, markers and calls: whatever a game or
// a marker check can observe of it.
func appendExeContent(b []byte, e *sim.Exe) []byte {
	le := binary.LittleEndian
	stripped := byte(0)
	if e.Stripped {
		stripped = 1
	}
	b = append(b, byte(e.Arch), stripped)
	b = le.AppendUint32(b, uint32(len(e.Procs)))
	for _, p := range e.Procs {
		flags := uint32(0)
		if p.Exported {
			flags = 1
		}
		for _, n := range []uint32{
			uint32(len(p.Name)), p.Addr, flags,
			uint32(p.BlockCount), uint32(p.EdgeCount), uint32(p.InstCount),
			uint32(len(p.Set.IDs)), uint32(len(p.Markers)), uint32(len(p.Calls)),
		} {
			b = le.AppendUint32(b, n)
		}
		b = append(b, p.Name...)
		for _, id := range p.Set.IDs {
			b = le.AppendUint32(b, id)
		}
		for _, m := range p.Markers {
			b = le.AppendUint32(b, m)
		}
		for _, c := range p.Calls {
			b = le.AppendUint32(b, uint32(c))
		}
	}
	return b
}

// ExeHashContent is everything an executable is but its path
// (appendExeContent), with every procedure's strand IDs replaced by its
// strand hashes, ascending (strand.Set.AppendHashes): what an executable
// is, whatever IDs its vocabulary numbers its strands by.
func ExeHashContent(e *Executable) []byte {
	procs := make([]*sim.Proc, len(e.exe.Procs))
	var hashes []byte
	for i, p := range e.exe.Procs {
		cp := *p
		cp.Set = strand.Set{}
		procs[i] = &cp
		hs := p.Set.AppendHashes(nil)
		hashes = binary.LittleEndian.AppendUint32(hashes, uint32(len(hs)))
		for _, h := range hs {
			hashes = binary.LittleEndian.AppendUint64(hashes, h)
		}
	}
	bare := sim.FromProcs("", procs, nil)
	bare.Arch, bare.Stripped = e.exe.Arch, e.exe.Stripped
	return append(appendExeContent(nil, bare), hashes...)
}

// ShardSetFaults are the damages to a written shard set — its shards'
// bytes in order — that only the set's opener can tell; each returns the
// shard it damaged.
var ShardSetFaults = shardSetFaults

// IDOutsideVocab damages one shard's bytes with a strand ID outside the
// vocabulary in the last executable's sets, which the shard's first
// search tells while deriving its index.
var IDOutsideVocab = idOutsideVocab

// Materialized counts the executables the corpus has materialized: the
// filled materialize-once slots of its shards.
func (sc *SealedCorpus) Materialized() int {
	n := 0
	for _, g := range sc.groups {
		for i := range g.lazy {
			if g.lazy[i].exe != nil || g.lazy[i].err != nil {
				n++
			}
		}
	}
	return n
}

// CandidateShards lists, ascending, the shards that store a candidate of
// the query procedure: an executable a corpus-wide search of it plays.
// With im not nil, only candidates im ships count.
func CandidateShards(sc *SealedCorpus, q *Executable, proc string, im *SealedImage) ([]int, error) {
	cqs, err := sc.coreBatch([]BatchQuery{{Query: q, Procedure: proc}})
	if err != nil {
		return nil, err
	}
	all := make([]bool, sc.groups.size())
	for u := range all {
		all[u] = true
	}
	x, err := sc.ensureIndex(all)
	if err != nil {
		return nil, err
	}
	var scans corpusindex.Scans
	minScore, minRatio := (*Options)(nil).search().Floors()
	x.Scan(cqs[0].Q.Procs[cqs[0].QI].Set, minScore, minRatio, nil, &scans)
	var out []int
	for _, u := range scans.Exes {
		if im != nil && !slices.ContainsFunc(im.occs, func(oc snapshot.Occurrence) bool { return oc.Exe == u }) {
			continue
		}
		out = append(out, slices.Index(sc.groups, sc.groups.group(u)))
	}
	slices.Sort(out)
	return slices.Compact(out), nil
}
