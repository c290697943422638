package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"firmup/internal/compiler"
	"firmup/internal/corpus"
	"firmup/internal/isa"
	"firmup/internal/mir"
	"firmup/internal/obj"
	"firmup/internal/uir"
)

// queryArchs are the four ISAs every registry CVE query is compiled
// for; a corpus image is one of them, so three quarters of a sweep's
// (query, target) pairs are cross-ISA.
var queryArchs = []uir.Arch{uir.ArchMIPS32, uir.ArchARM32, uir.ArchPPC32, uir.ArchX86}

// query is one analyst-side query executable.
type query struct {
	CVE  string
	Proc string
	Arch uir.Arch
	Data []byte
}

func (q *query) name() string { return fmt.Sprintf("%s/%v", q.CVE, q.Arch) }

// fixture is everything the generator hands the workloads: packed
// images on disk, their ground truth, and the query executables. The
// system under test receives only the files and request bodies.
type fixture struct {
	dir        string // work directory; everything written lives below it
	imageFiles []string
	imageArch  []string // ISA of image i's executables
	truth      *truthTable
	queries    []query // 9 CVEs x 4 ISAs, registry order, ISA-minor
	mirs       []*mir.Package
}

// corpusSeed fixes the corpus: every -seed serves the same images. With
// the corpus drawn from the workload seed, the spread of every metric
// across seeds was the spread between corpora — 8-11% of the median on
// latency, 8% on recall — which is wider than the bounds the metrics are
// meant to hold. The workload seed drives request order and the upload
// executables instead.
const corpusSeed = 1

// generate builds the corpus: nImages packed images under dir/images
// plus the ground-truth table, and the 36 registry query executables.
// The corpus's compiled units are garbage once it returns; what stays in
// memory is the file paths, the truth table, the query executables'
// bytes and their MIR packages, from which uploads re-emits variants.
func generate(dir string, nImages int) (*fixture, error) {
	fx := &fixture{dir: dir, truth: &truthTable{}}
	imgDir := filepath.Join(dir, "images")
	if err := os.MkdirAll(imgDir, 0o755); err != nil {
		return nil, err
	}
	sc := corpus.ScaleForImages(nImages)
	sc.Seed = corpusSeed
	err := corpus.Stream(sc, func(bi *corpus.BuiltImage) error {
		if len(fx.imageFiles) >= nImages {
			return corpus.ErrStop
		}
		if stopping() {
			return errInterrupted
		}
		path := filepath.Join(imgDir, fmt.Sprintf("%04d.fwim", len(fx.imageFiles)))
		if err := os.WriteFile(path, bi.Image.Pack(true), 0o644); err != nil {
			return err
		}
		var exes []truthExe
		arch := ""
		for i := range bi.Exes {
			e := &bi.Exes[i]
			procs := make(map[string]uint32, len(e.Truth))
			for n, a := range e.Truth {
				procs[n] = a
			}
			exes = append(exes, truthExe{Path: e.Path, Pkg: e.Pkg, Version: e.PkgVersion, Arch: e.Arch.String(), Procs: procs})
			arch = e.Arch.String()
		}
		fx.imageFiles = append(fx.imageFiles, path)
		fx.imageArch = append(fx.imageArch, arch)
		fx.truth.Images = append(fx.truth.Images, exes)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("generate corpus: %w", err)
	}
	if len(fx.imageFiles) < nImages {
		return nil, fmt.Errorf("generate corpus: scale yields %d images, want %d", len(fx.imageFiles), nImages)
	}
	for ci := range corpus.CVEs {
		cve := &corpus.CVEs[ci]
		for _, arch := range queryArchs {
			mp, err := queryMIR(cve, arch)
			if err != nil {
				return nil, err
			}
			prof := compiler.DefaultQueryProfile(arch)
			data, err := emitQuery(mp, arch, isa.Options{
				TextBase: prof.LayoutBase, RegSeed: prof.RegSeed, SchedSeed: prof.SchedSeed, MulByShift: prof.MulByShift,
			})
			if err != nil {
				return nil, fmt.Errorf("query %s/%v: %w", cve.ID, arch, err)
			}
			fx.mirs = append(fx.mirs, mp)
			fx.queries = append(fx.queries, query{CVE: cve.ID, Proc: cve.Procedure, Arch: arch, Data: data})
		}
	}
	return fx, nil
}

// queryMIR compiles a CVE's query package the way the paper builds
// queries: the latest vulnerable version under the default gcc-5.2 -O2
// style profile, symbols intact.
func queryMIR(cve *corpus.CVE, arch uir.Arch) (*mir.Package, error) {
	src, err := corpus.PackageSource(cve.Package, cve.QueryVersion)
	if err != nil {
		return nil, err
	}
	return compiler.CompileToMIR(src, compiler.DefaultQueryProfile(arch))
}

func emitQuery(mp *mir.Package, arch uir.Arch, opt isa.Options) ([]byte, error) {
	be, err := isa.ByArch(arch)
	if err != nil {
		return nil, err
	}
	art, err := be.Generate(mp, opt)
	if err != nil {
		return nil, err
	}
	return obj.FromArtifact(art).Bytes(), nil
}

// mipsQueries returns the nine registry queries compiled for MIPS32,
// the batch-sweep, ingest-check and cold-start request set.
func (fx *fixture) mipsQueries() []*query {
	var out []*query
	for i := range fx.queries {
		if fx.queries[i].Arch == uir.ArchMIPS32 {
			out = append(out, &fx.queries[i])
		}
	}
	return out
}

// uploads derives n query executables that are pairwise distinct byte
// strings — and distinct from the 36 registry builds — by re-emitting
// the registry MIR packages under seeded register-allocation and
// scheduling seeds and text bases. Upload k targets image k mod images,
// so a run touches every image and repeats no request body.
func (fx *fixture) uploads(n int, seed int64) ([]query, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x75706c6f6164))
	seen := map[[32]byte]bool{}
	for i := range fx.queries {
		seen[sha256.Sum256(fx.queries[i].Data)] = true
	}
	out := make([]query, 0, n)
	for k := 0; len(out) < n; k++ {
		if stopping() {
			return nil, errInterrupted
		}
		if k > 4*n+64 {
			return nil, fmt.Errorf("uploads: cannot derive %d distinct executables", n)
		}
		base := &fx.queries[k%len(fx.queries)]
		data, err := emitQuery(fx.mirs[k%len(fx.queries)], base.Arch, isa.Options{
			TextBase:   0x400000 + uint32(rng.Intn(1024))*0x1000,
			RegSeed:    rng.Uint64(),
			SchedSeed:  rng.Uint64(),
			MulByShift: true,
		})
		if err != nil {
			return nil, fmt.Errorf("upload %d (%s): %w", k, base.name(), err)
		}
		h := sha256.Sum256(data)
		if seen[h] {
			continue
		}
		seen[h] = true
		out = append(out, query{CVE: base.CVE, Proc: base.Proc, Arch: base.Arch, Data: data})
	}
	return out, nil
}
