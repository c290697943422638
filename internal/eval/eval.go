// Package eval implements the paper's evaluation: the wild CVE hunt
// (Table 2), the labeled-precision comparisons against the BinDiff-style
// and GitZ-style baselines (Figs. 6 and 8), the game-step distribution
// and no-game ablation (Fig. 9), and the demonstration artifacts
// (Table 1 game course, Fig. 5 call graphs, Fig. 1/3 strand forms).
package eval

import (
	"fmt"
	"sort"
	"time"

	"firmup/internal/baseline/gitz"
	"firmup/internal/cfg"
	"firmup/internal/core"
	"firmup/internal/corpus"
	"firmup/internal/corpusindex"
	"firmup/internal/obj"
	"firmup/internal/sim"
	"firmup/internal/uir"
)

// Unit is one unique build (the same executable often ships in several
// images, as the paper observed; analysis runs once per unit).
type Unit struct {
	Key        string
	Pkg        string
	PkgVersion string
	Vendor     string
	Arch       uir.Arch
	File       *obj.File
	Truth      map[string]uint32
	// Occurrences lists (image index, latest?) references.
	Occurrences []Occurrence
	// Exe is the indexed (recovered, stripped) view.
	Exe *sim.Exe
}

// Occurrence ties a unit to one image.
type Occurrence struct {
	ImageIdx int
	Vendor   string
	Device   string
	Latest   bool
}

// TruthName resolves the original name of a procedure address.
func (u *Unit) TruthName(addr uint32) string {
	for n, a := range u.Truth {
		if a == addr {
			return n
		}
	}
	return ""
}

// Env is the prepared evaluation environment: the corpus, its unique
// units indexed for search, and per-(package, arch) query builds. Every
// unit and query is built under one analyzer session (It), so the
// matcher always takes the interned fast paths.
type Env struct {
	Corpus *corpus.Corpus
	Units  []*Unit
	// It is the session interner shared by every unit and query build.
	It *corpusindex.Interner
	// queries caches QueryExe results by pkg|version|arch.
	queries map[string]*queryBuild
}

// UniqueStrands reports the session's strand vocabulary size.
func (env *Env) UniqueStrands() int { return env.It.Size() }

type queryBuild struct {
	exe *sim.Exe
	f   *obj.File
}

// Prepare builds the corpus and analyzes every unique unit.
func Prepare(sc corpus.Scale) (*Env, error) {
	c, err := corpus.Build(sc)
	if err != nil {
		return nil, err
	}
	env := &Env{Corpus: c, It: corpusindex.NewInterner(), queries: map[string]*queryBuild{}}
	byFile := map[*obj.File]*Unit{}
	for ii, bi := range c.Images {
		for ei := range bi.Exes {
			e := &bi.Exes[ei]
			u, ok := byFile[e.File]
			if !ok {
				u = &Unit{
					Key:        fmt.Sprintf("%s|%s@%s|%v", e.Vendor, e.Pkg, e.PkgVersion, e.Arch),
					Pkg:        e.Pkg,
					PkgVersion: e.PkgVersion,
					Vendor:     e.Vendor,
					Arch:       e.Arch,
					File:       e.File,
					Truth:      e.Truth,
				}
				byFile[e.File] = u
				env.Units = append(env.Units, u)
			}
			u.Occurrences = append(u.Occurrences, Occurrence{
				ImageIdx: ii, Vendor: bi.Vendor, Device: bi.Device, Latest: bi.Latest,
			})
		}
	}
	sort.Slice(env.Units, func(i, j int) bool { return env.Units[i].Key < env.Units[j].Key })
	for _, u := range env.Units {
		rec, err := cfg.Recover(u.File)
		if err != nil {
			return nil, fmt.Errorf("eval: recover %s: %w", u.Key, err)
		}
		u.Exe = sim.Build(u.Key, rec, env.It)
	}
	return env, nil
}

// Query returns (building on first use) the query executable for a
// package version on an architecture.
func (env *Env) Query(pkg, version string, arch uir.Arch) (*sim.Exe, error) {
	key := fmt.Sprintf("%s|%s|%v", pkg, version, arch)
	if q, ok := env.queries[key]; ok {
		return q.exe, nil
	}
	exe, f, err := corpus.QueryExeIn(env.It, pkg, version, arch)
	if err != nil {
		return nil, err
	}
	env.queries[key] = &queryBuild{exe: exe, f: f}
	return exe, nil
}

// Verdict classifies one tool answer against ground truth.
type Verdict uint8

// Verdicts.
const (
	VerdictTP      Verdict = iota // matched the true procedure
	VerdictFP                     // matched a different procedure
	VerdictFN                     // reported nothing though the procedure is present
	VerdictTN                     // reported nothing and the procedure is absent
	VerdictPatched                // matched the true procedure in a fixed version
)

// classify scores a claimed match address for a CVE procedure within a
// unit. hasProc states whether the unit truly contains the procedure.
func classify(u *Unit, cve *corpus.CVE, matched bool, addr uint32) Verdict {
	trueAddr, hasProc := u.Truth[cve.Procedure]
	// libcurl 7.10 ships the deprecated predecessor of
	// curl_easy_unescape; a match to it is a true finding (the paper's
	// "deprecated procedures" discovery).
	depAddr, hasDep := uint32(0), false
	if cve.Procedure == "curl_easy_unescape" {
		depAddr, hasDep = u.Truth["curl_unescape"]
	}
	switch {
	case matched && hasProc && addr == trueAddr:
		if cve.VulnerableIn(u.PkgVersion) {
			return VerdictTP
		}
		return VerdictPatched
	case matched && hasDep && addr == depAddr:
		return VerdictTP
	case matched:
		return VerdictFP
	case hasProc && cve.VulnerableIn(u.PkgVersion):
		return VerdictFN
	default:
		return VerdictTN
	}
}

// measure runs f and returns its wall-clock duration.
func measure(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// DefaultSearch is the engine configuration shared by the experiments.
// The ratio threshold plays the role of the paper's semi-manual
// confirmation step: genuinely shared procedures keep ~45%+ of the
// query's canonical strands even across divergent tool chains, while
// coincidental matches between unrelated string-processing procedures
// plateau near 40%.
func DefaultSearch() *core.SearchOptions {
	return &core.SearchOptions{MinScore: 8, MinRatio: 0.42}
}

// WeightedSearch extends DefaultSearch with the statistical strand
// weighting trained over the corpus's own procedures (the paper trains a
// global context from randomly sampled procedures in the wild). Rare
// strands carry more evidence; ubiquitous loop idioms carry less, which
// suppresses spurious cross-package detections.
func (env *Env) WeightedSearch() *core.SearchOptions {
	var sample []*sim.Exe
	for _, u := range env.Units {
		sample = append(sample, u.Exe)
	}
	ctx := gitz.Train(sample)
	opt := DefaultSearch()
	opt.Weigher = ctx.Weight
	return opt
}
