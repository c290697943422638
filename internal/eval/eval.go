// Package eval implements the paper's evaluation: the wild CVE hunt
// (Table 2), the labeled-precision comparisons against the BinDiff-style
// and GitZ-style baselines (Figs. 6 and 8), the game-step distribution
// and no-game ablation (Fig. 9), and the demonstration artifacts
// (Table 1 game course, Fig. 5 call graphs, Fig. 1/3 strand forms).
package eval

import (
	"fmt"
	"slices"
	"sort"

	"firmup"
	"firmup/internal/corpus"
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
	// Exe is the unit as Env.Sealed holds it: recovered, stripped, under
	// the sealed vocabulary.
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

// Env is the prepared evaluation environment: the corpus with its ground
// truth, the same corpus analysed once and sealed — the form firmupd
// serves — and its unique units. Units and queries are views of that one
// session, so the matchers the figures compare take the interned fast
// paths.
type Env struct {
	Corpus *corpus.Corpus
	// Sealed is every image of Corpus, packed, opened by one analyzer
	// session and sealed; Sealed.Images() is in Corpus.Images order.
	Sealed *firmup.SealedCorpus
	Units  []*Unit
	// queries caches the analysed query builds by pkg|version|arch.
	queries map[string]*firmup.Executable
}

// Prepare builds the corpus and analyses it once, through the facade.
func Prepare(sc corpus.Scale) (*Env, error) {
	c, err := corpus.Build(sc)
	if err != nil {
		return nil, err
	}
	a := firmup.NewAnalyzer(nil)
	imgs := make([]*firmup.Image, len(c.Images))
	for ii, bi := range c.Images {
		img, err := a.OpenImage(bi.Image.Pack(false))
		if err == nil && len(img.Skipped) > 0 {
			err = fmt.Errorf("%s: %w", img.Skipped[0].Path, img.Skipped[0].Err)
		}
		if err != nil {
			return nil, fmt.Errorf("eval: image %d (%s %s): %w", ii, bi.Device, bi.FwVersion, err)
		}
		imgs[ii] = img
	}
	sealed, err := a.Seal(imgs...)
	if err != nil {
		return nil, err
	}
	env := &Env{Corpus: c, Sealed: sealed, queries: map[string]*firmup.Executable{}}
	byFile := map[*obj.File]*Unit{}
	for ii, bi := range c.Images {
		for ei := range bi.Exes {
			e := &bi.Exes[ei]
			u, ok := byFile[e.File]
			if !ok {
				x := sealed.Images()[ii].Executable(e.Path)
				if x == nil {
					return nil, fmt.Errorf("eval: image %d (%s %s) was sealed without %s", ii, bi.Device, bi.FwVersion, e.Path)
				}
				u = &Unit{
					Key:        fmt.Sprintf("%s|%s@%s|%v", e.Vendor, e.Pkg, e.PkgVersion, e.Arch),
					Pkg:        e.Pkg,
					PkgVersion: e.PkgVersion,
					Vendor:     e.Vendor,
					Arch:       e.Arch,
					File:       e.File,
					Truth:      e.Truth,
					Exe:        x.Sim(),
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
	return env, nil
}

// query returns (building and analysing on first use) the query
// executable for a package version on an architecture, analysed against
// the sealed corpus as an upload to firmupd is.
func (env *Env) query(pkg, version string, arch uir.Arch) (*firmup.Executable, error) {
	key := fmt.Sprintf("%s|%s|%v", pkg, version, arch)
	if q, ok := env.queries[key]; ok {
		return q, nil
	}
	f, err := corpus.QueryExe(pkg, version, arch)
	if err != nil {
		return nil, fmt.Errorf("eval: build query %s@%s/%v: %w", pkg, version, arch, err)
	}
	q, err := env.Sealed.AnalyzeQuery(f.Bytes(), nil)
	if err != nil {
		return nil, fmt.Errorf("eval: analyze query %s@%s/%v: %w", pkg, version, arch, err)
	}
	env.queries[key] = q
	return q, nil
}

// Query is query in the engine's own form, for the matcher comparisons.
func (env *Env) Query(pkg, version string, arch uir.Arch) (*sim.Exe, error) {
	q, err := env.query(pkg, version, arch)
	if err != nil {
		return nil, err
	}
	return q.Sim(), nil
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

// correctAddrs returns the addresses in e that are correct locations of
// proc: the procedure itself, in a vulnerable or a patched version alike,
// and its deprecated predecessor (libcurl 7.10 ships curl_unescape for
// curl_easy_unescape, which the paper counts as a true discovery).
func correctAddrs(e *corpus.BuiltExe, proc string) []uint32 {
	var out []uint32
	if a, ok := e.Truth[proc]; ok {
		out = append(out, a)
	}
	if a, ok := e.Truth["curl_unescape"]; ok && proc == "curl_easy_unescape" {
		out = append(out, a)
	}
	return out
}

// classify scores a claimed match address for a CVE procedure within a
// shipped executable against its ground truth: a correct location is a
// true finding, unless it is the procedure itself in a fixed version.
func classify(u *corpus.BuiltExe, cve *corpus.CVE, matched bool, addr uint32) Verdict {
	trueAddr, hasProc := u.Truth[cve.Procedure]
	switch {
	case matched && hasProc && addr == trueAddr && !cve.VulnerableIn(u.PkgVersion):
		return VerdictPatched
	case matched && slices.Contains(correctAddrs(u, cve.Procedure), addr):
		return VerdictTP
	case matched:
		return VerdictFP
	case hasProc && cve.VulnerableIn(u.PkgVersion):
		return VerdictFN
	default:
		return VerdictTN
	}
}
