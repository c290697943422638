package corpus

import (
	"errors"
	"fmt"

	"firmup/internal/compiler"
	"firmup/internal/image"
	"firmup/internal/isa"
	"firmup/internal/obj"
	"firmup/internal/uir"
)

// BuiltExe is one executable inside a built image, with ground truth.
type BuiltExe struct {
	Path       string
	Pkg        string
	PkgVersion string
	Arch       uir.Arch
	Vendor     string
	// File is the (stripped) executable as shipped in the image.
	File *obj.File
	// Truth maps original procedure names to their addresses —
	// information the analyst does not have, used for exact scoring.
	Truth map[string]uint32
}

// BuiltImage is one firmware image plus its ground truth.
type BuiltImage struct {
	Image     *image.Image
	Vendor    string
	Device    string
	FwVersion string
	// Latest marks the newest release of the device.
	Latest bool
	Exes   []BuiltExe
}

// Corpus is the generated evaluation corpus.
type Corpus struct {
	Vendors []Vendor
	Images  []*BuiltImage
	// builds caches compiled executables by build key, mirroring how the
	// exact same binary ships in many images.
	builds map[string]*builtUnit
}

type builtUnit struct {
	file  *obj.File
	truth map[string]uint32
}

// Build generates the corpus for a scale: every vendor, device and
// firmware release, with every package compiled under the vendor tool
// chain, stripped, and packed into images.
func Build(sc Scale) (*Corpus, error) {
	c := &Corpus{Vendors: Vendors(sc), builds: map[string]*builtUnit{}}
	if err := c.stream(sc, func(bi *BuiltImage) error {
		c.Images = append(c.Images, bi)
		return nil
	}); err != nil {
		return nil, err
	}
	return c, nil
}

// ErrStop, returned by a Stream callback, ends the stream early
// without error.
var ErrStop = errors.New("corpus: stop streaming")

// Stream generates the corpus image-by-image, handing each built image
// to fn and retaining none of them — compiled units are still cached
// and shared across images (the same binary shipping in many images),
// but peak memory stays bounded by the callback's own retention
// instead of the corpus size. Build order, and therefore every random
// corpus decision, is identical to Build at the same scale. fn may
// return ErrStop to end the stream early.
func Stream(sc Scale, fn func(*BuiltImage) error) error {
	c := &Corpus{Vendors: Vendors(sc), builds: map[string]*builtUnit{}}
	err := c.stream(sc, fn)
	if errors.Is(err, ErrStop) {
		return nil
	}
	return err
}

// ScaleForImages returns a scale generating at least n images (each
// device ships at least one release, so 4 vendors x devices-per-vendor
// is a floor); pair with Stream and ErrStop to take exactly n.
func ScaleForImages(n int) Scale {
	if n < 1 {
		n = 1
	}
	return Scale{DevicesPerVendor: (n + 3) / 4, MaxReleases: 2, Seed: 1}
}

// stream is the single generation loop behind Build and Stream. The
// rng consumption order here is the corpus definition: any reordering
// changes every generated corpus.
func (c *Corpus) stream(sc Scale, fn func(*BuiltImage) error) error {
	rng := isa.NewRNG(sc.Seed ^ 0xBADC0DE)
	built := 0
	for vi := range c.Vendors {
		v := &c.Vendors[vi]
		for _, dev := range v.Devices {
			for ri, rel := range dev.Releases {
				if sc.Images > 0 && built == sc.Images {
					return nil
				}
				built++
				im := &image.Image{Vendor: v.Name, Device: dev.Model, Version: rel.Version}
				bi := &BuiltImage{
					Image:     im,
					Vendor:    v.Name,
					Device:    dev.Model,
					FwVersion: rel.Version,
					Latest:    ri == len(dev.Releases)-1,
				}
				for _, pkg := range sortedPkgs(rel.Packages) {
					ver := rel.Packages[pkg]
					unit, err := c.buildUnit(v, dev.Arch, pkg, ver)
					if err != nil {
						return err
					}
					path := "bin/" + pkg
					if len(PackageExports(pkg)) > 0 {
						path = "lib/" + pkg + ".so"
					}
					im.AddExecutable(path, unit.file)
					bi.Exes = append(bi.Exes, BuiltExe{
						Path: path, Pkg: pkg, PkgVersion: ver,
						Arch: dev.Arch, Vendor: v.Name,
						File: unit.file, Truth: unit.truth,
					})
					// A few files of unrelated content, as real images have.
					if rng.Intn(100) < 30 {
						im.Files = append(im.Files, image.FileEntry{
							Path: fmt.Sprintf("etc/%s.conf", pkg),
							Data: []byte("# configuration for " + pkg + "\n"),
						})
					}
				}
				if err := fn(bi); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func sortedPkgs(m map[string]string) []string {
	var names []string
	for _, n := range PackageNames() {
		if _, ok := m[n]; ok {
			names = append(names, n)
		}
	}
	return names
}

// buildUnit compiles (or fetches from cache) one package build.
func (c *Corpus) buildUnit(v *Vendor, arch uir.Arch, pkg, ver string) (*builtUnit, error) {
	key := fmt.Sprintf("%s|%v|%s|%s", v.Name, arch, pkg, ver)
	if u, ok := c.builds[key]; ok {
		return u, nil
	}
	src, err := PackageSource(pkg, ver)
	if err != nil {
		return nil, err
	}
	prof := v.Profile()
	mpkg, err := compiler.CompileToMIR(src, prof)
	if err != nil {
		return nil, fmt.Errorf("corpus: %s@%s for %s: %w", pkg, ver, v.Name, err)
	}
	be, err := isa.ByArch(arch)
	if err != nil {
		return nil, err
	}
	art, err := be.Generate(mpkg, isa.Options{
		TextBase:       prof.LayoutBase,
		RegSeed:        prof.RegSeed,
		SchedSeed:      prof.SchedSeed,
		MulByShift:     prof.MulByShift,
		ShuffleProcs:   v.Shuffle,
		FillDelaySlots: v.FillDelay,
	})
	if err != nil {
		return nil, fmt.Errorf("corpus: generate %s@%s/%v: %w", pkg, ver, arch, err)
	}
	f := obj.FromArtifact(art)
	truth := map[string]uint32{}
	for _, s := range art.Procs {
		truth[s.Name] = s.Addr
	}
	f.MarkExported(PackageExports(pkg)...)
	f.Strip()
	// A slice of real firmware ships executables with a wrong header
	// class byte (the paper's MIPS64-with-ELFCLASS32 observation); the
	// pipeline must tolerate them. Inject deterministically.
	if seedOf(key)%7 == 0 {
		f.BadClass = true
	}
	c.builds[key] = &builtUnit{file: f, truth: truth}
	return c.builds[key], nil
}

// QueryExe compiles the analyst's query executable: the package at the
// CVE's query version, built with the default gcc-5.2-O2-style profile
// for the given architecture, symbols intact. Its Bytes are what an
// analyst uploads; analysis is the caller's session's job.
func QueryExe(pkg, version string, arch uir.Arch) (*obj.File, error) {
	src, err := PackageSource(pkg, version)
	if err != nil {
		return nil, err
	}
	prof := compiler.DefaultQueryProfile(arch)
	mpkg, err := compiler.CompileToMIR(src, prof)
	if err != nil {
		return nil, err
	}
	be, err := isa.ByArch(arch)
	if err != nil {
		return nil, err
	}
	art, err := be.Generate(mpkg, isa.Options{
		TextBase:   prof.LayoutBase,
		RegSeed:    prof.RegSeed,
		SchedSeed:  prof.SchedSeed,
		MulByShift: prof.MulByShift,
	})
	if err != nil {
		return nil, err
	}
	return obj.FromArtifact(art), nil
}

// Stats summarizes a corpus.
type Stats struct {
	Images     int
	Exes       int
	Procedures int
}

// Stat counts the corpus's contents (after recovery).
func (c *Corpus) Stat() Stats {
	s := Stats{Images: len(c.Images)}
	seen := map[*obj.File]int{}
	for _, bi := range c.Images {
		for i := range bi.Exes {
			s.Exes++
			f := bi.Exes[i].File
			if n, ok := seen[f]; ok {
				s.Procedures += n
				continue
			}
			n := len(bi.Exes[i].Truth)
			seen[f] = n
			s.Procedures += n
		}
	}
	return s
}
