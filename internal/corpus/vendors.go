package corpus

import (
	"fmt"

	"firmup/internal/compiler"
	"firmup/internal/isa"
	"firmup/internal/uir"
)

// Vendor models one device maker: a house tool chain (the source of the
// paper's "unique build tool chains" syntactic variance) and a device
// line-up.
type Vendor struct {
	Name string
	// Tool-chain knobs applied to every build of this vendor.
	OptLevel int
	// InlineThreshold sets the vendor compiler's inlining budget — the
	// dominant source of procedure-size divergence across builds (and of
	// the paper's "very large procedures mistakenly matched due to their
	// size" effect).
	InlineThreshold int
	RegSeed         uint64
	SchedSeed       uint64
	MulByShift      bool
	Shuffle         bool
	// FillDelay selects delay-slot filling on MIPS (the paper's lifting
	// caveat only manifests with tool chains that schedule delay slots).
	FillDelay  bool
	LayoutBase uint32
	// Features is the vendor's configure-time feature set. NETGEAR
	// builds wget with --disable-opie, per the paper's anecdote.
	Features map[string]bool
	Devices  []Device
}

// Device is one product: an architecture and a firmware release history.
type Device struct {
	Model    string
	Arch     uir.Arch
	Releases []Release
}

// Release is one firmware version: the package versions it ships.
type Release struct {
	Version  string
	Packages map[string]string
}

// Profile assembles the vendor's compiler profile.
func (v *Vendor) Profile() compiler.Profile {
	return compiler.Profile{
		Name:            "vendor-" + v.Name,
		OptLevel:        v.OptLevel,
		InlineThreshold: v.InlineThreshold,
		Features:        v.Features,
		RegSeed:         v.RegSeed,
		SchedSeed:       v.SchedSeed,
		MulByShift:      v.MulByShift,
		LayoutBase:      v.LayoutBase,
	}
}

// Scale sizes a generated corpus.
type Scale struct {
	// DevicesPerVendor is the device-line length per vendor.
	DevicesPerVendor int
	// MaxReleases bounds firmware versions per device.
	MaxReleases int
	// Seed drives all random corpus decisions.
	Seed uint64
	// Images, when positive, keeps the first Images images the scale
	// generates and builds no more.
	Images int
}

// DefaultScale is used by tests: small but structurally complete.
func DefaultScale() Scale { return Scale{DevicesPerVendor: 2, MaxReleases: 2, Seed: 1} }

// EvalScale approximates the paper's setting at laptop size.
func EvalScale() Scale { return Scale{DevicesPerVendor: 6, MaxReleases: 3, Seed: 1} }

// BenchScale is the corpus bench/ serves: ScaleForImages(128), its first
// 128 images.
func BenchScale() Scale {
	sc := ScaleForImages(128)
	sc.Images = 128
	return sc
}

// ScaleByName returns the scale a command line names: default, eval or
// bench.
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "default":
		return DefaultScale(), nil
	case "eval":
		return EvalScale(), nil
	case "bench":
		return BenchScale(), nil
	}
	return Scale{}, fmt.Errorf("unknown scale %q (valid: default, eval, bench)", name)
}

// archCycle matches the paper's architecture prevalence: MIPS dominates
// firmware, then ARM, then PPC, then x86.
var archCycle = []uir.Arch{
	uir.ArchMIPS32, uir.ArchMIPS32, uir.ArchARM32, uir.ArchMIPS32,
	uir.ArchARM32, uir.ArchPPC32, uir.ArchMIPS32, uir.ArchX86,
}

// Vendors generates the deterministic vendor population for a scale.
func Vendors(sc Scale) []Vendor {
	type vseed struct {
		name        string
		opt         int
		inline      int
		mulShift    bool
		shuffle     bool
		layout      uint32
		disableOpie bool
		fillDelay   bool
	}
	seeds := []vseed{
		{name: "NETGEAR", opt: 2, inline: 30, mulShift: true, shuffle: false, layout: 0x440000, disableOpie: true, fillDelay: true},
		{name: "D-Link", opt: 1, inline: 0, mulShift: false, shuffle: true, layout: 0x10000},
		{name: "ASUS", opt: 2, inline: 6, mulShift: false, shuffle: true, layout: 0x80100000},
		{name: "TP-Link", opt: 3, inline: 14, mulShift: true, shuffle: false, layout: 0x400000, fillDelay: true},
	}
	rng := isa.NewRNG(sc.Seed ^ 0xC0FFEE)
	var out []Vendor
	for vi, vs := range seeds {
		v := Vendor{
			Name:            vs.name,
			OptLevel:        vs.opt,
			InlineThreshold: vs.inline,
			RegSeed:         uint64(vi*37 + 11),
			SchedSeed:       uint64(vi*53 + 7),
			MulByShift:      vs.mulShift,
			Shuffle:         vs.shuffle,
			LayoutBase:      vs.layout,
			Features:        map[string]bool{"OPIE": !vs.disableOpie, "SSL": vi%2 == 0, "COOKIES": true, "IPV6": vi%3 != 0},
		}
		for d := 0; d < sc.DevicesPerVendor; d++ {
			dev := Device{
				Model: fmt.Sprintf("%s-%c%d00", vs.name, 'R'+byte(vi), d+1),
				Arch:  archCycle[(vi*sc.DevicesPerVendor+d)%len(archCycle)],
			}
			nrel := 1 + rng.Intn(sc.MaxReleases)
			// Pick the device's package set once; versions may advance
			// across releases, but often do not — the paper found
			// firmware updates frequently ship stale executables.
			pkgSet := devicePackages(rng)
			// Deterministic package order: map iteration would make the
			// corpus differ from run to run.
			var pkgList []string
			for _, n := range PackageNames() {
				if pkgSet[n] {
					pkgList = append(pkgList, n)
				}
			}
			verIdx := map[string]int{}
			for _, p := range pkgList {
				verIdx[p] = rng.Intn(len(PackageVersions(p)))
			}
			for r := 0; r < nrel; r++ {
				rel := Release{
					Version:  fmt.Sprintf("1.%d.%d", r, rng.Intn(10)),
					Packages: map[string]string{},
				}
				for _, p := range pkgList {
					vers := PackageVersions(p)
					// 40% chance a release bumps the package version.
					if r > 0 && rng.Intn(100) < 40 && verIdx[p] < len(vers)-1 {
						verIdx[p]++
					}
					rel.Packages[p] = vers[verIdx[p]]
				}
				dev.Releases = append(dev.Releases, rel)
			}
			v.Devices = append(v.Devices, dev)
		}
		out = append(out, v)
	}
	return out
}

// devicePackages selects which packages a device firmware ships.
func devicePackages(rng *isa.RNG) map[string]bool {
	names := PackageNames()
	out := map[string]bool{}
	// Every device gets 3-6 of the 7 packages; wget and libcurl are very
	// common, matching the paper's hit counts.
	out["libcurl"] = true
	if rng.Intn(100) < 80 {
		out["wget"] = true
	}
	for _, n := range names {
		if out[n] {
			continue
		}
		if rng.Intn(100) < 45 {
			out[n] = true
		}
		if len(out) >= 6 {
			break
		}
	}
	return out
}
