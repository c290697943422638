package corpus

import (
	"testing"

	"firmup/internal/cfg"
	"firmup/internal/image"
	_ "firmup/internal/isa/arm"
	_ "firmup/internal/isa/mips"
	_ "firmup/internal/isa/ppc"
	_ "firmup/internal/isa/x86"
	"firmup/internal/uir"
)

func TestBuildDefaultScale(t *testing.T) {
	c, err := Build(DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Images) == 0 {
		t.Fatal("no images built")
	}
	st := c.Stat()
	if st.Exes < len(c.Images)*2 {
		t.Errorf("stats = %+v: too few executables", st)
	}
	if st.Procedures < 500 {
		t.Errorf("stats = %+v: too few procedures", st)
	}
	// All shipped executables are stripped, with exports retained for
	// library packages.
	for _, bi := range c.Images {
		for _, e := range bi.Exes {
			if !e.File.Stripped {
				t.Fatalf("%s/%s not stripped", bi.Device, e.Path)
			}
			if e.Pkg == "libcurl" {
				found := false
				for _, s := range e.File.Syms {
					if s.Exported {
						found = true
					}
				}
				if !found {
					t.Errorf("libcurl build lost its exports")
				}
			}
			if len(e.Truth) < 10 {
				t.Errorf("%s: truth table too small (%d)", e.Path, len(e.Truth))
			}
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	a, err := Build(DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Images) != len(b.Images) {
		t.Fatal("image counts differ")
	}
	for i := range a.Images {
		pa := a.Images[i].Image.Pack(false)
		pb := b.Images[i].Image.Pack(false)
		if len(pa) != len(pb) {
			t.Fatalf("image %d differs across builds", i)
		}
		for j := range pa {
			if pa[j] != pb[j] {
				t.Fatalf("image %d byte %d differs", i, j)
			}
		}
	}
}

// The full crawl path: pack each image, unpack it, and recover the same
// executables.
func TestPackUnpackRoundTripCorpus(t *testing.T) {
	c, err := Build(DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	bi := c.Images[0]
	packed := bi.Image.Pack(true)
	im, err := image.Unpack(packed)
	if err != nil {
		t.Fatal(err)
	}
	exes := im.Executables()
	if len(exes) != len(bi.Exes) {
		t.Fatalf("unpacked %d executables, want %d", len(exes), len(bi.Exes))
	}
}

// The NETGEAR tool chain disables OPIE: its wget builds must lack
// skey_resp while the query build contains it — the paper's structural
// variance anecdote.
func TestNetgearDisablesOpie(t *testing.T) {
	c, err := Build(DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	checked := false
	for _, bi := range c.Images {
		for _, e := range bi.Exes {
			if e.Pkg != "wget" {
				continue
			}
			_, has := e.Truth["skey_resp"]
			if e.Vendor == "NETGEAR" {
				checked = true
				if has {
					t.Error("NETGEAR wget must omit skey_resp (--disable-opie)")
				}
			} else if e.Vendor == "TP-Link" || e.Vendor == "ASUS" || e.Vendor == "D-Link" {
				if !has {
					t.Errorf("%s wget unexpectedly omits skey_resp", e.Vendor)
				}
			}
		}
	}
	if !checked {
		t.Skip("no NETGEAR wget in the default-scale corpus")
	}
	q, err := QueryExe("wget", "1.15", uir.ArchMIPS32)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := q.NamedSym("skey_resp"); !ok {
		t.Error("query build must include skey_resp")
	}
}

func TestQueryExeHasCVEProcedures(t *testing.T) {
	for _, cve := range CVEs {
		f, err := QueryExe(cve.Package, cve.QueryVersion, uir.ArchMIPS32)
		if err != nil {
			t.Fatalf("%s: %v", cve.ID, err)
		}
		rec, err := cfg.Recover(f)
		if err != nil {
			t.Fatalf("%s: %v", cve.ID, err)
		}
		if rec.Proc(cve.Procedure) == nil {
			t.Errorf("%s: query lacks %s", cve.ID, cve.Procedure)
		}
		if f.Stripped {
			t.Errorf("%s: query must keep symbols", cve.ID)
		}
	}
}

func TestShippedExeRecoversStripped(t *testing.T) {
	c, err := Build(DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	e := &c.Images[0].Exes[0]
	rec, err := cfg.Recover(e.File)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Procs) < len(e.Truth)*8/10 {
		t.Errorf("recovered %d procs, truth has %d", len(rec.Procs), len(e.Truth))
	}
}

func TestVendorsShape(t *testing.T) {
	vs := Vendors(DefaultScale())
	if len(vs) != 4 {
		t.Fatalf("vendors = %d", len(vs))
	}
	for _, v := range vs {
		if len(v.Devices) != DefaultScale().DevicesPerVendor {
			t.Errorf("%s: %d devices", v.Name, len(v.Devices))
		}
		for _, d := range v.Devices {
			if len(d.Releases) == 0 {
				t.Errorf("%s/%s has no releases", v.Name, d.Model)
			}
			for _, r := range d.Releases {
				if len(r.Packages) < 1 {
					t.Errorf("%s/%s %s ships no packages", v.Name, d.Model, r.Version)
				}
			}
		}
	}
	// NETGEAR must have OPIE disabled.
	if vs[0].Name != "NETGEAR" || vs[0].Features["OPIE"] {
		t.Error("NETGEAR feature set wrong")
	}
}

// Some units carry the wrong-header-class quirk and must still analyze.
func TestBadClassUnitsAnalyzable(t *testing.T) {
	c, err := Build(DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	bad := 0
	for _, bi := range c.Images {
		for i := range bi.Exes {
			e := &bi.Exes[i]
			if !e.File.BadClass {
				continue
			}
			bad++
			rec, err := cfg.Recover(e.File)
			if err != nil {
				t.Errorf("%s: bad-class executable failed analysis: %v", e.Path, err)
				continue
			}
			if len(rec.Procs) == 0 {
				t.Errorf("%s: bad-class executable recovered no procedures", e.Path)
			}
		}
	}
	if bad == 0 {
		t.Error("corpus injected no bad-class executables")
	}
}
