package cfg_test

import (
	"slices"
	"strings"
	"testing"

	"firmup/internal/cfg"
	"firmup/internal/corpus"
	"firmup/internal/corpusindex"
	"firmup/internal/isa"
	"firmup/internal/obj"
	"firmup/internal/sim"
	"firmup/internal/strand"
	"firmup/internal/telemetry"
	"firmup/internal/uir"
)

// checkPlannedBuild asserts that sim.BuildWith over file's plan, each
// procedure lifted inside the build, indexes exactly what it indexes over
// cfg.Recover's executable lifted whole: the same procedures, names and
// entries, strand sets and markers, CFG shape and call graph, under one
// interner. Plan and Recover must fail alike. The recovered build must
// also agree with the inspection form (checkPipelineMatchesInspection).
func checkPlannedBuild(t *testing.T, name string, file *obj.File) {
	t.Helper()
	plan, perr := cfg.Plan(file, telemetry.Span{})
	rec, rerr := cfg.Recover(file)
	if (perr == nil) != (rerr == nil) {
		t.Fatalf("%s: plan error %v, recover error %v", name, perr, rerr)
	}
	if perr != nil {
		return
	}
	it := corpusindex.NewInterner()
	got := sim.BuildWith(name, plan, it, &sim.BuildConfig{Workers: 3})
	want := sim.BuildWith(name, rec, it, &sim.BuildConfig{Workers: 1})
	if len(got.Procs) != len(want.Procs) {
		t.Fatalf("%s: planned build has %d procedures, recovered %d", name, len(got.Procs), len(want.Procs))
	}
	for i, g := range got.Procs {
		w := want.Procs[i]
		switch {
		case g.Name != w.Name || g.Addr != w.Addr || g.Exported != w.Exported:
			t.Fatalf("%s: procedure %d is %s@%#x (exported %v), recovered %s@%#x (exported %v)",
				name, i, g.Name, g.Addr, g.Exported, w.Name, w.Addr, w.Exported)
		case !slices.Equal(g.Set.AppendHashes(nil), w.Set.AppendHashes(nil)) || !slices.Equal(g.Set.IDs, w.Set.IDs) || !slices.Equal(g.Markers, w.Markers):
			t.Fatalf("%s: %s: strands or markers differ from the recovered build", name, g.Name)
		case g.BlockCount != w.BlockCount || g.EdgeCount != w.EdgeCount || g.InstCount != w.InstCount:
			t.Fatalf("%s: %s: %d blocks, %d edges, %d instructions; recovered %d, %d, %d",
				name, g.Name, g.BlockCount, g.EdgeCount, g.InstCount, w.BlockCount, w.EdgeCount, w.InstCount)
		case !slices.Equal(g.Calls, w.Calls) || !slices.Equal(g.CalledBy, w.CalledBy):
			t.Fatalf("%s: %s: calls %v called by %v; recovered %v, %v", name, g.Name, g.Calls, g.CalledBy, w.Calls, w.CalledBy)
		}
	}
	checkPipelineMatchesInspection(t, name, rec)
}

// checkPipelineMatchesInspection asserts that the pipeline's sets, which
// carry dense IDs alone, agree procedure by procedure with the inspection
// form, strand.Extractor.Proc, under the same session: equal IDs, hashes
// derived through the session (strand.Set.AppendHashes)
// equal to Proc's Hashes, and equal markers. It runs under a live
// interner and under a query overlay of a frozen vocabulary opened from
// sorted slabs, as a shard's is, with 1 and with 4 workers each.
func checkPipelineMatchesInspection(t *testing.T, name string, rec *cfg.Recovered) {
	t.Helper()
	var abi *uir.ABI
	if be, err := isa.ByArch(rec.Arch); err == nil {
		abi = be.ABI()
	}
	opt := &strand.Options{ABI: abi, Sections: rec.File.Map()}
	// The frozen vocabulary holds every other procedure's strands, so the
	// overlay meets frozen and private hashes alike.
	seed := corpusindex.NewInterner()
	ex := strand.NewExtractor(opt, seed, nil)
	for i, p := range rec.Procs {
		if i%2 == 0 {
			ex.IDs(p.Blocks)
		}
	}
	ex.Release()
	vocab, _ := seed.Sorted()
	frozen, err := corpusindex.NewFrozen(vocab)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	sessions := []struct {
		name string
		new  func() strand.Interner
	}{
		{"live", func() strand.Interner { return corpusindex.NewInterner() }},
		{"query", func() strand.Interner { return corpusindex.NewQueryInterner(frozen) }},
	}
	for _, s := range sessions {
		for _, workers := range []int{1, 4} {
			it := s.new()
			exe := sim.BuildWith(name, rec, it, &sim.BuildConfig{Workers: workers})
			if len(exe.Procs) != len(rec.Procs) {
				t.Fatalf("%s: %s session, %d workers: built %d of %d recovered procedures", name, s.name, workers, len(exe.Procs), len(rec.Procs))
			}
			ex := strand.NewExtractor(opt, it, nil)
			for i, p := range exe.Procs {
				set, markers := ex.Proc(rec.Procs[i].Blocks)
				switch {
				case p.Set.Hashes != nil:
					t.Fatalf("%s: %s session, %d workers: %s: the pipeline's set carries hashes", name, s.name, workers, p.Name)
				case !slices.Equal(p.Set.IDs, set.IDs):
					t.Fatalf("%s: %s session, %d workers: %s: IDs %v, Proc's %v", name, s.name, workers, p.Name, p.Set.IDs, set.IDs)
				case !slices.Equal(p.Set.AppendHashes(nil), set.Hashes):
					t.Fatalf("%s: %s session, %d workers: %s: derived hashes differ from Proc's", name, s.name, workers, p.Name)
				case !slices.Equal(p.Markers, markers):
					t.Fatalf("%s: %s session, %d workers: %s: markers %v, Proc's %v", name, s.name, workers, p.Name, p.Markers, markers)
				}
			}
			ex.Release()
		}
	}
}

// TestPlannedBuildMatchesRecovered checks the planned build against the
// recovered one on every distinct executable of the default corpus, as
// shipped (stripped), and on every registry query.
func TestPlannedBuildMatchesRecovered(t *testing.T) {
	c, err := corpus.Build(corpus.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[*obj.File]bool{}
	for _, bi := range c.Images {
		for _, e := range bi.Exes {
			if !seen[e.File] {
				seen[e.File] = true
				checkPlannedBuild(t, e.Vendor+"/"+e.Path+"@"+e.PkgVersion+"/"+e.Arch.String(), e.File)
			}
		}
	}
	for _, q := range registryQueries(t) {
		file, err := obj.Read(q.data)
		if err != nil {
			t.Fatal(err)
		}
		checkPlannedBuild(t, q.name, file)
	}
}

// unliftableCallee rewrites one registry query so that a procedure in
// the middle of the text, which another procedure calls, fails to lift:
// its second instruction becomes a PowerPC conditional branch on a cr0
// bit the lifter does not model, which decodes (so no extent moves) but
// cannot be lifted. It returns the damaged executable's bytes and the
// callee's entry.
func unliftableCallee(tb testing.TB) ([]byte, uint32) {
	tb.Helper()
	for _, q := range registryQueries(tb) {
		if q.name != "CVE-2012-2841_libexif_ppc32" {
			continue
		}
		file, err := obj.Read(q.data)
		if err != nil {
			tb.Fatal(err)
		}
		rec, err := cfg.Recover(file)
		if err != nil {
			tb.Fatal(err)
		}
		called := map[uint32]bool{}
		for _, p := range rec.Procs {
			for _, in := range p.Insts {
				if in.Kind == isa.KindCall && in.Target != p.Entry {
					called[in.Target] = true
				}
			}
		}
		for _, p := range rec.Procs[1 : len(rec.Procs)-1] {
			if !called[p.Entry] || len(p.Insts) < 2 || p.Insts[1].Kind != isa.KindNormal {
				continue
			}
			const bc, boTrue, unknownBit, next = 16, 12, 31, 4
			w := uint32(bc<<26 | boTrue<<21 | unknownBit<<16 | next)
			text := file.Text()
			off := p.Insts[1].Addr - text.Addr
			text.Data[off], text.Data[off+1], text.Data[off+2], text.Data[off+3] = byte(w>>24), byte(w>>16), byte(w>>8), byte(w)
			return file.Bytes(), p.Entry
		}
		tb.Fatal("no called procedure in the middle of the text")
	}
	tb.Fatal("no PowerPC libexif registry query")
	return nil, 0
}

// TestUnliftableCalleeDropped pins what the fuzz seed from
// unliftableCallee exercises: the plan holds the callee, both builds drop
// it, and no procedure calls it any more.
func TestUnliftableCalleeDropped(t *testing.T) {
	data, entry := unliftableCallee(t)
	file, err := obj.Read(data)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := cfg.Plan(file, telemetry.Span{})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(plan.Procs, func(p *cfg.Proc) bool { return p.Entry == entry }) {
		t.Fatalf("the plan has no procedure at %#x", entry)
	}
	exe := sim.BuildWith("damaged", plan, corpusindex.NewInterner(), &sim.BuildConfig{Workers: 2})
	if len(exe.Procs) != len(plan.Procs)-1 {
		t.Fatalf("built %d of %d planned procedures, want all but the callee", len(exe.Procs), len(plan.Procs))
	}
	for i, p := range exe.Procs {
		if p.Addr == entry {
			t.Fatalf("the unliftable procedure at %#x was indexed", entry)
		}
		for _, c := range p.Calls {
			if c < 0 || c >= len(exe.Procs) || !slices.Contains(exe.Procs[c].CalledBy, i) {
				t.Fatalf("%s: call to %d is not a surviving procedure's caller entry", p.Name, c)
			}
		}
	}
	checkPlannedBuild(t, "damaged", file)
}

// TestPlannedBuildSpans pins the pipeline's span shape: cfg.recover holds
// the sweep and nothing else, and lifting is timed inside sim.build.
func TestPlannedBuildSpans(t *testing.T) {
	q := registryQueries(t)[0]
	file, err := obj.Read(q.data)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	root := telemetry.Root(reg, nil)
	plan, err := cfg.Plan(file, root)
	if err != nil {
		t.Fatal(err)
	}
	exe := sim.BuildWith(q.name, plan, corpusindex.NewInterner(), &sim.BuildConfig{Workers: 2, Span: root})
	snap := reg.Snapshot()
	var stages []string
	for name := range snap.Stages {
		stages = append(stages, name)
	}
	slices.Sort(stages)
	if got := strings.Join(stages, " "); got != "cfg.recover cfg.sweep sim.build" {
		t.Errorf("stages %q, want cfg.recover cfg.sweep sim.build", got)
	}
	var blocks, insts int64
	for _, p := range exe.Procs {
		blocks += int64(p.BlockCount)
		insts += int64(p.InstCount)
	}
	if c := snap.Counters; c["cfg.procs"] != int64(len(exe.Procs)) || c["cfg.blocks"] != blocks || c["cfg.insts"] != insts {
		t.Errorf("counted %d procedures, %d blocks, %d instructions; built %d, %d, %d",
			c["cfg.procs"], c["cfg.blocks"], c["cfg.insts"], len(exe.Procs), blocks, insts)
	}
}
