package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"firmup"
	"firmup/internal/cfg"
	"firmup/internal/corpusindex"
	"firmup/internal/isa"
	"firmup/internal/obj"
	"firmup/internal/sim"
	"firmup/internal/snapshot"
	"firmup/internal/strand"
)

// perLayerDefs lists every per-layer metric, in layer order. They have
// no bound; Exact marks the counts that must repeat between two runs of
// one build on one seed.
var perLayerDefs = []metricDef{
	{Name: "serve.server_us", Unit: "us"},
	{Name: "serve.overhead_us", Unit: "us"},
	{Name: "serve.resp_bytes", Unit: "B"},
	{Name: "serve.rejected", Unit: "count"},
	{Name: "firmup.analyze_us", Unit: "us"},
	{Name: "firmup.analyze_allocs", Unit: "count"},
	{Name: "firmup.search_us", Unit: "us"},
	{Name: "firmup.search_allocs", Unit: "count"},
	{Name: "firmup.open_us", Unit: "us"},
	{Name: "firmup.first_touch_us", Unit: "us"},
	{Name: "firmup.ready_ms", Unit: "ms"},
	{Name: "firmup.seal_us", Unit: "us"},
	{Name: "firmup.write_shards_us", Unit: "us"},
	{Name: "obj.read_us", Unit: "us"},
	{Name: "obj.bytes", Unit: "B", Exact: true},
	{Name: "image.unpack_us", Unit: "us"},
	{Name: "image.exes", Unit: "count", Exact: true},
	{Name: "cfg.recover_us", Unit: "us"},
	{Name: "cfg.insts", Unit: "count", Exact: true},
	{Name: "cfg.blocks", Unit: "count", Exact: true},
	{Name: "strand.extract_us", Unit: "us"},
	{Name: "strand.strands", Unit: "count", Exact: true},
	{Name: "corpusindex.intern_us", Unit: "us"},
	{Name: "corpusindex.novel_ratio", Unit: "ratio", HigherBetter: false},
	{Name: "corpusindex.examined_ratio", Unit: "ratio"},
	{Name: "corpusindex.fanout", Unit: "count"},
	{Name: "sim.build_us", Unit: "us"},
	{Name: "sim.procs", Unit: "count", Exact: true},
	{Name: "core.match_us", Unit: "us"},
	{Name: "core.examined", Unit: "count", Exact: true},
	{Name: "core.accept_ratio", Unit: "ratio", HigherBetter: true},
	{Name: "core.game_steps", Unit: "count", Exact: true},
	{Name: "core.batch_ratio", Unit: "ratio"},
	{Name: "snapshot.corpus_bytes", Unit: "B", Exact: true},
	{Name: "proc.cpu_user_ms", Unit: "ms"},
	{Name: "proc.cpu_sys_ms", Unit: "ms"},
	{Name: "proc.rss_end_mb", Unit: "MB"},
	{Name: "bench.trace_overhead_ratio", Unit: "ratio"},
}

// tracedResult is one traced run: the spans, and the per-layer metric
// values reduced from them. A layer the workload never calls reads 0.
type tracedResult struct {
	tally
	tracer *tracer
	vals   map[string]float64
	Absent []string
	// LayerSumUs is the per-request sum of the front-end layers' self
	// times plus the search; FacadeUs is AnalyzeQueryWith plus the
	// search as the facade ran them. The two should agree.
	LayerSumUs float64
	FacadeUs   float64
	// LayerRatio is the median over requests of the one over the other.
	LayerRatio float64
}

func newTraced() *tracedResult {
	return &tracedResult{tracer: newTracer(), vals: map[string]float64{}}
}

// metrics returns every per-layer metric, by name.
func (tr *tracedResult) metrics() map[string]metric {
	out := make(map[string]metric, len(perLayerDefs))
	for _, d := range perLayerDefs {
		out[d.Name] = metric{tr.vals[d.Name], d.Unit}
	}
	return out
}

// timedInterner wraps an interner and sums the time spent inside it.
// It lives on the replay goroutine only (the replay builds with one
// worker), so plain fields suffice.
type timedInterner struct {
	inner strand.BulkInterner
	total time.Duration
	calls int64
}

func (t *timedInterner) Intern(h uint64) uint32 {
	t0 := time.Now()
	id := t.inner.Intern(h)
	t.total += time.Since(t0)
	t.calls++
	return id
}

func (t *timedInterner) InternAll(hashes []uint64, out []uint32) []uint32 {
	t0 := time.Now()
	out = t.inner.InternAll(hashes, out)
	t.total += time.Since(t0)
	t.calls++
	return out
}

// rebasedTimedInterner is a timedInterner over a per-request overlay of
// the frozen vocabulary; like the overlay it wraps, it is Rebased.
type rebasedTimedInterner struct {
	timedInterner
	base strand.Interner
}

func (r *rebasedTimedInterner) BaseInterner() strand.Interner { return r.base }

// internerSet is what the front-end replay analyses one executable
// under: one interner for the sim.BuildWith pass and one for the pass
// that times strand extraction alone, each with its clock.
type internerSet struct {
	build, extract strand.Interner
	buildClock     *timedInterner
	extractClock   *timedInterner
	// internSpan names the span the extract pass's interning is recorded
	// under: the layer's name where the interner is the layer's own.
	internSpan string
	// novel reports how many strands the extract pass met that the
	// vocabulary did not hold before this executable.
	novel func() int
}

// querySets returns a source of fresh overlays of the frozen
// vocabulary, one pair per executable, as SealedCorpus.AnalyzeQueryWith
// analyses a query.
func querySets(frozen *corpusindex.Frozen) func() *internerSet {
	return func() *internerSet {
		b := &rebasedTimedInterner{timedInterner{inner: corpusindex.NewQueryInterner(frozen)}, frozen}
		overlay := corpusindex.NewQueryInterner(frozen)
		x := &rebasedTimedInterner{timedInterner{inner: overlay}, frozen}
		return &internerSet{
			build: b, extract: x,
			buildClock: &b.timedInterner, extractClock: &x.timedInterner,
			internSpan: "corpusindex.intern",
			novel:      overlay.Novel,
		}
	}
}

// mapInterner stands in, on the ingest replay, for the analyzer
// session's live interner, which the facade keeps to itself: a growing
// map on the one replay goroutine. The time spent in it is a child span
// of the extraction it serves, so strand.extract_us and sim.build_us
// exclude it as they exclude the real one's; it is not reported as
// corpusindex time, because it is not corpusindex code.
type mapInterner map[uint64]uint32

func (m mapInterner) Intern(h uint64) uint32 {
	id, ok := m[h]
	if !ok {
		id = uint32(len(m))
		m[h] = id
	}
	return id
}

func (m mapInterner) InternAll(hashes []uint64, out []uint32) []uint32 {
	for _, h := range hashes {
		out = append(out, m.Intern(h))
	}
	return out
}

// liveSets is the ingest side: two growing interners that persist across
// executables, so both passes see the same growing vocabulary. Neither
// pass has the session's block cache, which the facade also keeps to
// itself: strand.extract_us on ingest is the cost of extracting every
// block, not the cost after cache hits.
func liveSets() func() *internerSet {
	live := mapInterner{}
	b := &timedInterner{inner: mapInterner{}}
	x := &timedInterner{inner: live}
	set := &internerSet{build: b, extract: x, buildClock: b, extractClock: x, internSpan: "bench.intern"}
	size := 0
	set.novel = func() int {
		n := len(live) - size
		size = len(live)
		return n
	}
	return func() *internerSet {
		b.total, b.calls, x.total, x.calls = 0, 0, 0, 0
		return set
	}
}

// replayer replays requests through the facade and, beside each, the
// same bytes through the layers' public functions, recording spans.
type replayer struct {
	t      *tracer
	sc     *firmup.SealedCorpus
	sets   func() *internerSet
	novel  int
	unique int
	// wallUs is each request's analyse-plus-search wall time including
	// the tracer's own bookkeeping, for the overhead ratio.
	wallUs []float64
}

// frozenOf builds the frozen vocabulary the query-side timing interners
// overlay, over one shard's mapped slabs exactly as OpenSealedCorpus
// builds its own (every shard carries the whole vocabulary). The facade
// has no accessor for the one it holds, and a change that may touch only
// bench/ cannot add one; these four calls are the benchmark's only use
// of the shard reader. release unmaps the shard, which must outlive
// every use of the result.
func frozenOf(shardDir string) (frozen *corpusindex.Frozen, release func(), err error) {
	paths, err := filepath.Glob(filepath.Join(shardDir, "*.fwcorp"))
	if err != nil || len(paths) == 0 {
		return nil, nil, fmt.Errorf("no shards under %s", shardDir)
	}
	shard, err := snapshot.OpenCorpusShardFile(paths[0])
	if err != nil {
		return nil, nil, err
	}
	vocab, err := shard.Vocab()
	var hashes []uint64
	var ids []uint32
	if err == nil {
		hashes, ids, err = shard.SortedVocab()
	}
	if err == nil {
		frozen, err = corpusindex.FrozenFromSlabs(vocab, hashes, ids)
	}
	if err != nil {
		shard.Close()
		return nil, nil, err
	}
	return frozen, func() { shard.Close() }, nil
}

// mallocs is the process's cumulative heap allocation count; it is read
// only while tracing, because reading it stops the world.
func (t *tracer) mallocs() int64 {
	if t.off {
		return 0
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.Mallocs)
}

// matchCap bounds how many findings per request are re-matched for
// core.match_us: a corpus-wide sweep returns dozens, and the game on
// one of them is the unit being timed.
const matchCap = 16

// request replays one /search request: AnalyzeQueryWith and the search
// exactly as the daemon calls them, then — when layers is set — the
// front-end decomposition and the per-finding game.
func (rp *replayer) request(q *query, image int, layers bool) ([]firmup.ImageFindings, error) {
	t := rp.t
	t.request()
	root := t.begin("request")
	defer t.end(root)
	w0 := time.Now()

	exe, err := rp.analyze(q)
	if err != nil {
		return nil, err
	}
	res, err := rp.search(exe, q.Proc, image)
	if err != nil {
		return nil, err
	}
	rp.wallUs = append(rp.wallUs, us(time.Since(w0)))
	if !layers || t.off {
		return res, nil
	}
	if err := rp.frontEnd("query", q.Data); err != nil {
		return nil, err
	}
	return res, rp.matches(exe, q.Proc, res, image)
}

// analyze runs the facade's query analysis, with one worker as the
// daemon's per-request budget would be on one core, under a
// firmup.analyze span that also counts its heap allocations.
func (rp *replayer) analyze(q *query) (*firmup.Executable, error) {
	t := rp.t
	a := t.begin("firmup.analyze")
	m0 := t.mallocs()
	exe, err := rp.sc.AnalyzeQueryWith("query", q.Data, 1)
	t.count(a, "allocs", t.mallocs()-m0)
	t.end(a)
	return exe, err
}

// search runs one facade search under a firmup.search span, counting
// what it examined and found.
func (rp *replayer) search(exe *firmup.Executable, proc string, image int) ([]firmup.ImageFindings, error) {
	t := rp.t
	opt := &firmup.Options{Workers: 1}
	s := t.begin("firmup.search")
	m0 := t.mallocs()
	var res []firmup.ImageFindings
	var err error
	searchable := rp.sc.Executables()
	if image < 0 {
		res, err = rp.sc.SearchAll(exe, proc, opt)
	} else {
		var r *firmup.SearchResult
		img := rp.sc.Images()[image]
		if r, err = rp.sc.SearchImageDetailed(exe, proc, img, opt); err == nil {
			res = []firmup.ImageFindings{{Findings: r.Findings, Examined: r.Examined}}
		}
	}
	t.count(s, "allocs", t.mallocs()-m0)
	t.end(s)
	if err != nil {
		return nil, err
	}
	if image >= 0 {
		// A single image's executable count is not exposed without
		// materialising it; the corpus mean stands in.
		searchable = (searchable + len(rp.sc.Images()) - 1) / len(rp.sc.Images())
	}
	rp.countSearch(s, res, searchable)
	return res, nil
}

func (rp *replayer) countSearch(id int, res []firmup.ImageFindings, searchable int) {
	t := rp.t
	for i := range res {
		t.count(id, "examined", int64(res[i].Examined))
		t.count(id, "findings", int64(len(res[i].Findings)))
		for _, f := range res[i].Findings {
			t.count(id, "game_steps", int64(f.GameSteps))
		}
	}
	t.count(id, "searchable", int64(searchable))
}

// strandOptions mirrors how sim.BuildWith configures extraction for a
// recovered executable.
func strandOptions(rec *cfg.Recovered) *strand.Options {
	opt := &strand.Options{Sections: rec.File.Map()}
	if be, err := isa.ByArch(rec.Arch); err == nil {
		opt.ABI = be.ABI()
	}
	return opt
}

// frontEnd replays one executable through the front-end layers' public
// functions: obj.Read, cfg.Recover (decode, lift to uir, CFG),
// sim.BuildWith with one worker, and — separately, because BuildWith
// hides it — strand extraction per procedure under a timing interner.
func (rp *replayer) frontEnd(path string, data []byte) error {
	t := rp.t
	lay := t.begin("replay")
	defer t.end(lay)

	o := t.begin("obj.read")
	f, err := obj.Read(data)
	t.end(o)
	if err != nil {
		return err
	}
	t.count(o, "bytes", int64(len(data)))
	return rp.analyzeFile(path, f)
}

// analyzeFile is frontEnd after parsing, shared with the ingest replay,
// which gets parsed files from the unpacked image.
func (rp *replayer) analyzeFile(path string, f *obj.File) error {
	t := rp.t
	c := t.begin("cfg.recover")
	rec, err := cfg.Recover(f)
	t.end(c)
	if err != nil {
		return err
	}
	for _, p := range rec.Procs {
		t.count(c, "insts", int64(len(p.Insts)))
		t.count(c, "blocks", int64(len(p.Blocks)))
	}

	set := rp.sets()
	b := t.begin("sim.build")
	exe := sim.BuildWith(path, rec, set.build, &sim.BuildConfig{Workers: 1})
	t.aggregate("sim.build.intern", set.buildClock.total, set.buildClock.calls)
	t.end(b)
	t.count(b, "procs", int64(len(exe.Procs)))

	opt := strandOptions(rec)
	sets := make([]strand.Set, 0, len(rec.Procs))
	x := t.begin("strand.extract")
	ex := strand.NewExtractor(opt, set.extract, nil)
	for _, p := range rec.Procs {
		strands, _ := ex.Proc(p.Blocks)
		sets = append(sets, strands)
	}
	t.aggregate(set.internSpan, set.extractClock.total, set.extractClock.calls)
	t.end(x)

	seen := map[uint64]struct{}{}
	for _, s := range sets {
		t.count(x, "strands", int64(s.Size()))
		for _, h := range s.Hashes {
			seen[h] = struct{}{}
		}
	}
	rp.unique += len(seen)
	rp.novel += set.novel()
	return nil
}

// matches replays the back-and-forth game alone, on the executables the
// search reported: SealedCorpus.MatchProcedure per finding.
func (rp *replayer) matches(exe *firmup.Executable, proc string, res []firmup.ImageFindings, image int) error {
	t := rp.t
	n := 0
	for i := range res {
		ii := i
		if image >= 0 {
			ii = image
		}
		for _, f := range res[i].Findings {
			if n++; n > matchCap {
				return nil
			}
			target := rp.sc.Images()[ii].Executable(f.ExePath)
			if target == nil {
				return fmt.Errorf("image %d has no executable %s", ii, f.ExePath)
			}
			m := t.begin("core.match")
			_, steps, err := rp.sc.MatchProcedure(exe, proc, target, nil)
			t.end(m)
			if err != nil {
				return err
			}
			t.count(m, "steps", int64(steps))
		}
	}
	return nil
}

// durations lists the durations, in microseconds, of every span with
// the given name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for i := range t.spans {
		if t.spans[i].Name == name {
			out = append(out, float64(t.spans[i].End-t.spans[i].Start)/1e3)
		}
	}
	return out
}

// perSpan lists one count per span with the given name.
func (t *tracer) perSpan(name, key string) []float64 {
	var out []float64
	for i := range t.spans {
		if t.spans[i].Name == name {
			out = append(out, float64(t.spans[i].N[key]))
		}
	}
	return out
}

// reduce fills the per-layer metrics that come straight from spans:
// per-request medians for times, totals for counts.
func (tr *tracedResult) reduce(rp *replayer) {
	t := tr.tracer
	self, total := t.layerTimes()
	cnt := t.counts()
	v := tr.vals
	v["firmup.analyze_us"] = median(total["firmup.analyze"])
	v["firmup.search_us"] = median(total["firmup.search"])
	v["firmup.analyze_allocs"] = median(t.perSpan("firmup.analyze", "allocs"))
	v["firmup.search_allocs"] = median(t.perSpan("firmup.search", "allocs"))
	v["firmup.open_us"] = median(total["firmup.open"])
	v["firmup.seal_us"] = median(total["firmup.seal"])
	v["firmup.write_shards_us"] = median(total["firmup.write_shards"])
	v["obj.read_us"] = median(self["obj.read"])
	v["obj.bytes"] = float64(cnt["obj.read.bytes"])
	v["image.unpack_us"] = median(self["image.unpack"])
	v["image.exes"] = float64(cnt["image.unpack.exes"])
	v["cfg.recover_us"] = median(self["cfg.recover"])
	v["cfg.insts"] = float64(cnt["cfg.recover.insts"])
	v["cfg.blocks"] = float64(cnt["cfg.recover.blocks"])
	v["strand.extract_us"] = median(self["strand.extract"])
	v["strand.strands"] = float64(cnt["strand.extract.strands"])
	v["corpusindex.intern_us"] = median(total["corpusindex.intern"])
	v["sim.procs"] = float64(cnt["sim.build.procs"])
	// sim's own share of BuildWith is what is left after the extraction
	// it runs inside: both are per-request self times, paired by request.
	sb, sx := self["sim.build"], self["strand.extract"]
	if len(sb) == len(sx) {
		own := make([]float64, len(sb))
		for i := range sb {
			own[i] = max(sb[i]-sx[i], 0)
		}
		v["sim.build_us"] = median(own)
	}
	v["core.match_us"] = median(t.durations("core.match"))
	v["core.examined"] = float64(cnt["firmup.search.examined"])
	if n := cnt["firmup.search.findings"]; n > 0 {
		v["core.game_steps"] = float64(cnt["firmup.search.game_steps"]) / float64(n)
	}
	if n := cnt["firmup.search.examined"]; n > 0 {
		v["core.accept_ratio"] = float64(cnt["firmup.search.findings"]) / float64(n)
	}
	if n := cnt["firmup.search.searchable"]; n > 0 {
		v["corpusindex.examined_ratio"] = float64(cnt["firmup.search.examined"]) / float64(n)
	}
	if rp != nil && rp.unique > 0 {
		v["corpusindex.novel_ratio"] = float64(rp.novel) / float64(rp.unique)
	}
}
