package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"firmup"
	"firmup/internal/corpusindex"
	"firmup/internal/image"
	"firmup/internal/obj"
)

// traceImages bounds the traced ingest replay, which analyses every
// image three times on one goroutine (the facade, and two layer passes).
const traceImages = 64

// request is one /search request of a serve workload.
type request struct {
	q     *query
	image int // -1: corpus-wide
}

// traced runs the named workload's traced counterpart and reduces the
// spans to the per-layer metrics. The traced run is never the source of
// an end-to-end number.
func (c *config) traced(name string, fx *fixture) (*tracedResult, error) {
	tr := newTraced()
	var err error
	switch name {
	case wlServeSweep:
		var reqs []request
		for _, qi := range c.sweepOrder(len(fx.queries))[:traceRequests(c.sweepPer())] {
			reqs = append(reqs, request{&fx.queries[qi], -1})
		}
		err = c.tracedServe(tr, fx, reqs)
	case wlServeUpload:
		var ups []query
		if ups, err = fx.uploads(traceRequests(c.uploadPer()), c.Seed); err == nil {
			var reqs []request
			for k := range ups {
				reqs = append(reqs, request{&ups[k], k % len(fx.imageFiles)})
			}
			err = c.tracedServe(tr, fx, reqs)
		}
	case wlBatchSweep:
		err = c.tracedBatch(tr, fx)
	case wlIngest:
		err = c.tracedIngest(tr, fx)
	case wlColdStart:
		err = c.tracedCold(tr, fx)
	default:
		err = fmt.Errorf("unknown workload %q", name)
	}
	if stopping() {
		return nil, errInterrupted
	}
	return tr, err
}

// tracedServe attributes a serve workload's requests to the layers. The
// daemon phase reads firmupd's own counters over HTTP around the same
// requests sent by one client; the replay phase runs them in-process on
// one goroutine with spans around each layer's public calls, then once
// more untraced for the overhead ratio.
func (c *config) tracedServe(tr *tracedResult, fx *fixture, reqs []request) error {
	shardDir := filepath.Join(c.Work, "shards")
	irep, _, err := c.ingest(fx, shardDir)
	if err != nil {
		return err
	}
	tr.vals["snapshot.corpus_bytes"] = float64(irep.ShardBytes)
	if err := c.daemonPhase(tr, fx, shardDir, reqs); err != nil {
		return err
	}

	t := tr.tracer
	sc, frozen, closeAll, err := openForReplay(t, shardDir)
	if err != nil {
		return err
	}
	defer closeAll()

	// One unrecorded corpus-wide round first, as the daemon workloads
	// have, so neither timed pass pays first-touch materialisation.
	warm := &replayer{t: &tracer{off: true}, sc: sc}
	for i := range fx.queries {
		if _, err := warm.request(&fx.queries[i], -1, false); err != nil {
			return fmt.Errorf("replay warm-up %s: %w", fx.queries[i].name(), err)
		}
	}
	// Each request runs twice, traced and with nothing recorded, in
	// alternating order, so the overhead ratio compares like with like.
	rp := &replayer{t: t, sc: sc, sets: querySets(frozen)}
	plain := &replayer{t: &tracer{off: true}, sc: sc}
	for k, rq := range reqs {
		if stopping() {
			return errInterrupted
		}
		tr.Attempted++
		for pass := 0; pass < 2; pass++ {
			r, layers := rp, true
			if pass != k%2 {
				r, layers = plain, false
			}
			if _, err := r.request(rq.q, rq.image, layers); err != nil {
				tr.fail("replay %d (%s): %v", k, rq.q.name(), err)
				break
			}
		}
	}
	tr.reduce(rp)
	if m := median(plain.wallUs); m > 0 {
		tr.vals["bench.trace_overhead_ratio"] = median(rp.wallUs) / m
	}
	tr.crossCheck()
	return nil
}

// layerSumTolerance is how far the layers' self times may sum away from
// what the facade took before the decomposition counts as broken.
const layerSumTolerance = 0.10

// crossCheck compares, request by request, the front-end layers' self
// times plus the search with AnalyzeQueryWith plus the search as the
// facade ran them: the medians of each, and the median of the
// per-request ratio, which is what the tolerance applies to. A ratio
// away from 1 means the facade does work the layer calls do not see.
func (tr *tracedResult) crossCheck() {
	self, total := tr.tracer.layerTimes()
	analyze, search := total["firmup.analyze"], total["firmup.search"]
	obj, rec, extract := self["obj.read"], self["cfg.recover"], self["strand.extract"]
	intern, build := total["corpusindex.intern"], self["sim.build"]
	for _, layer := range [][]float64{search, obj, rec, extract, intern, build} {
		if len(layer) != len(analyze) {
			return // a failed request left a layer out; the failure is already counted
		}
	}
	var sums, facade, ratios []float64
	for k := range analyze {
		// sim's own share is the BuildWith pass minus the extraction pass;
		// unclamped here, where the two passes' noise must cancel, not bias.
		sum := obj[k] + rec[k] + extract[k] + intern[k] + (build[k] - extract[k]) + search[k]
		sums = append(sums, sum)
		facade = append(facade, analyze[k]+search[k])
		ratios = append(ratios, sum/(analyze[k]+search[k]))
	}
	tr.LayerSumUs, tr.FacadeUs, tr.LayerRatio = median(sums), median(facade), median(ratios)
}

// layerSumOff reports a cross-check ratio outside the tolerance as an
// error; 0 means the workload has no cross-check.
func layerSumOff(ratio float64) error {
	if ratio != 0 && math.Abs(ratio-1) > layerSumTolerance {
		return fmt.Errorf("per request, the layers' self times sum to %.3f of what the facade took: more than %.0f%% apart",
			ratio, 100*layerSumTolerance)
	}
	return nil
}

// openForReplay opens the shard directory with the facade, under a
// firmup.open span, and builds the frozen vocabulary for the timing
// interners. closeAll releases both.
func openForReplay(t *tracer, shardDir string) (sc *firmup.SealedCorpus, frozen *corpusindex.Frozen, closeAll func(), err error) {
	t.request()
	o := t.begin("firmup.open")
	sc, err = firmup.OpenSealedCorpus(shardDir)
	t.end(o)
	if err != nil {
		return nil, nil, nil, err
	}
	frozen, release, err := frozenOf(shardDir)
	if err != nil {
		sc.Close()
		return nil, nil, nil, err
	}
	return sc, frozen, func() { release(); sc.Close() }, nil
}

// daemonPhase sends the requests to a real firmupd from one closed-loop
// client and reads the daemon's counters, by name, before and after.
func (c *config) daemonPhase(tr *tracedResult, fx *fixture, shardDir string, reqs []request) error {
	d, err := startDaemon(c.Firmupd, shardDir, c.Work)
	if err != nil {
		return err
	}
	stopped := false
	defer func() {
		if !stopped {
			d.stop()
		}
	}()
	ready, err := d.waitReady(60 * time.Second)
	if err != nil {
		return err
	}
	tr.vals["firmup.ready_ms"] = ms(ready)
	for i := range fx.queries {
		if status, _, _, err := d.post(&fx.queries[i], -1); err != nil || status != 200 {
			return fmt.Errorf("daemon warm-up %s: status %d: %v", fx.queries[i].name(), status, err)
		}
	}
	before, err := d.metrics()
	if err != nil {
		return err
	}
	u0, s0, _ := procCPU(d.pid())
	var clientUs, sizes []float64
	rejected := 0
	for k, rq := range reqs {
		status, body, dur, err := d.post(rq.q, rq.image)
		switch {
		case err != nil:
			tr.fail("daemon request %d: %v", k, err)
		case status == 429:
			rejected++
		case status != 200:
			tr.fail("daemon request %d: status %d", k, status)
		default:
			clientUs = append(clientUs, us(dur))
			sizes = append(sizes, float64(len(body)))
		}
	}
	u1, s1, _ := procCPU(d.pid())
	after, err := d.metrics()
	if err != nil {
		return err
	}
	stopped = true
	u, err := d.stop()
	if err != nil {
		return err
	}

	v := tr.vals
	n := float64(len(reqs))
	v["proc.cpu_user_ms"], v["proc.cpu_sys_ms"], v["proc.rss_end_mb"] = (u1-u0)/n, (s1-s0)/n, u.EndRSSMB
	v["serve.resp_bytes"] = median(sizes)
	v["serve.rejected"] = float64(rejected)
	if server, ok := histMeanDelta(before, after, "serve.latency_us"); ok {
		v["serve.server_us"] = server
		v["serve.overhead_us"] = mean(clientUs) - server
	} else {
		tr.Absent = append(tr.Absent, "serve.latency_us")
	}
	if fan, ok := histMeanDelta(before, after, "index.fanout"); ok {
		v["corpusindex.fanout"] = fan
	} else {
		tr.Absent = append(tr.Absent, "index.fanout")
	}
	if _, ok := after.Counters["serve.rejected"]; !ok {
		tr.Absent = append(tr.Absent, "serve.rejected")
	}
	return nil
}

// tracedBatch attributes batch-sweep: the nine queries analysed with
// the layer replay beside them, then batched ops against nine single
// searches over the same queries.
func (c *config) tracedBatch(tr *tracedResult, fx *fixture) error {
	shardDir := filepath.Join(c.Work, "shards")
	irep, _, err := c.ingest(fx, shardDir)
	if err != nil {
		return err
	}
	tr.vals["snapshot.corpus_bytes"] = float64(irep.ShardBytes)
	t := tr.tracer
	sc, frozen, closeAll, err := openForReplay(t, shardDir)
	if err != nil {
		return err
	}
	defer closeAll()

	rp := &replayer{t: t, sc: sc, sets: querySets(frozen)}
	qs := fx.mipsQueries()
	var bqs []firmup.BatchQuery
	for _, q := range qs {
		t.request()
		root := t.begin("request")
		exe, err := rp.analyze(q)
		if err == nil {
			err = rp.frontEnd("query", q.Data)
		}
		t.end(root)
		if err != nil {
			return fmt.Errorf("%s: %w", q.name(), err)
		}
		bqs = append(bqs, firmup.BatchQuery{Query: exe, Procedure: q.Proc})
	}

	opt := &firmup.Options{Workers: 1}
	ops := max(3, windows*c.batchPer()/4)
	batchOp := func() ([][]firmup.ImageFindings, float64, error) {
		t.request()
		s := t.begin("firmup.search")
		m0 := t.mallocs()
		w0 := nowUs()
		res, err := sc.SearchAllBatch(bqs, opt)
		w := nowUs() - w0
		t.count(s, "allocs", t.mallocs()-m0)
		t.end(s)
		if err == nil && !t.off {
			for qi := range res {
				rp.countSearch(s, res[qi], sc.Executables())
			}
		}
		return res, w, err
	}
	if _, _, err := batchOp(); err != nil { // first touch, timed with the rest but swamped by the median
		return err
	}
	var batchUs, singlesUs, plainUs []float64
	var userMs, sysMs float64
	for op := 0; op < ops && !stopping(); op++ {
		tr.Attempted++
		res, w, err := batchOp()
		if err != nil {
			tr.fail("batch op %d: %v", op, err)
			continue
		}
		batchUs = append(batchUs, w)
		// The same nine queries as nine single searches, for the ratio.
		t.request()
		single := t.begin("singles")
		w0 := nowUs()
		ones := make([][]firmup.ImageFindings, len(bqs))
		for qi, bq := range bqs {
			if ones[qi], err = sc.SearchAll(bq.Query, bq.Procedure, opt); err != nil {
				return err
			}
		}
		singlesUs = append(singlesUs, nowUs()-w0)
		t.end(single)
		for qi := range bqs {
			if !sameLocated(locateAll(ones[qi]), locateAll(res[qi])) {
				tr.fail("batch op %d: query %d: batched findings differ from the single search's", op, qi)
			}
		}
		if op == 0 {
			for qi, bq := range bqs {
				if err := rp.matches(bq.Query, bq.Procedure, res[qi], -1); err != nil {
					return err
				}
			}
		}
		// And the batched op once more with nothing recorded: the
		// overhead ratio, and the CPU the op costs on its own.
		u0, s0 := selfCPU()
		t.off = true
		_, w, err = batchOp()
		t.off = false
		if err != nil {
			return err
		}
		u1, s1 := selfCPU()
		userMs, sysMs = userMs+u1-u0, sysMs+s1-s0
		plainUs = append(plainUs, w)
	}

	tr.reduce(rp)
	v := tr.vals
	if m := median(singlesUs); m > 0 {
		v["core.batch_ratio"] = median(batchUs) / m
	}
	if m := median(plainUs); m > 0 {
		v["bench.trace_overhead_ratio"] = median(batchUs) / m
	}
	v["proc.cpu_user_ms"], v["proc.cpu_sys_ms"] = userMs/float64(ops), sysMs/float64(ops)
	v["proc.rss_end_mb"], _, _ = procRSS(os.Getpid())
	return nil
}

// tracedIngest attributes the write side on one goroutine: the facade's
// OpenImage per image, beside it the same image through image.Unpack,
// obj.Read, cfg.Recover, sim.BuildWith and the extractor with live
// interners and block caches, then Seal and WriteShards.
func (c *config) tracedIngest(tr *tracedResult, fx *fixture) error {
	files := fx.imageFiles
	if len(files) > traceImages {
		files = files[:traceImages]
	}
	t := tr.tracer
	one := &firmup.AnalyzerOptions{Workers: 1}
	// Two sessions ingest the same images side by side: one with spans
	// and the layer replay beside it, one with nothing recorded, which
	// gives the overhead ratio and the CPU an OpenImage costs on its own.
	a, plain := firmup.NewAnalyzer(one), firmup.NewAnalyzer(one)
	rp := &replayer{t: t, sets: liveSets()}
	var imgs []*firmup.Image
	var plainUs []float64
	var userMs, sysMs float64
	for i, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if stopping() {
			return errInterrupted
		}
		tr.Attempted++
		t.request()
		root := t.begin("request")
		o := t.begin("firmup.open_image")
		img, err := a.OpenImage(data)
		t.end(o)
		if err != nil {
			t.end(root)
			tr.fail("image %d: %v", i, err)
			continue
		}
		imgs = append(imgs, img)
		err = rp.unpackAndAnalyze(data)
		t.end(root)
		if err != nil {
			tr.fail("image %d: layer replay: %v", i, err)
		}
		u0, s0 := selfCPU()
		w0 := nowUs()
		if _, err := plain.OpenImage(data); err != nil {
			return err
		}
		plainUs = append(plainUs, nowUs()-w0)
		u1, s1 := selfCPU()
		userMs, sysMs = userMs+u1-u0, sysMs+s1-s0
	}
	openUs := t.durations("firmup.open_image")

	t.request()
	s := t.begin("firmup.seal")
	sealed, err := a.Seal(imgs...)
	t.end(s)
	if err != nil {
		return err
	}
	w := t.begin("firmup.write_shards")
	paths, err := sealed.WriteShards(filepath.Join(c.Work, "shards"), shardsFor(len(files)))
	t.end(w)
	if err != nil {
		return err
	}
	bytes, err := dirBytes(paths)
	if err != nil {
		return err
	}

	tr.reduce(rp)
	v := tr.vals
	v["snapshot.corpus_bytes"] = float64(bytes)
	if m := median(plainUs); m > 0 {
		v["bench.trace_overhead_ratio"] = median(openUs) / m
	}
	n := float64(len(files))
	v["proc.cpu_user_ms"], v["proc.cpu_sys_ms"] = userMs/n, sysMs/n
	v["proc.rss_end_mb"], _, _ = procRSS(os.Getpid())
	return nil
}

// unpackAndAnalyze replays one packed image through the layers.
func (rp *replayer) unpackAndAnalyze(data []byte) error {
	t := rp.t
	lay := t.begin("replay")
	defer t.end(lay)
	u := t.begin("image.unpack")
	im, err := image.Unpack(data)
	t.end(u)
	if err != nil {
		return err
	}
	for _, fe := range im.Files {
		o := t.begin("obj.read")
		f, err := obj.Read(fe.Data)
		t.end(o)
		if err != nil {
			continue // configuration files and the like: not executables
		}
		t.count(o, "bytes", int64(len(fe.Data)))
		t.count(u, "exes", 1)
		if err := rp.analyzeFile(fe.Path, f); err != nil {
			return fmt.Errorf("%s: %w", fe.Path, err)
		}
	}
	return nil
}

// tracedCold attributes a restart: how long the daemon takes to answer
// /healthz, what OpenSealedCorpus costs, and what the first search per
// query pays over its warm repeats.
func (c *config) tracedCold(tr *tracedResult, fx *fixture) error {
	shardDir := filepath.Join(c.Work, "shards")
	irep, _, err := c.ingest(fx, shardDir)
	if err != nil {
		return err
	}
	v := tr.vals
	v["snapshot.corpus_bytes"] = float64(irep.ShardBytes)
	qs := fx.mipsQueries()
	const cycles = 5
	var ready, user, sys, rss []float64
	for i := 0; i < cycles; i++ {
		tr.Attempted++
		cy, err := c.coldCycle(shardDir, qs)
		if err != nil {
			tr.fail("cycle %d: %v", i, err)
			continue
		}
		ready = append(ready, ms(cy.ready))
		user, sys, rss = append(user, cy.u.UserMs), append(sys, cy.u.SysMs), append(rss, cy.u.EndRSSMB)
	}
	v["firmup.ready_ms"] = median(ready)
	v["proc.cpu_user_ms"], v["proc.cpu_sys_ms"], v["proc.rss_end_mb"] = median(user), median(sys), median(rss)

	t := tr.tracer
	opt := &firmup.Options{Workers: 1}
	const warmRepeats = 5
	var firstOver, tracedWarm, plainWarm []float64
	for i := 0; i < 2*cycles && !stopping(); i++ {
		// Odd passes run untraced: the same opens and searches with
		// nothing recorded, for the overhead ratio.
		t.off = i%2 == 1
		t.request()
		o := t.begin("firmup.open")
		sc, err := firmup.OpenSealedCorpus(shardDir)
		t.end(o)
		if err != nil {
			return err
		}
		for _, q := range qs {
			t.request()
			exe, err := sc.AnalyzeQueryWith("query", q.Data, 1)
			if err != nil {
				sc.Close()
				return err
			}
			var first float64
			var warm []float64
			for k := 0; k <= warmRepeats; k++ {
				name := "firmup.search"
				if k == 0 {
					name = "firmup.first_touch"
				}
				s := t.begin(name)
				w0 := nowUs()
				_, err := sc.SearchAll(exe, q.Proc, opt)
				w := nowUs() - w0
				t.end(s)
				if err != nil {
					sc.Close()
					return err
				}
				if k == 0 {
					first = w
				} else {
					warm = append(warm, w)
				}
			}
			if t.off {
				plainWarm = append(plainWarm, warm...)
			} else {
				tracedWarm = append(tracedWarm, warm...)
				firstOver = append(firstOver, first-median(warm))
			}
		}
		if err := sc.Close(); err != nil {
			return err
		}
	}
	t.off = false
	tr.reduce(nil)
	v["firmup.first_touch_us"] = median(firstOver)
	if m := median(plainWarm); m > 0 {
		v["bench.trace_overhead_ratio"] = median(tracedWarm) / m
	}
	return nil
}

// epoch anchors nowUs to the monotonic clock.
var epoch = time.Now()

// nowUs is microseconds on the monotonic clock, for timing a call
// whether or not the tracer is recording.
func nowUs() float64 { return float64(time.Since(epoch)) / 1e3 }
