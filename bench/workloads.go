package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"firmup"
)

// Workload names are fixed: later issues cite them.
const (
	wlServeSweep  = "serve-sweep"
	wlServeUpload = "serve-upload"
	wlBatchSweep  = "batch-sweep"
	wlIngest      = "ingest"
	wlColdStart   = "cold-start"
)

var workloadNames = []string{wlServeSweep, wlServeUpload, wlBatchSweep, wlIngest, wlColdStart}

// clients is the closed-loop client count: each sends its next request
// when the previous reply is complete. Two, because the box has two
// cores and the daemon is pinned to GOMAXPROCS=2.
const clients = 2

// config is one invocation's settings.
type config struct {
	Seed     int64
	Seconds  int
	Images   int
	Firmupd  string // path to the shipped daemon binary
	Self     string // path to this binary, for child modes
	Work     string // per-run scratch directory
	OutDir   string // bench/out unless -out says otherwise
	BenchDir string // the directory this program's source lives in
}

// shardsFor is how many shards a corpus of the given size is written to
// and served from: the issue's eight, fewer for the smoke tests' handful
// of images so that no shard is empty.
func shardsFor(images int) int { return max(1, min(8, images/4)) }

// windows is how many equal slices a workload's timed ops are cut into.
// ops_per_s and cpu_ms_per_op are medians over the windows, so a stall
// that hits one slice of a run moves them no more than it moves p50_ms.
const windows = 10

// Every workload is fixed-count: ten windows of a per-window op count
// that is a function of -seconds alone, chosen so that the timed ops
// last about that long at the parent commit on the 2-core sandbox. Two
// commits therefore do identical work, and counts repeat exactly. At
// the default 12 s a window of a serve workload is a whole number of
// passes over the 36 query packages — three rounds of the sweep, 1080
// requests in all — so every window holds the same mix of work.
func (c *config) sweepPer() int   { return 9 * c.Seconds }
func (c *config) uploadPer() int  { return 12 * c.Seconds }
func (c *config) batchPer() int   { return 2 * c.Seconds }
func (c *config) coldPer() int    { return max(1, c.Seconds/3) }
func (c *config) ingestRuns() int { return max(1, 5*c.Seconds/12) } // each pass is one window

// traceRequests is how many requests of a serve workload the traced run
// replays: the first 200 of the list the untraced run sends, or all of a
// shorter list. The median per-request times need about a hundred
// requests before they stop moving by several percent between runs.
func traceRequests(per int) int { return min(200, windows*per) }

// tally counts a run's ops and remembers why the first failure failed.
type tally struct {
	Attempted int
	Failed    int
	FirstFail string
}

func (t *tally) fail(format string, args ...any) {
	t.Failed++
	if t.FirstFail == "" {
		t.FirstFail = fmt.Sprintf(format, args...)
	}
}

// windowRates holds one throughput and one CPU cost per window of a
// run's timed ops.
type windowRates struct {
	OpsPerS    []float64 `json:"window_ops_per_s"`
	CPUMsPerOp []float64 `json:"window_cpu_ms_per_op"` // user+sys of the process under test
}

func (w *windowRates) add(ops int, wall time.Duration, cpuMs float64) {
	w.OpsPerS = append(w.OpsPerS, float64(ops)/wall.Seconds())
	w.CPUMsPerOp = append(w.CPUMsPerOp, cpuMs/float64(ops))
}

// meter cuts a run's timed ops into windows of per ops each: whoever
// completes the op that fills a window reads the wall clock and the CPU
// the process under test has used so far.
type meter struct {
	per   int
	cpuMs func() float64
	done  atomic.Int64
	// Boundary k is written once, by the goroutine whose op brought the
	// count to k*per, and read after every client has returned.
	at  []time.Time
	cpu []float64
}

// newMeter takes boundary 0: the timed ops start now.
func newMeter(ops, per int, cpuMs func() float64) *meter {
	m := &meter{per: per, cpuMs: cpuMs, at: make([]time.Time, ops/per+1), cpu: make([]float64, ops/per+1)}
	m.cpu[0], m.at[0] = cpuMs(), time.Now()
	return m
}

func (m *meter) opDone() {
	if n := int(m.done.Add(1)); n%m.per == 0 {
		m.at[n/m.per], m.cpu[n/m.per] = time.Now(), m.cpuMs()
	}
}

func (m *meter) rates() windowRates {
	var w windowRates
	for k := 1; k < len(m.at); k++ {
		w.add(m.per, m.at[k].Sub(m.at[k-1]), m.cpu[k]-m.cpu[k-1])
	}
	return w
}

// runResult is one untraced workload run, before it is reduced to the
// end-to-end metrics.
type runResult struct {
	tally
	Workload string
	LatMs    []float64 // one per completed op
	SetupS   float64
	windowRates
	PeakRSSMB float64 // VmHWM of the process under test
	Score     score
	// Pairs is the score per "queryISA>imageISA" pair (daemon workloads).
	Pairs map[string]*score
	// Uploads is what the uploaded executables found (serve-upload only).
	Uploads    *score
	ShardBytes int64
	Exes       int
}

// ingest runs the write side once in a child process, producing the
// shard directory every read workload serves. It returns the child's
// report and how long the child took from spawn to its first timed op.
func (c *config) ingest(fx *fixture, out string) (*ingestReport, time.Duration, error) {
	var rep ingestReport
	t0 := time.Now()
	err := runChild(c.Self, []string{"-child", "ingest",
		"-images", filepath.Join(fx.dir, "images"), "-out", out}, &rep)
	if err != nil {
		return nil, 0, err
	}
	return &rep, time.Unix(0, rep.ReadyUnixNano).Sub(t0), nil
}

// serveSetup is the shared set-up of the two daemon workloads: ingest,
// exec firmupd, wait for /healthz, one untimed corpus-wide round of the
// 36 registry queries. The round's replies are the reference every
// later reply to the same query must equal.
func (c *config) serveSetup(fx *fixture, r *runResult) (*daemon, [][]located, error) {
	t0 := time.Now()
	shardDir := filepath.Join(c.Work, "shards")
	rep, _, err := c.ingest(fx, shardDir)
	if err != nil {
		return nil, nil, err
	}
	r.ShardBytes, r.Exes = rep.ShardBytes, rep.Executables
	d, err := startDaemon(c.Firmupd, shardDir, c.Work)
	if err != nil {
		return nil, nil, err
	}
	if _, err := d.waitReady(60 * time.Second); err != nil {
		d.stop()
		return nil, nil, err
	}
	ref := make([][]located, len(fx.queries))
	for i := range fx.queries {
		status, body, _, err := d.post(&fx.queries[i], -1)
		if err == nil && status != 200 {
			err = fmt.Errorf("status %d: %s", status, body)
		}
		if err == nil {
			ref[i], err = locate(body, -1)
		}
		if err != nil {
			d.stop()
			return nil, nil, fmt.Errorf("warm-up %s: %w", fx.queries[i].name(), err)
		}
	}
	r.SetupS = time.Since(t0).Seconds()
	return d, ref, nil
}

// reply is one completed request, kept so that outputs are checked
// after the timed window instead of competing with the daemon for the
// two cores inside it.
type reply struct {
	status int
	body   []byte
	err    error
}

// closedLoop drives the requests of a serve workload through the
// closed-loop clients: request k is sent by whichever client is free
// next. It fills r's latencies and window rates and returns the replies
// by request index.
func closedLoop(d *daemon, r *runResult, per int, send func(k int) (int, []byte, time.Duration, error)) []reply {
	n := windows * per
	replies := make([]reply, n)
	lat := make([]float64, n)
	var next atomic.Int64
	m := newMeter(n, per, func() float64 {
		u, s, _ := procCPU(d.pid()) // a daemon that died reads 0 and fails its requests
		return u + s
	})
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stopping() {
				k := int(next.Add(1)) - 1
				if k >= n {
					return
				}
				status, body, dur, err := send(k)
				replies[k] = reply{status, body, err}
				lat[k] = ms(dur)
				m.opDone()
			}
		}()
	}
	wg.Wait()
	r.Attempted = n
	r.LatMs = lat
	r.windowRates = m.rates()
	return replies
}

// pairKey names one cell of the ISA-pair matrix.
func pairKey(queryISA, imageISA string) string { return queryISA + ">" + imageISA }

// sweepOrder is serve-sweep's request list, as indexes into the
// registry queries: each round is its own seeded permutation of them,
// so neighbours vary but every round does the same work.
func (c *config) sweepOrder(nQueries int) []int {
	rng := rand.New(rand.NewSource(c.Seed))
	var order []int
	for len(order) < windows*c.sweepPer() {
		order = append(order, rng.Perm(nQueries)...)
	}
	return order
}

// scoreReference scores the warm-up round's replies against the ground
// truth, pooled and per ISA pair. The 36 registry queries and the corpus
// are the same for every seed, so the result repeats exactly.
func (r *runResult) scoreReference(fx *fixture, ref [][]located) {
	r.Pairs = map[string]*score{}
	archImages := map[string][]int{}
	for i, a := range fx.imageArch {
		archImages[a] = append(archImages[a], i)
	}
	for qi := range fx.queries {
		q := &fx.queries[qi]
		r.Score.add(fx.truth.scoreQuery(q.Proc, ref[qi], nil))
		byArch := map[string][]located{}
		for _, f := range ref[qi] {
			byArch[fx.imageArch[f.Image]] = append(byArch[fx.imageArch[f.Image]], f)
		}
		for arch, images := range archImages {
			key := pairKey(q.Arch.String(), arch)
			if r.Pairs[key] == nil {
				r.Pairs[key] = &score{}
			}
			r.Pairs[key].add(fx.truth.scoreQuery(q.Proc, byArch[arch], images))
		}
	}
}

// serveSweep is the headline path: the 36 registry queries posted
// corpus-wide, round after round, so every query recurs.
func (c *config) serveSweep(fx *fixture) (*runResult, error) {
	r := &runResult{Workload: wlServeSweep}
	d, ref, err := c.serveSetup(fx, r)
	if err != nil {
		return nil, err
	}
	order := c.sweepOrder(len(fx.queries))
	replies := closedLoop(d, r, c.sweepPer(), func(k int) (int, []byte, time.Duration, error) {
		return d.post(&fx.queries[order[k]], -1)
	})
	u, err := d.stop()
	if err != nil {
		return nil, err
	}
	r.PeakRSSMB = u.PeakRSSMB

	for k, rp := range replies {
		q := &fx.queries[order[k]]
		switch got, err := checkReply(rp, -1); {
		case err != nil:
			r.fail("%s: %v", q.name(), err)
		case !sameLocated(got, ref[order[k]]):
			r.fail("%s: findings differ from the warm-up round's", q.name())
		}
	}
	// Accuracy is a property of the reference replies; the loop above
	// has shown that every timed reply equals them.
	r.scoreReference(fx, ref)
	return r, nil
}

func checkReply(rp reply, image int) ([]located, error) {
	if rp.err != nil {
		return nil, rp.err
	}
	if rp.status != 200 {
		return nil, fmt.Errorf("status %d", rp.status)
	}
	return locate(rp.body, image)
}

// serveUpload posts executables the daemon has never seen, each once,
// each against a single image: the front-end does nearly all the work
// and nothing recurs.
func (c *config) serveUpload(fx *fixture) (*runResult, error) {
	ups, err := fx.uploads(windows*c.uploadPer(), c.Seed)
	if err != nil {
		return nil, err
	}
	r := &runResult{Workload: wlServeUpload}
	d, ref, err := c.serveSetup(fx, r)
	if err != nil {
		return nil, err
	}
	nImages := len(fx.imageFiles)
	replies := closedLoop(d, r, c.uploadPer(), func(k int) (int, []byte, time.Duration, error) {
		return d.post(&ups[k], k%nImages)
	})
	u, err := d.stop()
	if err != nil {
		return nil, err
	}
	r.PeakRSSMB = u.PeakRSSMB
	// No upload was posted during set-up, so there is no earlier reply
	// to compare with: an op fails on error, non-200 or a malformed
	// reply. What the uploads found is scored beside the bounded
	// recall and precision, which are the warm-up round's: the uploads
	// differ per seed and so does their score.
	r.Uploads = &score{}
	for k, rp := range replies {
		got, err := checkReply(rp, k%nImages)
		if err != nil {
			r.fail("upload %d (%s): %v", k, ups[k].name(), err)
			continue
		}
		r.Uploads.add(fx.truth.scoreQuery(ups[k].Proc, got, []int{k % nImages}))
	}
	r.scoreReference(fx, ref)
	return r, nil
}

// writeBatchSet writes the nine MIPS registry queries and their list
// file for the batch child.
func (c *config) writeBatchSet(fx *fixture) (string, []*query, error) {
	dir := filepath.Join(c.Work, "queries")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", nil, err
	}
	qs := fx.mipsQueries()
	var list []batchQueryFile
	for i, q := range qs {
		p := filepath.Join(dir, fmt.Sprintf("mips-%d.felf", i))
		if err := os.WriteFile(p, q.Data, 0o644); err != nil {
			return "", nil, err
		}
		list = append(list, batchQueryFile{Proc: q.Proc, File: p})
	}
	b, err := json.Marshal(list)
	if err != nil {
		return "", nil, err
	}
	listPath := filepath.Join(dir, "batch.json")
	return listPath, qs, os.WriteFile(listPath, b, 0o644)
}

// batchSweep is search only, through the batched engine.
func (c *config) batchSweep(fx *fixture) (*runResult, error) {
	r := &runResult{Workload: wlBatchSweep}
	listPath, qs, err := c.writeBatchSet(fx)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	shardDir := filepath.Join(c.Work, "shards")
	irep, _, err := c.ingest(fx, shardDir)
	if err != nil {
		return nil, err
	}
	r.ShardBytes, r.Exes = irep.ShardBytes, irep.Executables
	var rep batchReport
	err = runChild(c.Self, []string{"-child", "batch", "-corpus", shardDir, "-queries", listPath,
		"-per", fmt.Sprint(c.batchPer())}, &rep)
	if err != nil {
		return nil, err
	}
	r.SetupS = time.Unix(0, rep.ReadyUnixNano).Sub(t0).Seconds()
	r.Attempted, r.LatMs, r.windowRates = len(rep.OpMs), rep.OpMs, rep.windowRates
	r.PeakRSSMB = rep.PeakRSSMB
	if rep.Mismatched > 0 {
		r.Failed = rep.Mismatched
		r.FirstFail = "findings differ from the first warm-up op's"
	}
	if len(rep.Findings) != len(qs) {
		return nil, fmt.Errorf("batch child answered %d queries, want %d", len(rep.Findings), len(qs))
	}
	for i, q := range qs {
		r.Score.add(fx.truth.scoreQuery(q.Proc, rep.Findings[i], nil))
	}
	return r, nil
}

// sweepInProcess opens a shard directory with the facade and runs the
// given queries corpus-wide in one batched pass, returning the scored
// locations per query.
func sweepInProcess(shardDir string, qs []*query) ([][]located, error) {
	sc, err := firmup.OpenSealedCorpus(shardDir)
	if err != nil {
		return nil, err
	}
	defer sc.Close()
	var bqs []firmup.BatchQuery
	for _, q := range qs {
		e, err := sc.AnalyzeQueryWith(q.name(), q.Data, 0)
		if err != nil {
			return nil, err
		}
		bqs = append(bqs, firmup.BatchQuery{Query: e, Procedure: q.Proc})
	}
	res, err := sc.SearchAllBatch(bqs, nil)
	if err != nil {
		return nil, err
	}
	out := make([][]located, len(res))
	for i := range res {
		out[i] = locateAll(res[i])
	}
	return out, nil
}

// ingestWorkload is the write side. One pass is a fresh child process
// that opens every packed image, seals and writes the shards; an op is
// one OpenImage, and a pass is one window, whose wall time runs to the
// last shard written.
func (c *config) ingestWorkload(fx *fixture) (*runResult, error) {
	r := &runResult{Workload: wlIngest}
	var setups, peaks []float64
	var lastDir string
	var firstBytes int64
	for run := 0; run < c.ingestRuns(); run++ {
		dir := filepath.Join(c.Work, fmt.Sprintf("shards-%d", run))
		rep, ready, err := c.ingest(fx, dir)
		if err != nil {
			return nil, err
		}
		setups = append(setups, ready.Seconds())
		peaks = append(peaks, rep.PeakRSSMB)
		r.LatMs = append(r.LatMs, rep.OpMs...)
		r.Attempted += len(rep.OpMs)
		r.OpsPerS = append(r.OpsPerS, rep.OpsPerS...)
		r.CPUMsPerOp = append(r.CPUMsPerOp, rep.CPUMsPerOp...)
		r.ShardBytes, r.Exes = rep.ShardBytes, rep.Executables
		if run == 0 {
			firstBytes = rep.ShardBytes
		} else if rep.ShardBytes != firstBytes {
			r.fail("pass %d wrote %d shard bytes, pass 0 wrote %d", run, rep.ShardBytes, firstBytes)
		}
		if rep.Images != len(fx.imageFiles) {
			r.fail("pass %d ingested %d images, want %d", run, rep.Images, len(fx.imageFiles))
		}
		lastDir = dir
	}
	r.SetupS = median(setups)
	r.PeakRSSMB = median(peaks)
	if r.Exes != fx.truth.executables() {
		r.fail("shards hold %d executables, the generator shipped %d", r.Exes, fx.truth.executables())
	}
	// The output is correct if the shards answer the registry queries:
	// its accuracy is the accuracy of a sweep over what was written.
	qs := fx.mipsQueries()
	found, err := sweepInProcess(lastDir, qs)
	if err != nil {
		return nil, fmt.Errorf("reading back the shards: %w", err)
	}
	for i, q := range qs {
		r.Score.add(fx.truth.scoreQuery(q.Proc, found[i], nil))
	}
	return r, nil
}

// cycle is one firmupd lifetime as cold-start drives it.
type cycle struct {
	dur, ready time.Duration
	u          usage
	found      [][]located
}

// coldCycle is one cold-start op: exec firmupd, poll /healthz, post the
// nine MIPS registry queries once each, SIGTERM, reap.
func (c *config) coldCycle(shardDir string, qs []*query) (*cycle, error) {
	t0 := time.Now()
	cy := &cycle{}
	d, err := startDaemon(c.Firmupd, shardDir, c.Work)
	if err != nil {
		return cy, err
	}
	cy.ready, err = d.waitReady(60 * time.Second)
	for _, q := range qs {
		if err != nil {
			break
		}
		var status int
		var body []byte
		if status, body, _, err = d.post(q, -1); err == nil && status != 200 {
			err = fmt.Errorf("status %d", status)
		}
		var got []located
		if err == nil {
			got, err = locate(body, -1)
		}
		if err != nil {
			err = fmt.Errorf("%s: %w", q.name(), err)
		}
		cy.found = append(cy.found, got)
	}
	u, serr := d.stop()
	if err == nil {
		err = serr
	}
	cy.u, cy.dur = u, time.Since(t0)
	return cy, err
}

// coldStart measures what a restart costs: mmap open, lazy CRC checks,
// per-image index build and executable materialisation, none of which
// the warm workloads pay. The page cache is warm, so this is the
// sandbox's latency and not a storage device's.
func (c *config) coldStart(fx *fixture) (*runResult, error) {
	r := &runResult{Workload: wlColdStart}
	qs := fx.mipsQueries()
	t0 := time.Now()
	shardDir := filepath.Join(c.Work, "shards")
	irep, _, err := c.ingest(fx, shardDir)
	if err != nil {
		return nil, err
	}
	r.ShardBytes, r.Exes = irep.ShardBytes, irep.Executables
	warm, err := c.coldCycle(shardDir, qs)
	if err != nil {
		return nil, fmt.Errorf("warm-up cycle: %w", err)
	}
	ref := warm.found
	r.SetupS = time.Since(t0).Seconds()

	// The process under test is a new one every cycle: the CPU the meter
	// reads is what the daemons reaped so far used over their lives.
	var peaks []float64
	reapedMs := 0.0
	m := newMeter(windows*c.coldPer(), c.coldPer(), func() float64 { return reapedMs })
	for op := 0; op < windows*c.coldPer(); op++ {
		cy, err := c.coldCycle(shardDir, qs)
		if stopping() {
			return nil, errInterrupted
		}
		r.Attempted++
		reapedMs += cy.u.UserMs + cy.u.SysMs
		m.opDone()
		if err != nil {
			r.fail("cycle %d: %v", op, err)
			continue
		}
		r.LatMs = append(r.LatMs, ms(cy.dur))
		peaks = append(peaks, cy.u.PeakRSSMB)
		for i := range qs {
			if !sameLocated(cy.found[i], ref[i]) {
				r.fail("cycle %d: %s: findings differ from the warm-up cycle's", op, qs[i].name())
				break
			}
		}
	}
	r.windowRates = m.rates()
	r.PeakRSSMB = median(peaks)
	for i, q := range qs {
		r.Score.add(fx.truth.scoreQuery(q.Proc, ref[i], nil))
	}
	return r, nil
}

// run dispatches one untraced workload.
func (c *config) run(name string, fx *fixture) (*runResult, error) {
	var r *runResult
	var err error
	switch name {
	case wlServeSweep:
		r, err = c.serveSweep(fx)
	case wlServeUpload:
		r, err = c.serveUpload(fx)
	case wlBatchSweep:
		r, err = c.batchSweep(fx)
	case wlIngest:
		r, err = c.ingestWorkload(fx)
	case wlColdStart:
		r, err = c.coldStart(fx)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	if stopping() {
		return nil, errInterrupted
	}
	return r, err
}
