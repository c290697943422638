package serve_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"firmup"
	"firmup/internal/serve"
	"firmup/internal/telemetry"
)

// getJSON decodes a GET endpoint into v, failing the test on transport
// or decode errors.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// findTrace locates one trace by ID in the /debug/requests snapshot.
func findTrace(snap telemetry.RequestsSnapshot, id string) (telemetry.TraceSnapshot, bool) {
	for _, ts := range snap.Slowest {
		if ts.TraceID == id {
			return ts, true
		}
	}
	for _, ts := range snap.Recent {
		if ts.TraceID == id {
			return ts, true
		}
	}
	return telemetry.TraceSnapshot{}, false
}

// TestServeTraceHeaderRoundTrip pins the trace identity plumbing: a
// request carrying X-Firmup-Trace is traced under exactly that ID even
// with sampling off, the ID is echoed in both the response header and
// the trace_id field, and the full span tree — serve.request,
// serve.read_body, serve.analyze_query, serve.search, core.search — lands
// in /debug/requests, every span of it with one call on the stage of its
// name. A header-less request under TraceSample 0 stays untraced — no
// trace is allocated or offered — and adds to the same stages.
func TestServeTraceHeaderRoundTrip(t *testing.T) {
	sc, query := buildScenario(t)
	reg := telemetry.New()
	srv := serve.New(newCorpus("c", sc), &serve.Config{TraceSample: 0, Registry: reg})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const id = "00000000deadbeef"
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/search?proc=ftp_retrieve_glob", bytes.NewReader(query))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(serve.TraceHeader, id)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, blob)
	}
	if got := resp.Header.Get(serve.TraceHeader); got != id {
		t.Errorf("response %s = %q, want %q", serve.TraceHeader, got, id)
	}
	var sr serve.SearchResponse
	if err := json.Unmarshal(blob, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.TraceID != id {
		t.Errorf("trace_id = %q, want %q", sr.TraceID, id)
	}
	if sr.TotalFindings == 0 {
		t.Error("traced request lost its findings")
	}

	var snap telemetry.RequestsSnapshot
	getJSON(t, ts.URL+"/debug/requests", &snap)
	if snap.Offered != 1 {
		t.Errorf("trace buffer offered = %d, want 1", snap.Offered)
	}
	tr, ok := findTrace(snap, id)
	if !ok {
		t.Fatalf("/debug/requests lacks trace %s: %+v", id, snap)
	}
	names := make(map[string]int)
	for _, sp := range tr.Spans {
		names[sp.Name]++
	}
	for _, want := range []string{"serve.request", "serve.read_body", "serve.analyze_query", "serve.search", "core.search"} {
		if names[want] == 0 {
			t.Errorf("trace lacks a %q span; spans: %v", want, names)
		}
	}
	for name, n := range names {
		if got := reg.Stage(name).Calls(); got != int64(n) {
			t.Errorf("span %q: %d in the tree, %d calls on its stage", name, n, got)
		}
	}
	if tr.DurUS <= 0 {
		t.Errorf("trace duration = %v us, want > 0", tr.DurUS)
	}

	// Without the header, TraceSample 0 must not trace.
	resp2, blob2 := postSearch(t, ts.URL+"/search?proc=ftp_retrieve_glob", query)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("untraced request status %d", resp2.StatusCode)
	}
	if got := resp2.Header.Get(serve.TraceHeader); got != "" {
		t.Errorf("untraced response carries %s = %q", serve.TraceHeader, got)
	}
	if bytes.Contains(blob2, []byte("trace_id")) {
		t.Error("untraced response encodes a trace_id")
	}
	// The same bytes at first and second sight are both analysed, so the
	// untraced request ran every span the traced one did.
	for name, n := range names {
		if got := reg.Stage(name).Calls(); got != 2*int64(n) {
			t.Errorf("stage %q: %d calls after an untraced request, want %d", name, got, 2*n)
		}
	}
	getJSON(t, ts.URL+"/debug/requests", &snap)
	if snap.Offered != 1 {
		t.Errorf("trace buffer offered = %d after an untraced request, want 1", snap.Offered)
	}
}

// TestServeTraceSampling pins head sampling: TraceSample 1 assigns a
// fresh valid trace ID to every request, and distinct requests get
// distinct IDs.
func TestServeTraceSampling(t *testing.T) {
	sc, query := buildScenario(t)
	srv := serve.New(newCorpus("c", sc), &serve.Config{TraceSample: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	seen := make(map[string]bool)
	for i := 0; i < 3; i++ {
		resp, blob := postSearch(t, ts.URL+"/search?proc=ftp_retrieve_glob", query)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, blob)
		}
		var sr serve.SearchResponse
		if err := json.Unmarshal(blob, &sr); err != nil {
			t.Fatal(err)
		}
		if _, ok := telemetry.ParseTraceID(sr.TraceID); !ok {
			t.Fatalf("trace_id %q is not a valid trace ID", sr.TraceID)
		}
		if got := resp.Header.Get(serve.TraceHeader); got != sr.TraceID {
			t.Errorf("header %q disagrees with trace_id %q", got, sr.TraceID)
		}
		if seen[sr.TraceID] {
			t.Errorf("trace ID %s reused across requests", sr.TraceID)
		}
		seen[sr.TraceID] = true
	}
}

// TestServeShardedTraceAttribution serves a sharded mmap-backed corpus
// and verifies a traced corpus-wide search attributes latency per
// shard: the trace's span tree carries one corpus.shard span per shard
// with distinct shard indexes, each parenting the per-image search
// work. The whole tree of a never-seen upload is pinned by name, and
// every name in it is a stage on /metrics: one span vocabulary.
func TestServeShardedTraceAttribution(t *testing.T) {
	sc, query := buildScenario(t)
	const nShards = 3
	dir := t.TempDir()
	if _, err := sc.WriteShards(dir, nShards); err != nil {
		t.Fatal(err)
	}
	sharded, err := firmup.OpenSealedCorpusDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()

	srv := serve.New(newCorpus("sharded", sharded), &serve.Config{TraceSample: 1, Registry: telemetry.New()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, blob := postSearch(t, ts.URL+"/search?proc=ftp_retrieve_glob", query)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, blob)
	}
	var sr serve.SearchResponse
	if err := json.Unmarshal(blob, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.TotalFindings == 0 {
		t.Error("sharded traced search lost its findings")
	}

	var snap telemetry.RequestsSnapshot
	getJSON(t, ts.URL+"/debug/requests", &snap)
	tr, ok := findTrace(snap, sr.TraceID)
	if !ok {
		t.Fatalf("/debug/requests lacks trace %s", sr.TraceID)
	}
	// The tree, as parent › child name pairs with their multiplicity.
	byID := map[int32]string{0: ""}
	edges := map[string]int{}
	for _, sp := range tr.Spans {
		byID[sp.ID] = sp.Name
		edges[byID[sp.Parent]+" › "+sp.Name]++
	}
	wantEdges := map[string]int{
		" › serve.request":                    1,
		"serve.request › serve.read_body":     1,
		"serve.request › serve.analyze_query": 1,
		"serve.analyze_query › obj.parse":     1,
		"serve.analyze_query › cfg.recover":   1,
		"cfg.recover › cfg.sweep":             1,
		"serve.analyze_query › sim.build":     1,
		"sim.build › sim.index":               1,
		"serve.request › serve.search":        1,
		"serve.search › corpus.shard":         nShards,
		"corpus.shard › store.materialize":    nShards,
		"corpus.shard › core.search":          nShards,
	}
	if !reflect.DeepEqual(edges, wantEdges) {
		t.Errorf("span tree = %v, want %v", edges, wantEdges)
	}
	var metrics telemetry.Snapshot
	getJSON(t, ts.URL+"/metrics", &metrics)
	for _, sp := range tr.Spans {
		if metrics.Stages[sp.Name].Calls < 1 {
			t.Errorf("span %q has no stage on /metrics", sp.Name)
		}
	}

	shards := make(map[int]telemetry.TraceSpan)
	for _, sp := range tr.Spans {
		if sp.Name != "corpus.shard" {
			continue
		}
		idx, ok := sp.Attrs["shard"].(float64)
		if !ok {
			t.Fatalf("corpus.shard span lacks a shard attr: %+v", sp)
		}
		if _, dup := shards[int(idx)]; dup {
			t.Errorf("shard %d traced twice", int(idx))
		}
		shards[int(idx)] = sp
	}
	if len(shards) != nShards {
		t.Fatalf("trace has %d corpus.shard spans, want %d: %+v", len(shards), nShards, tr.Spans)
	}
	// Each shard span parents that shard's per-image search work, so
	// per-shard latency attribution is a subtree, not a flat list.
	children := make(map[int32]int)
	for _, sp := range tr.Spans {
		children[sp.Parent]++
	}
	imgSpans := 0
	for idx, sp := range shards {
		if sp.Attrs["executables"] == nil {
			t.Errorf("shard %d span lacks an executables attr", idx)
		}
		if children[sp.ID] == 0 {
			t.Errorf("shard %d span has no child spans; per-shard attribution lost", idx)
		}
		imgSpans += children[sp.ID]
	}
	if imgSpans == 0 {
		t.Error("no search spans attributed to any shard")
	}
}

// TestServePromEndpoint pins the Prometheus exposition: the
// content type, self-consistent 0.0.4 text format, and the serve
// metrics an operator dashboards — request counters, the latency
// histogram, uptime and corpus-age gauges.
func TestServePromEndpoint(t *testing.T) {
	sc, query := buildScenario(t)
	reg := telemetry.New()
	srv := serve.New(newCorpus("c", sc), &serve.Config{Registry: reg})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if resp, blob := postSearch(t, ts.URL+"/search?proc=ftp_retrieve_glob", query); resp.StatusCode != http.StatusOK {
		t.Fatalf("search status %d: %s", resp.StatusCode, blob)
	}
	resp, err := http.Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get("Content-Type"); !strings.Contains(got, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want the 0.0.4 text exposition", got)
	}
	if err := telemetry.ValidateExposition(body); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, body)
	}
	for _, want := range []string{
		"firmup_serve_requests_total",
		"firmup_serve_req_search_total",
		"# TYPE firmup_serve_latency_us histogram",
		"firmup_serve_uptime_s",
		"firmup_serve_corpus_age_s",
		"firmup_serve_inflight",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("exposition lacks %q", want)
		}
	}
	// The JSON form must still be the default.
	var snap telemetry.Snapshot
	getJSON(t, ts.URL+"/metrics", &snap)
	if snap.Counters["serve.requests"] < 1 {
		t.Errorf("JSON metrics serve.requests = %d, want >= 1", snap.Counters["serve.requests"])
	}
}

// TestServeHealthzBuildInfo pins the health payload: status, build
// revision and Go version from debug.ReadBuildInfo, process uptime and
// the serving corpus name.
func TestServeHealthzBuildInfo(t *testing.T) {
	sc, _ := buildScenario(t)
	srv := serve.New(newCorpus("health.fwcorp", sc), nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var info serve.HealthInfo
	getJSON(t, ts.URL+"/healthz", &info)
	if info.Status != "ok" {
		t.Errorf("status = %q, want ok", info.Status)
	}
	if info.Revision == "" {
		t.Error("healthz lacks a build revision")
	}
	if !strings.HasPrefix(info.GoVersion, "go") {
		t.Errorf("go_version = %q, want a go toolchain version", info.GoVersion)
	}
	if info.UptimeS < 0 {
		t.Errorf("uptime_s = %v, want >= 0", info.UptimeS)
	}
	if info.Corpus != "health.fwcorp" {
		t.Errorf("corpus = %q, want health.fwcorp", info.Corpus)
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for capturing the access
// log from the server's handler goroutines.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestServeAccessLog captures the structured access log and verifies
// one well-formed JSON line per request with the method, path, status,
// latency and — for traced requests — the trace ID.
func TestServeAccessLog(t *testing.T) {
	sc, query := buildScenario(t)
	var buf syncBuffer
	srv := serve.New(newCorpus("c", sc), &serve.Config{
		TraceSample: 1,
		AccessLog:   telemetry.NewLogger(&buf, telemetry.LevelInfo),
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, blob := postSearch(t, ts.URL+"/search?proc=ftp_retrieve_glob", query)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, blob)
	}
	var sr serve.SearchResponse
	if err := json.Unmarshal(blob, &sr); err != nil {
		t.Fatal(err)
	}
	if resp, _ := postSearch(t, ts.URL+"/search", query); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing proc status %d, want 400", resp.StatusCode)
	}

	// The log line is written after the response; poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	var lines []string
	for {
		lines = nil
		for _, l := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
			if l != "" {
				lines = append(lines, l)
			}
		}
		if len(lines) >= 2 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(lines) != 2 {
		t.Fatalf("access log has %d lines, want 2:\n%s", len(lines), buf.String())
	}
	type entry struct {
		TS        string  `json:"ts"`
		Level     string  `json:"level"`
		Msg       string  `json:"msg"`
		Method    string  `json:"method"`
		Path      string  `json:"path"`
		Status    int     `json:"status"`
		ElapsedMS float64 `json:"elapsed_ms"`
		Trace     string  `json:"trace"`
	}
	var first entry
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("access log line is not JSON: %v\n%s", err, lines[0])
	}
	if _, err := time.Parse(time.RFC3339, first.TS); err != nil {
		t.Errorf("ts %q is not RFC3339: %v", first.TS, err)
	}
	if first.Level != "info" || first.Msg != "request" {
		t.Errorf("line identity = %q/%q, want info/request", first.Level, first.Msg)
	}
	if first.Method != "POST" || first.Path != "/search" || first.Status != 200 {
		t.Errorf("line = %+v, want POST /search 200", first)
	}
	if first.ElapsedMS <= 0 {
		t.Errorf("elapsed_ms = %v, want > 0", first.ElapsedMS)
	}
	if first.Trace != sr.TraceID {
		t.Errorf("trace = %q, want %q", first.Trace, sr.TraceID)
	}
	var second entry
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatalf("second log line is not JSON: %v\n%s", err, lines[1])
	}
	if second.Status != 400 {
		t.Errorf("second line status = %d, want 400", second.Status)
	}
}
