// Package serve implements the firmupd query service over a sealed
// corpus: an HTTP handler set that analyzes uploaded query executables
// against the corpus and returns findings JSON, with admission control
// (bounded in-flight searches, 429 + Retry-After on overload) and
// graceful corpus hot-swap.
//
// Concurrency model: the sealed corpus is immutable, so request
// handlers share it with no locks. The only cross-request coordination
// is the admission semaphore (a buffered channel), the atomic corpus
// pointer and the installed corpus's query cache (one mutex around a
// map and a list; see queryCache); a swap installs the new corpus for
// subsequent requests while every in-flight request keeps the pointer
// it loaded at admission, so no request ever observes a half-swapped
// corpus or is dropped by a swap.
package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"firmup"
	"firmup/internal/buildinfo"
	"firmup/internal/telemetry"
)

// SchemaVersion identifies the /search response layout. Bumped on any
// incompatible change.
const SchemaVersion = 1

// TraceHeader is the request/response header carrying the request's
// trace ID (16 lowercase hex digits). A request that sends one is
// always traced under that ID; otherwise Config.TraceSample decides,
// and the server mints the ID. Traced responses echo the ID in this
// header and in the trace_id response field.
const TraceHeader = "X-Firmup-Trace"

// Corpus is one loaded sealed corpus with its serving identity. Use it
// by pointer: it holds a lock and must not be copied once installed.
type Corpus struct {
	// Name labels the corpus in responses (typically the artifact path).
	Name string
	// Sealed is the corpus itself.
	Sealed *firmup.SealedCorpus
	// LoadedAt records when the corpus was installed.
	LoadedAt time.Time

	// queries caches this corpus's analysed query uploads by content
	// hash, so a recurring query is analysed once. It lives and dies with
	// the Corpus: a Swap purges nothing, and requests still in flight on
	// the previous corpus keep hitting that corpus's cache.
	queries queryCache
}

// Fixed serving constants: the Retry-After hint attached to 429
// responses, in seconds, and the tail sampling of /debug/requests — the
// traceKeep slowest completed traces, plus every trace at or above
// traceSlow.
const (
	retryAfter = 1
	traceSlow  = 500 * time.Millisecond
	traceKeep  = 16
)

// Config tunes a Server. The zero value selects the defaults.
type Config struct {
	// MaxInFlight bounds concurrently admitted /search requests; further
	// requests are rejected with 429 + Retry-After (default
	// 2×GOMAXPROCS).
	MaxInFlight int
	// MaxQueryBytes bounds the accepted /search body (default 64 MiB).
	MaxQueryBytes int64
	// Registry, when non-nil, receives the server's request metrics:
	// serve.requests, serve.rejected, serve.inflight, serve.swaps, the
	// serve.latency_us histogram (whose Report quantiles are the p50/p99
	// the load benchmark records), per-endpoint serve.req.* counters,
	// the serve.uptime_s / serve.corpus_age_s gauges, and the
	// shard.corrupt gauge: how many of the installed corpus's shards
	// report a corruption (firmup.SealedShard.Corrupt). GET /metrics
	// serves it as JSON, or as Prometheus text exposition with
	// ?format=prom.
	Registry *telemetry.Registry
	// TraceSample controls head sampling for requests that do not carry
	// a TraceHeader: 0 (the default) traces header-carrying requests
	// only, 1 traces every request, N > 1 every Nth. Every request is
	// timed span by span (serve stages, front-end layers, shard fan-out,
	// core search) into Registry's stages; a sampled one also records
	// the spans as a pooled tree served from GET /debug/requests, and an
	// unsampled one allocates no trace.
	TraceSample int
	// AccessLog, when non-nil, receives one record per request: method,
	// path, status, bytes, elapsed_ms, and the trace ID when traced.
	AccessLog *slog.Logger
}

// NewAccessLog is the access log firmupd writes to w: one JSON line per
// record, {"ts":…,"level":"info","msg":…,<attributes in order>}, ts in
// UTC. The handler writes each line in one locked call: none interleave.
func NewAccessLog(w io.Writer) *slog.Logger {
	return slog.New(slog.NewJSONHandler(w, &slog.HandlerOptions{ReplaceAttr: accessLogAttr}))
}

// levelNames is a table because strings.ToLower allocates on every line.
var levelNames = map[slog.Level]string{
	slog.LevelDebug: "debug", slog.LevelInfo: "info", slog.LevelWarn: "warn", slog.LevelError: "error",
}

// accessLogAttr renames the record's time to ts, in UTC, and spells its
// level in lower case.
func accessLogAttr(_ []string, a slog.Attr) slog.Attr {
	switch a.Key {
	case slog.TimeKey:
		if a.Value.Kind() == slog.KindTime {
			return slog.Time("ts", a.Value.Time().UTC())
		}
	case slog.LevelKey:
		if lv, ok := a.Value.Any().(slog.Level); ok && levelNames[lv] != "" {
			return slog.String(a.Key, levelNames[lv])
		}
	}
	return a
}

func (c *Config) maxInFlight() int {
	if c == nil || c.MaxInFlight <= 0 {
		return 2 * runtime.GOMAXPROCS(0)
	}
	return c.MaxInFlight
}

func (c *Config) maxQueryBytes() int64 {
	if c == nil || c.MaxQueryBytes <= 0 {
		return 64 << 20
	}
	return c.MaxQueryBytes
}

// Server serves CVE-search queries against a hot-swappable sealed
// corpus. Create with New, install handlers via Handler, swap corpora
// at runtime with Swap.
type Server struct {
	cfg    Config
	corpus atomic.Pointer[Corpus]
	// sem is the admission semaphore: a slot must be acquired before any
	// per-request work (body read, analysis, search) begins.
	sem chan struct{}

	// traceBuf tail-samples completed request traces: the traceKeep
	// slowest plus everything at or over traceSlow, for /debug/requests.
	traceBuf *telemetry.TraceBuffer
	// traceSeq drives every-Nth head sampling when TraceSample > 1.
	traceSeq atomic.Uint64
	// start is the server's construction time, for serve.uptime_s and
	// /healthz.
	start time.Time

	reqs     *telemetry.Counter
	rejected *telemetry.Counter
	swaps    *telemetry.Counter
	inflight *telemetry.Gauge
	latency  *telemetry.Histogram
	cache    cacheCounters
	// endpoints maps route paths to their serve.req.* counters;
	// reqOther counts everything unrouted.
	endpoints map[string]*telemetry.Counter
	reqOther  *telemetry.Counter
}

// New creates a server over an initial corpus (which may be nil; /search
// then answers 503 until the first Swap).
func New(initial *Corpus, cfg *Config) *Server {
	s := &Server{}
	if cfg != nil {
		s.cfg = *cfg
	}
	s.sem = make(chan struct{}, s.cfg.maxInFlight())
	s.start = time.Now()
	s.traceBuf = telemetry.NewTraceBuffer(traceKeep, traceSlow)
	if r := s.cfg.Registry; r != nil {
		s.reqs = r.Counter("serve.requests")
		s.rejected = r.Counter("serve.rejected")
		s.swaps = r.Counter("serve.swaps")
		s.inflight = r.Gauge("serve.inflight")
		s.latency = r.Histogram("serve.latency_us")
		s.cache = cacheCounters{
			hits:     r.Counter("serve.query_cache.hits"),
			misses:   r.Counter("serve.query_cache.misses"),
			admitted: r.Counter("serve.query_cache.admitted"),
			evicted:  r.Counter("serve.query_cache.evicted"),
		}
		s.endpoints = map[string]*telemetry.Counter{
			"/search":         r.Counter("serve.req.search"),
			"/healthz":        r.Counter("serve.req.healthz"),
			"/corpus":         r.Counter("serve.req.corpus"),
			"/metrics":        r.Counter("serve.req.metrics"),
			"/debug/requests": r.Counter("serve.req.debug_requests"),
		}
		s.reqOther = r.Counter("serve.req.other")
		start := s.start
		r.GaugeFunc("serve.uptime_s", func() int64 {
			return int64(time.Since(start).Seconds())
		})
		r.GaugeFunc("serve.corpus_age_s", func() int64 {
			cs := s.corpus.Load()
			if cs == nil {
				return -1
			}
			return int64(time.Since(cs.LoadedAt).Seconds())
		})
		r.GaugeFunc("serve.query_cache.bytes", func() int64 {
			cs := s.corpus.Load()
			if cs == nil {
				return 0
			}
			return cs.queries.size()
		})
		r.GaugeFunc("shard.corrupt", func() int64 {
			cs := s.corpus.Load()
			if cs == nil {
				return 0
			}
			n := int64(0)
			for _, sh := range cs.Sealed.Shards() {
				if sh.Corrupt != "" {
					n++
				}
			}
			return n
		})
	}
	if initial != nil {
		s.corpus.Store(initial)
	}
	return s
}

// Swap atomically installs a new corpus. In-flight requests finish
// against the corpus they were admitted under; subsequent requests see
// the new one. The previous corpus is returned so the caller can log or
// release it.
func (s *Server) Swap(next *Corpus) *Corpus {
	prev := s.corpus.Swap(next)
	s.swaps.Inc()
	return prev
}

// Handler returns the server's HTTP routes:
//
//	POST /search?proc=NAME[&image=N]  query executable in the body → findings JSON
//	GET  /healthz           liveness + build identity JSON
//	GET  /corpus            installed-corpus summary
//	GET  /metrics           telemetry snapshot JSON (?format=prom for Prometheus)
//	GET  /debug/requests    tail-sampled slow-request traces
//
// Every route runs under the instrumentation middleware: per-endpoint
// request counters plus, when Config.AccessLog is set, one structured
// log line per request.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/search", s.handleSearch)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/corpus", s.handleCorpus)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/requests", s.handleDebugRequests)
	return s.instrument(mux)
}

// statusWriter captures the response status and body size for the
// access log.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	n, err := sw.ResponseWriter.Write(p)
	sw.bytes += int64(n)
	return n, err
}

// instrument wraps the route mux with the cross-cutting request
// observability: per-endpoint counters and the structured access log.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		if c, ok := s.endpoints[r.URL.Path]; ok {
			c.Inc()
		} else {
			s.reqOther.Inc()
		}
		if lg := s.cfg.AccessLog; lg != nil {
			status := sw.status
			if status == 0 {
				status = http.StatusOK
			}
			attrs := []slog.Attr{
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", status),
				slog.Int64("bytes", sw.bytes),
				slog.Float64("elapsed_ms", float64(time.Since(t0))/float64(time.Millisecond)),
			}
			if tid := sw.Header().Get(TraceHeader); tid != "" {
				attrs = append(attrs, slog.String("trace", tid))
			}
			lg.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs...)
		}
	})
}

// SearchResponse is the /search response schema.
type SearchResponse struct {
	SchemaVersion int    `json:"schema_version"`
	Corpus        string `json:"corpus"`
	Procedure     string `json:"procedure"`
	// QueryStrands is the query procedure's strand-set size — the
	// denominator behind every finding's confidence.
	QueryStrands int `json:"query_strands"`
	// Images holds one entry per corpus image, in corpus order.
	Images []firmup.ImageFindings `json:"images"`
	// TotalFindings sums findings across images.
	TotalFindings int `json:"total_findings"`
	// ElapsedMS is the server-side request latency in milliseconds.
	ElapsedMS float64 `json:"elapsed_ms"`
	// TraceID echoes the request's trace ID when the request was traced
	// (the same value the TraceHeader response header carries).
	TraceID string `json:"trace_id,omitempty"`
}

// errorResponse is the JSON error envelope on every non-2xx response.
type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST a query executable to /search")
		return
	}
	// Admission control: bounded in-flight searches. Reject before any
	// expensive work so an overloaded server sheds load in microseconds.
	select {
	case s.sem <- struct{}{}:
	default:
		s.rejected.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
		writeError(w, http.StatusTooManyRequests, "server at capacity (%d in-flight searches); retry later", s.cfg.maxInFlight())
		return
	}
	defer func() { <-s.sem }()
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	s.reqs.Inc()
	t0 := time.Now()

	// Every request runs under one span tree, timed into the registry's
	// stages; a sampled request also records it into a pooled trace. The
	// trace header goes out before any body write, and the deferred Offer
	// (a no-op without a trace) covers every return path — error responses
	// are traced too.
	tr, traceID := s.sampleTrace(r)
	if tr != nil {
		w.Header().Set(TraceHeader, traceID.String())
	}
	root := telemetry.Root(s.cfg.Registry, tr).Start("serve.request")
	root.SetAttrStr("endpoint", "/search")
	defer func() {
		root.End()
		s.traceBuf.Offer(tr, time.Since(t0))
	}()

	cs := s.corpus.Load()
	if cs == nil {
		writeError(w, http.StatusServiceUnavailable, "no corpus loaded")
		return
	}
	proc := r.URL.Query().Get("proc")
	if proc == "" {
		writeError(w, http.StatusBadRequest, "missing required query parameter: proc")
		return
	}
	opt, err := searchOptions(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	image, err := imageParam(r, cs)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	rsp := root.Start("serve.read_body")
	limit := s.cfg.maxQueryBytes()
	var buf bytes.Buffer
	if n := r.ContentLength; n > 0 && n <= limit {
		// Room for the declared body and the MinRead ReadFrom keeps free,
		// so reading it grows nothing.
		buf.Grow(int(n) + bytes.MinRead)
	}
	_, err = buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	body := buf.Bytes()
	rsp.SetAttr("bytes", int64(len(body)))
	rsp.End()
	if err != nil {
		// Only an over-limit body is "too large"; a short or aborted one
		// is the client's malformed request.
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, "reading query executable: %v", err)
		return
	}
	asp := root.Start("serve.analyze_query")
	query, err := s.analyzeQuery(cs, body, asp)
	asp.End()
	if err != nil {
		// An upload is analysed against the corpus vocabulary: a shard
		// that fails to decode there is the corpus's fault, not the
		// request's.
		status := http.StatusBadRequest
		if errors.Is(err, firmup.ErrCorpusCorrupt) {
			status = http.StatusInternalServerError
		}
		writeError(w, status, "analyzing query executable: %v", err)
		return
	}
	info, ok := query.Procedure(proc)
	if !ok {
		writeError(w, http.StatusBadRequest, "firmup: query executable has no procedure %q", proc)
		return
	}
	ssp := root.Start("serve.search")
	opt.Span = ssp
	images, err := searchImages(cs, image, query, proc, opt)
	ssp.End()
	if err != nil {
		// The procedure resolved, so what is left is a corpus fault (a
		// shard that fails to decode), not a bad request.
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	resp := &SearchResponse{
		SchemaVersion: SchemaVersion,
		Corpus:        cs.Name,
		Procedure:     proc,
		QueryStrands:  info.Strands,
		Images:        images,
	}
	if tr != nil {
		resp.TraceID = traceID.String()
	}
	for i := range images {
		if images[i].Findings == nil {
			images[i].Findings = []firmup.Finding{}
		}
		resp.TotalFindings += len(images[i].Findings)
	}
	elapsed := time.Since(t0)
	resp.ElapsedMS = float64(elapsed) / float64(time.Millisecond)
	s.latency.Observe(elapsed.Microseconds())
	writeJSON(w, http.StatusOK, resp)
}

// analyzeQuery returns the analysed form of an uploaded query
// executable: the corpus's cached one when these bytes have been
// analysed against it before, a fresh analysis otherwise. The value is
// immutable and shared by every request that hits it. A fresh analysis
// is stored only on the hash's second sight (see queryCache), and never
// when it failed; concurrent first analyses of one hash all run and the
// first to finish is the one kept. span is the request's
// serve.analyze_query span, which a fresh analysis hangs the front-end
// layers under.
func (s *Server) analyzeQuery(cs *Corpus, body []byte, span telemetry.Span) (*firmup.Executable, error) {
	key := queryKey(sha256.Sum256(body))
	query, seen := cs.queries.lookup(key, &s.cache)
	if query != nil {
		span.SetAttrStr("cache", "hit")
		return query, nil
	}
	span.SetAttrStr("cache", "miss")
	query, err := cs.Sealed.AnalyzeQuery(body, &firmup.Options{Span: span})
	if err == nil && seen {
		cs.queries.attach(key, query, len(body), &s.cache)
	}
	return query, err
}

// sampleTrace decides whether this request is traced and under which
// ID. A well-formed caller-provided TraceHeader ID always wins and
// forces sampling; otherwise TraceSample picks (0 = header-only,
// 1 = all, N = every Nth) and the server mints the ID.
func (s *Server) sampleTrace(r *http.Request) (*telemetry.Trace, telemetry.TraceID) {
	if hv := r.Header.Get(TraceHeader); hv != "" {
		if id, ok := telemetry.ParseTraceID(hv); ok {
			return telemetry.NewTrace(id), id
		}
	}
	n := s.cfg.TraceSample
	switch {
	case n <= 0:
		return nil, 0
	case n == 1:
	default:
		if s.traceSeq.Add(1)%uint64(n) != 0 {
			return nil, 0
		}
	}
	id := telemetry.NewTraceID()
	return telemetry.NewTrace(id), id
}

// imageParam parses the optional image query parameter: an index into
// the corpus's Images(), or -1 (absent) for a corpus-wide search.
func imageParam(r *http.Request, cs *Corpus) (int, error) {
	v := r.URL.Query().Get("image")
	if v == "" {
		return -1, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 || n >= len(cs.Sealed.Images()) {
		return 0, fmt.Errorf("bad image %q (corpus has %d images)", v, len(cs.Sealed.Images()))
	}
	return n, nil
}

// searchImages searches the whole corpus, or a single image when
// image >= 0.
func searchImages(cs *Corpus, image int, query *firmup.Executable, proc string, opt *firmup.Options) ([]firmup.ImageFindings, error) {
	if image < 0 {
		return cs.Sealed.SearchAll(query, proc, opt)
	}
	img := cs.Sealed.Images()[image]
	res, err := cs.Sealed.SearchImageDetailed(query, proc, img, opt)
	if err != nil {
		return nil, err
	}
	return []firmup.ImageFindings{imageFindings(img, res.Findings, res.Examined)}, nil
}

func imageFindings(img *firmup.SealedImage, findings []firmup.Finding, examined int) firmup.ImageFindings {
	return firmup.ImageFindings{
		Vendor:   img.Vendor,
		Device:   img.Device,
		Version:  img.Version,
		Findings: findings,
		Examined: examined,
	}
}

// searchOptions builds the per-request search options from the URL
// parameters.
func searchOptions(r *http.Request) (*firmup.Options, error) {
	opt := &firmup.Options{}
	q := r.URL.Query()
	if v := q.Get("min_score"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad min_score %q", v)
		}
		opt.MinScore = n
	}
	if v := q.Get("min_ratio"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || !(f > 0 && f <= 1) { // also refuses NaN
			return nil, fmt.Errorf("bad min_ratio %q", v)
		}
		opt.MinRatio = f
	}
	if v := q.Get("exhaustive"); v == "1" || v == "true" {
		opt.Exhaustive = true
	}
	return opt, nil
}

// HealthInfo is the /healthz response schema: liveness plus the build
// identity, so a deployed daemon can always be matched back to the
// commit it was built from.
type HealthInfo struct {
	Status    string  `json:"status"`
	Revision  string  `json:"revision"`
	GoVersion string  `json:"go_version"`
	UptimeS   float64 `json:"uptime_s"`
	Corpus    string  `json:"corpus,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	info := HealthInfo{
		Status:    "ok",
		Revision:  buildinfo.Revision(),
		GoVersion: buildinfo.GoVersion(),
		UptimeS:   time.Since(s.start).Seconds(),
	}
	if cs := s.corpus.Load(); cs != nil {
		info.Corpus = cs.Name
	}
	writeJSON(w, http.StatusOK, info)
}

// CorpusInfo is the /corpus response schema. Executables counts every
// occurrence, UniqueExecutables what the corpus stores and searches.
// Shards is present only when the serving corpus is backed by FWCORP
// shard files.
type CorpusInfo struct {
	Name              string               `json:"name"`
	Images            int                  `json:"images"`
	Executables       int                  `json:"executables"`
	UniqueExecutables int                  `json:"unique_executables"`
	UniqueStrands     int                  `json:"unique_strands"`
	LoadedAt          string               `json:"loaded_at"`
	Swaps             int64                `json:"swaps"`
	Shards            []firmup.SealedShard `json:"shards,omitempty"`
}

func (s *Server) handleCorpus(w http.ResponseWriter, _ *http.Request) {
	cs := s.corpus.Load()
	if cs == nil {
		writeError(w, http.StatusServiceUnavailable, "no corpus loaded")
		return
	}
	writeJSON(w, http.StatusOK, CorpusInfo{
		Name:              cs.Name,
		Images:            len(cs.Sealed.Images()),
		Executables:       cs.Sealed.Executables(),
		UniqueExecutables: cs.Sealed.UniqueExecutables(),
		UniqueStrands:     cs.Sealed.UniqueStrands(),
		LoadedAt:          cs.LoadedAt.UTC().Format(time.RFC3339),
		Swaps:             s.swaps.Value(),
		Shards:            cs.Sealed.Shards(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = telemetry.WritePrometheus(w, s.cfg.Registry)
		return
	}
	writeJSON(w, http.StatusOK, s.cfg.Registry.Snapshot())
}

// handleDebugRequests serves the tail-sampling buffer: the slowest
// retained traces plus the recent over-threshold ring, as full span
// trees with per-shard latency attribution.
func (s *Server) handleDebugRequests(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.traceBuf.Snapshot())
}
