package serve_test

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"reflect"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"firmup"
	"firmup/internal/corpus"
	"firmup/internal/serve"
	"firmup/internal/telemetry"
	"firmup/internal/uir"
)

var volatileFields = regexp.MustCompile(`"elapsed_ms":[^,}]*(,"trace_id":"[0-9a-f]*")?`)

// stripVolatile blanks the two response fields that legitimately differ
// between two answers to one request, leaving every other byte.
func stripVolatile(blob []byte) string {
	return string(volatileFields.ReplaceAll(blob, []byte(`"elapsed_ms":0`)))
}

// search posts one query and returns the 200 body with the volatile
// fields stripped.
func search(url string, body []byte) (string, error) {
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("POST %s: status %d: %s", url, resp.StatusCode, blob)
	}
	return stripVolatile(blob), nil
}

func mustSearch(t *testing.T, url string, body []byte) string {
	t.Helper()
	got, err := search(url, body)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// tracedSearch is mustSearch under the given trace ID, returning the
// request's retained trace beside the stripped body.
func tracedSearch(t *testing.T, base, url string, body []byte, id string) (string, telemetry.TraceSnapshot) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
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
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d, %v: %s", url, resp.StatusCode, err, blob)
	}
	var snap telemetry.RequestsSnapshot
	getJSON(t, base+"/debug/requests", &snap)
	tr, ok := findTrace(snap, id)
	if !ok {
		t.Fatalf("trace %s not retained", id)
	}
	return stripVolatile(blob), tr
}

// analyzeSubtree returns a trace's serve.analyze_query span and the
// spans below it: the sorted child names of every span that has some,
// keyed by its own name.
func analyzeSubtree(tr telemetry.TraceSnapshot) (analyze telemetry.TraceSpan, under map[string][]string) {
	under = map[string][]string{}
	names := map[int32]string{}
	for _, sp := range tr.Spans { // in ID order: parents come first
		if sp.Name == "serve.analyze_query" {
			analyze = sp
			names[sp.ID] = sp.Name
		} else if parent, ok := names[sp.Parent]; ok {
			names[sp.ID] = sp.Name
			under[parent] = append(under[parent], sp.Name)
		}
	}
	for _, children := range under {
		sort.Strings(children)
	}
	return analyze, under
}

// searchConcurrently posts the same body to every URL at once and
// returns the stripped 200 bodies in URL order.
func searchConcurrently(t *testing.T, urls []string, body []byte) []string {
	t.Helper()
	out := make([]string, len(urls))
	var wg sync.WaitGroup
	for i, u := range urls {
		wg.Add(1)
		go func(i int, u string) {
			defer wg.Done()
			var err error
			if out[i], err = search(u, body); err != nil {
				t.Error(err)
			}
		}(i, u)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	return out
}

type cacheCounts struct{ hits, misses, admitted, evicted, bytes int64 }

func queryCacheCounts(reg *telemetry.Registry) cacheCounts {
	return cacheCounts{
		hits:     reg.Counter("serve.query_cache.hits").Value(),
		misses:   reg.Counter("serve.query_cache.misses").Value(),
		admitted: reg.Counter("serve.query_cache.admitted").Value(),
		evicted:  reg.Counter("serve.query_cache.evicted").Value(),
		bytes:    reg.Snapshot().Gauges["serve.query_cache.bytes"],
	}
}

// otherProcedure names a procedure of the query executable other than
// the given one, the largest so that searching for it does real work.
func otherProcedure(t *testing.T, sc *firmup.SealedCorpus, query []byte, not string) string {
	t.Helper()
	exe, err := sc.AnalyzeQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	var best firmup.ProcedureInfo
	for _, p := range exe.Procedures() {
		if p.Name != not && p.Strands > best.Strands {
			best = p
		}
	}
	if best.Name == "" {
		t.Fatalf("query executable has no procedure besides %s", not)
	}
	return best.Name
}

// TestServeQueryCacheHitEqualsMiss is the cache's soundness test: the
// first answer to an upload (first sight, analysed), the second (second
// sight, analysed and admitted) and the third (served from the cache)
// are equal byte for byte outside elapsed_ms and trace_id — per image
// and corpus-wide.
func TestServeQueryCacheHitEqualsMiss(t *testing.T) {
	sc, query := buildScenario(t)
	for _, scope := range []string{"&image=1", ""} {
		t.Run(fmt.Sprintf("scope=%q", scope), func(t *testing.T) {
			reg := telemetry.New()
			srv := serve.New(newCorpus("c", sc), &serve.Config{Registry: reg})
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			url := ts.URL + "/search?proc=ftp_retrieve_glob" + scope

			// The first sight runs under a request trace: a miss, with the
			// front-end layers it ran hanging under the analyze span.
			first, miss := tracedSearch(t, ts.URL, url, query, "00000000000000ab")
			analyze, under := analyzeSubtree(miss)
			if analyze.Attrs["cache"] != "miss" {
				t.Errorf("first sight: analyze span = %+v, want cache=miss", analyze)
			}
			if want := map[string][]string{
				"serve.analyze_query": {"cfg.recover", "obj.parse", "sim.build"},
				"cfg.recover":         {"cfg.sweep"},
				"sim.build":           {"sim.index"},
			}; !reflect.DeepEqual(under, want) {
				t.Errorf("first sight: spans under serve.analyze_query = %v, want %v", under, want)
			}
			for n := 2; n <= 3; n++ {
				if got := mustSearch(t, url, query); got != first {
					t.Errorf("answer %d differs from the first:\n got %s\nwant %s", n, got, first)
				}
			}
			if got, want := queryCacheCounts(reg), (cacheCounts{hits: 1, misses: 2, admitted: 1}); got.hits != want.hits || got.misses != want.misses || got.admitted != want.admitted {
				t.Errorf("query cache counters = %+v, want %+v", got, want)
			}
			// A hit under a request trace says so, and analysed nothing.
			got, hit := tracedSearch(t, ts.URL, url, query, "00000000000000aa")
			if got != first {
				t.Errorf("traced hit differs from the first answer:\n got %s\nwant %s", got, first)
			}
			analyze, under = analyzeSubtree(hit)
			if analyze.Attrs["cache"] != "hit" {
				t.Errorf("analyze span = %+v, want cache=hit", analyze)
			}
			if len(under) != 0 {
				t.Errorf("a cache hit has spans under serve.analyze_query: %v", under)
			}
		})
	}
}

// TestServeQueryCacheSwapSafety swaps between two corpora sealed from
// different image sets with one upload warm on the first: the second
// corpus's answers equal a cold daemon's over it (nothing of A's cache
// leaks into B's vocabulary), a request in flight on A across the swap
// completes with A's answer, and once it has, nothing in the server
// keeps A's sealed corpus reachable — no server-level map of cached
// queries pins a corpus that has been swapped out.
func TestServeQueryCacheSwapSafety(t *testing.T) {
	scB, query := buildScenario(t)
	scA, err := sealScale(corpus.Scale{DevicesPerVendor: 2, MaxReleases: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	// The finalizer sits on the sealed corpus, not on the serve.Corpus:
	// the cache's list links back into the Corpus it is a field of, and
	// a finalizer on an object in a cycle never runs.
	collected := make(chan struct{})
	runtime.SetFinalizer(scA, func(*firmup.SealedCorpus) { close(collected) })

	cold := serve.New(newCorpus("B", scB), nil)
	tsCold := httptest.NewServer(cold.Handler())
	defer tsCold.Close()
	wantB := mustSearch(t, tsCold.URL+"/search?proc=ftp_retrieve_glob", query)

	reg := telemetry.New()
	srv := serve.New(newCorpus("A", scA), &serve.Config{MaxInFlight: 8, Registry: reg})
	scA = nil
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	url := ts.URL + "/search?proc=ftp_retrieve_glob"

	wantA := mustSearch(t, url, query)
	mustSearch(t, url, query)
	if got := mustSearch(t, url, query); got != wantA {
		t.Fatalf("A's cached answer differs from its first")
	}
	if c := queryCacheCounts(reg); c.hits != 1 || c.admitted != 1 || c.bytes == 0 {
		t.Fatalf("A not warm: %+v", c)
	}
	if wantA == strings.Replace(wantB, `"corpus":"B"`, `"corpus":"A"`, 1) {
		t.Fatal("the two corpora answer alike; the test cannot tell them apart")
	}

	// One request is held on A across the swap: the handler loads the
	// corpus pointer before it first reads the body, and the body is a
	// pipe the client only finishes further down.
	pw, inflight := heldSearch(t, url)
	srv.Swap(newCorpus("B", scB))
	if c := queryCacheCounts(reg); c.bytes != 0 {
		t.Errorf("serve.query_cache.bytes = %d right after the swap, want the new corpus's 0", c.bytes)
	}
	before := queryCacheCounts(reg)
	for n := 1; n <= 3; n++ {
		if got := mustSearch(t, url, query); got != wantB {
			t.Errorf("answer %d after the swap differs from a cold daemon over B:\n got %s\nwant %s", n, got, wantB)
		}
	}
	// B starts cold: two misses, then a hit.
	after := queryCacheCounts(reg)
	if after.hits != before.hits+1 || after.misses != before.misses+2 || after.admitted != before.admitted+1 {
		t.Errorf("counters across the swap %+v -> %+v, want +1 hit, +2 misses, +1 admitted", before, after)
	}
	// The held request still answers from A, out of A's cache.
	if _, err := pw.Write(query); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if got := <-inflight; got != wantA {
		t.Errorf("the request in flight across the swap did not get A's answer:\n got %s\nwant %s", got, wantA)
	}
	if c := queryCacheCounts(reg); c.hits != after.hits+1 || c.misses != after.misses {
		t.Errorf("counters %+v -> %+v, want the held request to hit A's cache", after, c)
	}

	ts.CloseClientConnections()
	deadline := time.After(10 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-deadline:
			t.Fatal("corpus A is still reachable 10s after its last request: something other than the installed-corpus pointer held it")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// heldSearch posts body to url through a pipe and returns once the
// handler has loaded its corpus and begun reading the body — it answered
// Expect: 100-continue on that first read — with the pipe's write end and
// where the stripped 200 body arrives ("" after a failure, reported on t).
func heldSearch(t *testing.T, url string) (*io.PipeWriter, <-chan string) {
	t.Helper()
	pr, pw := io.Pipe()
	reading := make(chan struct{})
	req, err := http.NewRequest(http.MethodPost, url, pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Expect", "100-continue")
	req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
		Got100Continue: func() { close(reading) },
	}))
	got := make(chan string, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			got <- ""
			return
		}
		defer resp.Body.Close()
		blob, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Errorf("held request: status %d, %v: %s", resp.StatusCode, err, blob)
			got <- ""
			return
		}
		got <- stripVolatile(blob)
	}()
	<-reading
	return pw, got
}

// TestServeSwapWhileBodiesArrive swaps two corpora, both with the upload
// warm in their query caches, back and forth while uploads are still
// arriving: requests held mid-body across each swap, and others streaming
// their bodies in two halves the whole time. A request analyses its query
// and searches it under the one corpus it loaded before reading the body,
// so every response is a 200 with the bytes of exactly one corpus's
// answer — never a 500 from a query analysed by one corpus and searched
// in the other — and a held request answers from the corpus it started
// on. Run under -race.
func TestServeSwapWhileBodiesArrive(t *testing.T) {
	scB, query := buildScenario(t)
	scA, err := sealScale(corpus.Scale{DevicesPerVendor: 2, MaxReleases: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	cA, cB := newCorpus("A", scA), newCorpus("B", scB)
	srv := serve.New(cB, &serve.Config{MaxInFlight: 16, Registry: reg})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	url := ts.URL + "/search?proc=ftp_retrieve_glob"

	want := map[*serve.Corpus]string{}
	for _, c := range []*serve.Corpus{cA, cB} {
		srv.Swap(c)
		want[c] = mustSearch(t, url, query)
		mustSearch(t, url, query) // second sight: admitted
	}
	if want[cA] == strings.Replace(want[cB], `"corpus":"B"`, `"corpus":"A"`, 1) {
		t.Fatal("the two corpora answer alike; the test cannot tell them apart")
	}
	if c := queryCacheCounts(reg); c.admitted != 2 {
		t.Fatalf("both caches must be warm: %+v", c)
	}

	half := len(query) / 2
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				pr, pw := io.Pipe()
				go func() {
					pw.Write(query[:half])
					time.Sleep(time.Millisecond)
					pw.Write(query[half:])
					pw.Close()
				}()
				resp, err := http.Post(url, "application/octet-stream", pr)
				if err != nil {
					t.Error(err)
					return
				}
				blob, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("streamed request: status %d, %v: %s", resp.StatusCode, err, blob)
					return
				}
				if got := stripVolatile(blob); got != want[cA] && got != want[cB] {
					t.Errorf("streamed request answered neither corpus's bytes:\n%s", got)
					return
				}
			}
		}()
	}
	cur, next := cB, cA
	for round := range 6 {
		var held []<-chan string
		var pws []*io.PipeWriter
		for range 2 {
			pw, got := heldSearch(t, url)
			pws, held = append(pws, pw), append(held, got)
		}
		for _, pw := range pws {
			pw.Write(query[:half])
		}
		srv.Swap(next)
		for _, pw := range pws {
			pw.Write(query[half:])
			pw.Close()
		}
		for _, got := range held {
			if g := <-got; g != want[cur] {
				t.Errorf("round %d: a request held across the swap did not answer from the corpus it started on:\n got %s\nwant %s", round, g, want[cur])
			}
		}
		cur, next = next, cur
	}
	close(stop)
	wg.Wait()
}

// TestServeQueryCacheOneOffsAdmitNothing streams distinct uploads, each
// posted once: every one is a miss that leaves a ghost, none is
// admitted, and a recurring upload warmed beforehand still hits
// afterwards.
func TestServeQueryCacheOneOffsAdmitNothing(t *testing.T) {
	sc, query := buildScenario(t)
	reg := telemetry.New()
	srv := serve.New(newCorpus("c", sc), &serve.Config{Registry: reg})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	mustSearch(t, ts.URL+"/search?proc=ftp_retrieve_glob&image=0", query)
	mustSearch(t, ts.URL+"/search?proc=ftp_retrieve_glob&image=0", query)
	warm := queryCacheCounts(reg)

	oneOffs := 0
	for _, pkg := range corpus.PackageNames() {
		for _, ver := range corpus.PackageVersions(pkg) {
			f, err := corpus.QueryExe(pkg, ver, uir.ArchARM32)
			if err != nil {
				t.Fatal(err)
			}
			mustSearch(t, ts.URL+"/search?image=0&proc="+otherProcedure(t, sc, f.Bytes(), ""), f.Bytes())
			oneOffs++
		}
	}
	got := queryCacheCounts(reg)
	if got.admitted != warm.admitted || got.evicted != 0 || got.hits != warm.hits {
		t.Errorf("%d one-off uploads moved the counters %+v -> %+v, want only misses", oneOffs, warm, got)
	}
	if got.misses != warm.misses+int64(oneOffs) {
		t.Errorf("misses = %d after %d one-offs on top of %d", got.misses, oneOffs, warm.misses)
	}
	if grown := got.bytes - warm.bytes; grown <= 0 || grown > int64(oneOffs)*256 {
		t.Errorf("serve.query_cache.bytes grew by %d for %d one-offs, want a ghost's worth each", grown, oneOffs)
	}
	mustSearch(t, ts.URL+"/search?proc=ftp_retrieve_glob&image=0", query)
	if c := queryCacheCounts(reg); c.hits != got.hits+1 {
		t.Errorf("the recurring upload missed after the one-off stream: %+v", c)
	}
}

// TestServeQueryCacheConcurrentFirstSight posts one never-seen upload
// from 32 goroutines at once: there is no single-flight, so several
// analyse it, every answer equals the miss path's, and exactly one of
// the analysed values is kept.
func TestServeQueryCacheConcurrentFirstSight(t *testing.T) {
	sc, query := buildScenario(t)
	ref := serve.New(newCorpus("c", sc), nil)
	tsRef := httptest.NewServer(ref.Handler())
	defer tsRef.Close()
	want := mustSearch(t, tsRef.URL+"/search?proc=ftp_retrieve_glob&image=2", query)

	const clients = 32
	reg := telemetry.New()
	srv := serve.New(newCorpus("c", sc), &serve.Config{MaxInFlight: clients, Registry: reg})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	urls := make([]string, clients)
	for i := range urls {
		urls[i] = ts.URL + "/search?proc=ftp_retrieve_glob&image=2"
	}
	for i, got := range searchConcurrently(t, urls, query) {
		if got != want {
			t.Errorf("client %d: answer differs from the miss path's:\n got %s\nwant %s", i, got, want)
		}
	}
	c := queryCacheCounts(reg)
	if c.admitted != 1 || c.hits+c.misses != clients || c.misses < 2 {
		t.Errorf("counters after %d concurrent first sights: %+v, want one value admitted", clients, c)
	}
}

// TestServeQueryCacheWorkersInvariant justifies leaving QueryWorkers
// out of the cache key: the analysed query is the same value whatever
// the worker budget, and so is the answer served from it.
func TestServeQueryCacheWorkersInvariant(t *testing.T) {
	sc, query := buildScenario(t)
	one, err := sc.AnalyzeQueryWith("query", query, 1)
	if err != nil {
		t.Fatal(err)
	}
	four, err := sc.AnalyzeQueryWith("query", query, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one.Procedures(), four.Procedures()) {
		t.Fatal("procedure tables differ between QueryWorkers 1 and 4")
	}
	for i := range one.Procedures() {
		if !reflect.DeepEqual(one.ProcedureStrands(i), four.ProcedureStrands(i)) ||
			!reflect.DeepEqual(one.ProcedureMarkers(i), four.ProcedureMarkers(i)) {
			t.Errorf("procedure %d differs between QueryWorkers 1 and 4", i)
		}
	}
	var hits [2]string
	for i, workers := range []int{1, 4} {
		srv := serve.New(newCorpus("c", sc), &serve.Config{QueryWorkers: workers})
		ts := httptest.NewServer(srv.Handler())
		for n := 0; n < 3; n++ {
			hits[i] = mustSearch(t, ts.URL+"/search?proc=ftp_retrieve_glob", query)
		}
		ts.Close()
	}
	if hits[0] != hits[1] {
		t.Errorf("cached answers differ between QueryWorkers 1 and 4:\n1: %s\n4: %s", hits[0], hits[1])
	}
}

// TestServeQueryCacheErrorsNotCached posts an upload that fails
// analysis: every request gets the same 400 and no value is kept.
func TestServeQueryCacheErrorsNotCached(t *testing.T) {
	sc, _ := buildScenario(t)
	reg := telemetry.New()
	srv := serve.New(newCorpus("c", sc), &serve.Config{Registry: reg})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var first []byte
	for n := 0; n < 3; n++ {
		resp, blob := postSearch(t, ts.URL+"/search?proc=x", []byte("not an executable"))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("request %d: status %d, want 400", n, resp.StatusCode)
		}
		if n == 0 {
			first = blob
		} else if !bytes.Equal(blob, first) {
			t.Errorf("request %d: error body %s, want %s", n, blob, first)
		}
	}
	if c := queryCacheCounts(reg); c.misses != 3 || c.hits != 0 || c.admitted != 0 {
		t.Errorf("counters after three failed analyses: %+v, want three misses and nothing admitted", c)
	}
}

// TestServeShortBodyIsBadRequest sends fewer body bytes than the
// request's Content-Length announces: the read error is the client's
// (400), not "entity too large" (413), which is kept for bodies over
// MaxQueryBytes.
func TestServeShortBodyIsBadRequest(t *testing.T) {
	sc, query := buildScenario(t)
	srv := serve.New(newCorpus("c", sc), nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /search?proc=ftp_retrieve_glob HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n", len(query))
	if _, err := conn.Write(query[:len(query)/2]); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	reply, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(reply, []byte("HTTP/1.1 400 ")) {
		t.Errorf("short body answered %q, want a 400", bytes.SplitN(reply, []byte("\r\n"), 2)[0])
	}
}
