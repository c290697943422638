package serve_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"firmup"
	"firmup/internal/corpus"
	"firmup/internal/serve"
	"firmup/internal/snapshot"
	"firmup/internal/telemetry"
	"firmup/internal/uir"
)

// The sealed corpus is immutable and the corpus build dominates test
// time, so every test shares one.
var (
	scenarioOnce   sync.Once
	scenarioSealed *firmup.SealedCorpus
	scenarioQuery  []byte
	scenarioErr    error
)

func buildScenario(t *testing.T) (*firmup.SealedCorpus, []byte) {
	t.Helper()
	scenarioOnce.Do(func() {
		scenarioSealed, scenarioErr = sealScale(corpus.DefaultScale())
		if scenarioErr != nil {
			return
		}
		qf, err := corpus.QueryExe("wget", "1.15", uir.ArchMIPS32)
		if err != nil {
			scenarioErr = err
			return
		}
		scenarioQuery = qf.Bytes()
	})
	if scenarioErr != nil {
		t.Fatal(scenarioErr)
	}
	return scenarioSealed, scenarioQuery
}

// sealScale generates a corpus of the given scale, analyses every image
// under one session and seals it.
func sealScale(scale corpus.Scale) (*firmup.SealedCorpus, error) {
	c, err := corpus.Build(scale)
	if err != nil {
		return nil, err
	}
	a := firmup.NewAnalyzer(nil)
	var imgs []*firmup.Image
	for _, bi := range c.Images {
		img, err := a.OpenImage(bi.Image.Pack(true))
		if err != nil {
			return nil, err
		}
		imgs = append(imgs, img)
	}
	return a.Seal(imgs...)
}

func newCorpus(name string, sc *firmup.SealedCorpus) *serve.Corpus {
	return &serve.Corpus{Name: name, Sealed: sc, LoadedAt: time.Now()}
}

func postSearch(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, blob
}

func TestServeSearch(t *testing.T) {
	sc, query := buildScenario(t)
	srv := serve.New(newCorpus("test.fwcorp", sc), nil)
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
	if sr.SchemaVersion != serve.SchemaVersion {
		t.Errorf("schema_version = %d, want %d", sr.SchemaVersion, serve.SchemaVersion)
	}
	if sr.Corpus != "test.fwcorp" || sr.Procedure != "ftp_retrieve_glob" {
		t.Errorf("identity fields wrong: %q %q", sr.Corpus, sr.Procedure)
	}
	if len(sr.Images) != len(sc.Images()) {
		t.Errorf("images = %d, want %d", len(sr.Images), len(sc.Images()))
	}
	if sr.TotalFindings == 0 {
		t.Error("no findings for the wget query against the default corpus")
	}
	if sr.QueryStrands == 0 {
		t.Error("query_strands missing")
	}
	// Empty findings must encode as [], never null — the schema
	// consumers index into the array unconditionally.
	if bytes.Contains(blob, []byte(`"findings":null`)) {
		t.Error("an image's findings encoded as null")
	}

	// approx is an ordinary unknown parameter: ignored, whatever its value.
	want := normalizeResponse(t, blob)
	resp, blob = postSearch(t, ts.URL+"/search?proc=ftp_retrieve_glob&approx=1", query)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("approx=1 status %d: %s", resp.StatusCode, blob)
	}
	got := normalizeResponse(t, blob)
	got.TraceID, want.TraceID = "", ""
	if !reflect.DeepEqual(got, want) {
		t.Errorf("approx=1 changed the response:\ngot:  %+v\nwant: %+v", got, want)
	}
}

func TestServeRequestErrors(t *testing.T) {
	sc, query := buildScenario(t)
	srv := serve.New(newCorpus("c", sc), &serve.Config{MaxQueryBytes: int64(len(query) + 1)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if resp, err := http.Get(ts.URL + "/search?proc=x"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /search status %d, want 405", resp.StatusCode)
	}
	if resp, _ := postSearch(t, ts.URL+"/search", query); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing proc status %d, want 400", resp.StatusCode)
	}
	if resp, _ := postSearch(t, ts.URL+"/search?proc=x&min_score=zero", query); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad min_score status %d, want 400", resp.StatusCode)
	}
	if resp, _ := postSearch(t, ts.URL+"/search?proc=x&min_ratio=2", query); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad min_ratio status %d, want 400", resp.StatusCode)
	}
	// NaN fails every comparison, so a refusal written as f <= 0 || f > 1
	// lets it through and turns the ratio floor off. The procedure exists,
	// so only the parameter can refuse this request.
	if resp, _ := postSearch(t, ts.URL+"/search?proc=ftp_retrieve_glob&min_ratio=NaN", query); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("min_ratio=NaN status %d, want 400", resp.StatusCode)
	}
	if resp, _ := postSearch(t, ts.URL+"/search?proc=x", []byte("not an executable")); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage query status %d, want 400", resp.StatusCode)
	}
	big := make([]byte, len(query)+2)
	if resp, _ := postSearch(t, ts.URL+"/search?proc=x", big); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body status %d, want 413", resp.StatusCode)
	}

	empty := serve.New(nil, nil)
	tse := httptest.NewServer(empty.Handler())
	defer tse.Close()
	if resp, _ := postSearch(t, tse.URL+"/search?proc=x", query); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("no-corpus status %d, want 503", resp.StatusCode)
	}
}

// TestServeAdmissionControl occupies the single admission slot with a
// request whose body never arrives, then verifies the next request is
// shed immediately with 429 + Retry-After rather than queued.
func TestServeAdmissionControl(t *testing.T) {
	sc, query := buildScenario(t)
	reg := telemetry.New()
	srv := serve.New(newCorpus("c", sc), &serve.Config{MaxInFlight: 1, Registry: reg})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/search?proc=ftp_retrieve_glob", "application/octet-stream", pr)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("blocked request finished with status %d", resp.StatusCode)
			}
		}
		done <- err
	}()
	// Wait for the first request to be admitted (it then blocks reading
	// its body, holding the slot).
	gauge := reg.Gauge("serve.inflight")
	deadline := time.Now().Add(5 * time.Second)
	for gauge.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first request never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	resp, _ := postSearch(t, ts.URL+"/search?proc=ftp_retrieve_glob", query)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", got)
	}
	if reg.Counter("serve.rejected").Value() == 0 {
		t.Error("serve.rejected not incremented")
	}

	// Deliver the body; the admitted request must still complete.
	if _, err := pw.Write(query); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestServeHotSwapUnderLoad swaps the corpus while concurrent searches
// are in flight: no request may fail, every response must name one of
// the two corpora, and requests arriving after the swap see the new
// one.
func TestServeHotSwapUnderLoad(t *testing.T) {
	sc, query := buildScenario(t)
	reg := telemetry.New()
	srv := serve.New(newCorpus("A", sc), &serve.Config{MaxInFlight: 64, Registry: reg})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const workers = 4
	const perWorker = 20
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	names := make(chan string, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				resp, err := http.Post(ts.URL+"/search?proc=ftp_retrieve_glob", "application/octet-stream", bytes.NewReader(query))
				if err != nil {
					errs <- err
					return
				}
				blob, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("status %d during swap load: %s", resp.StatusCode, blob)
					return
				}
				var sr serve.SearchResponse
				if err := json.Unmarshal(blob, &sr); err != nil {
					errs <- err
					return
				}
				if sr.TotalFindings == 0 {
					errs <- fmt.Errorf("response from corpus %q lost its findings", sr.Corpus)
					return
				}
				names <- sr.Corpus
			}
		}()
	}
	// Let some requests land on A, then swap mid-load.
	for reg.Counter("serve.requests").Value() < workers {
		time.Sleep(time.Millisecond)
	}
	prev := srv.Swap(newCorpus("B", sc))
	if prev == nil || prev.Name != "A" {
		t.Errorf("Swap returned %+v, want previous corpus A", prev)
	}
	wg.Wait()
	close(errs)
	close(names)
	for err := range errs {
		t.Error(err)
	}
	for name := range names {
		if name != "A" && name != "B" {
			t.Errorf("response names unknown corpus %q", name)
		}
	}
	// After the swap has settled, new requests must see B.
	resp, blob := postSearch(t, ts.URL+"/search?proc=ftp_retrieve_glob", query)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-swap status %d", resp.StatusCode)
	}
	var sr serve.SearchResponse
	if err := json.Unmarshal(blob, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Corpus != "B" {
		t.Errorf("post-swap response from %q, want B", sr.Corpus)
	}
}

func TestServeCorpusAndMetricsEndpoints(t *testing.T) {
	sc, query := buildScenario(t)
	reg := telemetry.New()
	srv := serve.New(newCorpus("c.fwcorp", sc), &serve.Config{Registry: reg})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if resp, blob := postSearch(t, ts.URL+"/search?proc=ftp_retrieve_glob", query); resp.StatusCode != http.StatusOK {
		t.Fatalf("search status %d: %s", resp.StatusCode, blob)
	}

	resp, err := http.Get(ts.URL + "/corpus")
	if err != nil {
		t.Fatal(err)
	}
	var info serve.CorpusInfo
	err = json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "c.fwcorp" || info.Images != len(sc.Images()) ||
		info.Executables != sc.Executables() || info.UniqueExecutables != sc.UniqueExecutables() ||
		info.UniqueStrands != sc.UniqueStrands() {
		t.Errorf("corpus info mismatch: %+v", info)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap telemetry.Snapshot
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Counters["serve.requests"] < 1 {
		t.Errorf("serve.requests = %d, want >= 1", snap.Counters["serve.requests"])
	}
	h, ok := snap.Histograms["serve.latency_us"]
	if !ok {
		t.Fatal("metrics lack serve.latency_us histogram")
	}
	if h.Count < 1 || h.P50 <= 0 {
		t.Errorf("latency histogram vacuous: %+v", h)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", resp.StatusCode)
	}
}

// normalizeResponse strips the fields that legitimately differ between
// a batched and an unbatched run of the same search (latency).
func normalizeResponse(t *testing.T, blob []byte) serve.SearchResponse {
	t.Helper()
	var sr serve.SearchResponse
	if err := json.Unmarshal(blob, &sr); err != nil {
		t.Fatalf("bad search response: %v: %s", err, blob)
	}
	sr.ElapsedMS = 0
	return sr
}

// TestServeBatchImageParamErrors pins the image and proc parameters'
// validation against the corpus and the upload.
func TestServeBatchImageParamErrors(t *testing.T) {
	sc, query := buildScenario(t)
	srv := serve.New(newCorpus("c", sc), nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, bad := range []string{"x", "-1", fmt.Sprintf("%d", len(sc.Images()))} {
		if resp, _ := postSearch(t, ts.URL+"/search?proc=ftp_retrieve_glob&image="+bad, query); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("image=%s status %d, want 400", bad, resp.StatusCode)
		}
	}
	// So does a procedure the query executable does not have.
	if resp, _ := postSearch(t, ts.URL+"/search?proc=no_such_proc", query); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown proc status %d, want 400", resp.StatusCode)
	}
}

// TestServeFindingsFileSchema validates a findings JSON file captured
// from a running firmupd (the CI smoke step curls /search into a file
// and points FIRMUPD_FINDINGS_FILE here). Skipped when the variable is
// unset.
func TestServeFindingsFileSchema(t *testing.T) {
	path := os.Getenv("FIRMUPD_FINDINGS_FILE")
	if path == "" {
		t.Skip("FIRMUPD_FINDINGS_FILE not set")
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(blob, &raw); err != nil {
		t.Fatalf("findings file is not a JSON object: %v", err)
	}
	var schema int
	if err := json.Unmarshal(raw["schema_version"], &schema); err != nil || schema != serve.SchemaVersion {
		t.Fatalf("schema_version = %s, want %d", raw["schema_version"], serve.SchemaVersion)
	}
	var sr serve.SearchResponse
	if err := json.Unmarshal(blob, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Procedure == "" {
		t.Error("response lacks procedure")
	}
	if len(sr.Images) == 0 {
		t.Fatal("response has no images")
	}
	if sr.TotalFindings == 0 {
		t.Error("smoke query found nothing; expected at least one detection")
	}
	total := 0
	for i, im := range sr.Images {
		if im.Vendor == "" || im.Device == "" || im.Version == "" {
			t.Errorf("image %d lacks identity: %+v", i, im)
		}
		if im.Findings == nil {
			t.Errorf("image %d findings is null, want []", i)
		}
		for _, f := range im.Findings {
			if f.ExePath == "" || f.ProcName == "" || f.Score <= 0 || f.Confidence <= 0 {
				t.Errorf("image %d has malformed finding: %+v", i, f)
			}
		}
		total += len(im.Findings)
	}
	if total != sr.TotalFindings {
		t.Errorf("total_findings = %d but images carry %d", sr.TotalFindings, total)
	}
}

// TestServePanickingShardIs500 truncates, under a running server and
// after a first search, the shard that stores the executables the search
// found. The search faults reading the strand sets of the executables it
// materialized. If that shard is shard 0, the cut keeps the pages its
// vocabulary lies in, so query analysis still reads the vocabulary. The
// poisoned request must be a 500 naming the memory fault and the shard,
// with its trace ID; /corpus then reports that shard corrupt, and only
// it, and the shard.corrupt gauge goes from 0 to 1; and the process and
// the server carry on. That the search's worker count does not matter is
// the facade's TestTruncatedShardDegradesSearch.
func TestServePanickingShardIs500(t *testing.T) {
	sc, query := buildScenario(t)
	dir := t.TempDir()
	paths, err := sc.WriteShards(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := firmup.OpenSealedCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	if !sharded.Shards()[0].Mapped {
		t.Skip("shards are read into memory here: truncating the file does not reach the open corpus")
	}
	reg := telemetry.New()
	srv := serve.New(newCorpus("sharded", sharded), &serve.Config{TraceSample: 1, Registry: reg})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, blob := postSearch(t, ts.URL+"/search?proc=ftp_retrieve_glob", query)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d before the damage: %s", resp.StatusCode, blob)
	}
	if n := reg.Snapshot().Gauges["shard.corrupt"]; n != 0 {
		t.Errorf("shard.corrupt = %d before the damage, want 0", n)
	}
	var sr serve.SearchResponse
	if err := json.Unmarshal(blob, &sr); err != nil {
		t.Fatal(err)
	}
	stored := storingShards(t, paths)
	d := -1
	for ii, im := range sr.Images {
		if len(im.Findings) > 0 {
			d = stored[ii][im.Findings[0].ExePath]
			break
		}
	}
	if d < 0 {
		t.Fatal("the search before the damage found nothing")
	}
	name := fmt.Sprintf("shard-%04d.fwcorp", d)

	// A shard other than 0 holds no vocabulary: cut it whole. Cut shard 0
	// at the first page boundary past its vocabulary (tag 17); its strand
	// IDs (tag 22) must lie wholly beyond the cut.
	cut := uint64(64)
	if d == 0 {
		file, err := os.ReadFile(paths[0])
		if err != nil {
			t.Fatal(err)
		}
		sections := map[uint32][2]uint64{}
		le := binary.LittleEndian
		for k := range int(le.Uint32(file[12:])) {
			row := file[16+24*k:]
			sections[le.Uint32(row)] = [2]uint64{le.Uint64(row[4:]), le.Uint64(row[12:])}
		}
		page := uint64(os.Getpagesize())
		vocab, ids := sections[17], sections[22]
		cut = (vocab[0] + vocab[1] + page - 1) / page * page
		if ids[1] == 0 || ids[0] < cut {
			t.Fatalf("shard 0's strand IDs [%d, +%d) start before the cut at %d", ids[0], ids[1], cut)
		}
	}
	if err := os.Truncate(paths[d], int64(cut)); err != nil {
		t.Fatal(err)
	}

	resp, blob = postSearch(t, ts.URL+"/search?proc=ftp_retrieve_glob", query)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d after the damage, want 500: %s", resp.StatusCode, blob)
	}
	if !bytes.Contains(blob, []byte("memory fault")) || !bytes.Contains(blob, []byte(name)) {
		t.Errorf("error does not name the memory fault and %s: %s", name, blob)
	}
	if resp.Header.Get(serve.TraceHeader) == "" {
		t.Error("500 carries no trace ID")
	}
	info := getCorpus(t, ts.URL)
	if len(info.Shards) != 2 || !strings.Contains(info.Shards[d].Corrupt, name) || info.Shards[1-d].Corrupt != "" {
		t.Errorf("/corpus after the damage reports shards %+v, want shard %d alone corrupt", info.Shards, d)
	}
	if n := reg.Snapshot().Gauges["shard.corrupt"]; n != 1 {
		t.Errorf("shard.corrupt = %d after the damage, want 1", n)
	}
	// Still serving: a per-image search passes over only the shards that
	// store the image's executables.
	undamaged := slices.IndexFunc(stored, func(exes map[string]int) bool {
		for _, si := range exes {
			if si == d {
				return false
			}
		}
		return true
	})
	if undamaged < 0 {
		t.Fatalf("every image has an executable in shard %d", d)
	}
	if resp, blob := postSearch(t, fmt.Sprintf("%s/search?proc=ftp_retrieve_glob&image=%d", ts.URL, undamaged), query); resp.StatusCode != http.StatusOK {
		t.Errorf("status %d for image %d, stored outside the damaged shard: %s", resp.StatusCode, undamaged, blob)
	}
}

// storingShards reads the shard set written to paths and returns, by
// image in corpus order, the shard storing each of the image's
// executables, keyed by the path it ships under.
func storingShards(t *testing.T, paths []string) []map[string]int {
	t.Helper()
	var shards []*snapshot.CorpusShard
	for _, p := range paths {
		s, err := snapshot.OpenCorpusShardFile(p)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		shards = append(shards, s)
	}
	var out []map[string]int
	for _, s := range shards {
		for li := range s.NumImages() {
			occs, err := s.Occurrences(li)
			if err != nil {
				t.Fatal(err)
			}
			exes := map[string]int{}
			for _, oc := range occs {
				exes[oc.Path] = slices.IndexFunc(shards, func(st *snapshot.CorpusShard) bool {
					return oc.Exe >= st.Header().ExeBase && oc.Exe < st.Header().ExeBase+st.NumExes()
				})
			}
			out = append(out, exes)
		}
	}
	return out
}

// TestServeTruncatedVocabularyIs500: with shard 0 truncated whole under a
// running server, analysing an upload faults reading the vocabulary the
// shard stores. That is the corpus's fault, not the upload's: a 500
// naming the shard, with /corpus reporting shard 0 corrupt, and the
// server carries on.
func TestServeTruncatedVocabularyIs500(t *testing.T) {
	sc, query := buildScenario(t)
	dir := t.TempDir()
	paths, err := sc.WriteShards(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := firmup.OpenSealedCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	if !sharded.Shards()[0].Mapped {
		t.Skip("shards are read into memory here: truncating the file does not reach the open corpus")
	}
	ts := httptest.NewServer(serve.New(newCorpus("sharded", sharded), nil).Handler())
	defer ts.Close()
	if err := os.Truncate(paths[0], 64); err != nil {
		t.Fatal(err)
	}
	resp, blob := postSearch(t, ts.URL+"/search?proc=ftp_retrieve_glob", query)
	if resp.StatusCode != http.StatusInternalServerError || !bytes.Contains(blob, []byte("shard-0000.fwcorp")) {
		t.Errorf("status %d after the damage, want a 500 naming shard-0000.fwcorp: %s", resp.StatusCode, blob)
	}
	if info := getCorpus(t, ts.URL); len(info.Shards) != 2 || !strings.Contains(info.Shards[0].Corrupt, "shard-0000.fwcorp") || info.Shards[1].Corrupt != "" {
		t.Errorf("/corpus after the damage reports shards %+v, want shard 0 alone corrupt", info.Shards)
	}
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz after the damage: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}
}

// getCorpus fetches and decodes /corpus.
func getCorpus(t *testing.T, url string) serve.CorpusInfo {
	t.Helper()
	resp, err := http.Get(url + "/corpus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info serve.CorpusInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info
}
