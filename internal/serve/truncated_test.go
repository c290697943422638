package serve_test

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"firmup/internal/corpus"
	"firmup/internal/obj"
	"firmup/internal/serve"
	"firmup/internal/telemetry"
	"firmup/internal/uir"
)

// truncations cuts one FWELF executable where the front end's fuzz seeds
// cut it — inside the header (10, 24 bytes), a third of the way in, which
// is inside the text, and 7 bytes short of the end, inside the symbol
// table — and one byte short. It fails the test if a cut misses the part
// it is named for.
func truncations(t *testing.T, name string, data []byte) map[string][]byte {
	t.Helper()
	f, err := obj.Read(data)
	if err != nil {
		t.Fatal(err)
	}
	text := f.Text().Data
	start := bytes.Index(data, text)
	end := start + len(text)
	if start < 24 || len(data)/3 <= start || len(data)/3 >= end || len(data)-7 <= end || len(f.Syms) == 0 {
		t.Fatalf("%s: text at [%d, %d) of %d bytes: the cut points miss header, text or symbols", name, start, end, len(data))
	}
	return map[string][]byte{
		"header":       data[:10],
		"header+24":    data[:24],
		"mid-text":     data[:len(data)/3],
		"mid-symbols":  data[:len(data)-7],
		"one-byte-off": data[:len(data)-1],
	}
}

// TestServeTruncatedUploads posts every registry query truncated at each
// cut point, concurrently with valid searches: every truncated upload is
// the client's malformed request (400, never a 500 or a crash), the valid
// searches answer exactly what they answer alone, and no request is left
// counted in flight.
func TestServeTruncatedUploads(t *testing.T) {
	sc, _ := buildScenario(t)
	reg := telemetry.New()
	srv := serve.New(newCorpus("c", sc), &serve.Config{MaxInFlight: 64, Registry: reg})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	type upload struct {
		url, name string
		body      []byte
	}
	var valid, truncated []upload
	for i, cve := range corpus.CVEs {
		for ai, arch := range []uir.Arch{uir.ArchMIPS32, uir.ArchARM32, uir.ArchPPC32, uir.ArchX86} {
			qf, err := corpus.QueryExe(cve.Package, cve.QueryVersion, arch)
			if err != nil {
				t.Fatal(err)
			}
			data := qf.Bytes()
			name := fmt.Sprintf("%s_%s_%v", cve.ID, cve.Package, arch)
			url := ts.URL + "/search?proc=" + cve.Procedure
			if ai == i%4 { // one ISA per CVE is also searched whole
				valid = append(valid, upload{url, name, data})
			}
			for cut, body := range truncations(t, name, data) {
				truncated = append(truncated, upload{url, name + " cut at " + cut, body})
			}
		}
	}
	want := make([]string, len(valid))
	for i, v := range valid {
		want[i] = mustSearch(t, v.url, v.body)
	}

	var wg sync.WaitGroup
	sem := make(chan struct{}, 8)
	for round := 0; round < 2; round++ {
		for i, v := range valid {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				if got, err := search(v.url, v.body); err != nil {
					t.Errorf("%s: %v", v.name, err)
				} else if got != want[i] {
					t.Errorf("%s: answer beside truncated uploads differs:\n got %s\nwant %s", v.name, got, want[i])
				}
			}()
		}
	}
	for _, u := range truncated {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			resp, err := http.Post(u.url, "application/octet-stream", bytes.NewReader(u.body))
			if err != nil {
				t.Errorf("%s: %v", u.name, err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s: status %d, want 400", u.name, resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	// A handler leaves the gauge just after its reply is on the wire.
	gauge := reg.Gauge("serve.inflight")
	for deadline := time.Now().Add(5 * time.Second); gauge.Value() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("serve.inflight = %d after every request answered, want 0", gauge.Value())
		}
	}
}
