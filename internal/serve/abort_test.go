package serve_test

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"firmup/internal/serve"
	"firmup/internal/telemetry"
)

// abortPoints are the points of an exchange at which abortAt gives up.
var abortPoints = [...]string{"mid-body", "after-body", "mid-response"}

// abortAt posts body to the server at addr over a raw connection and
// closes the connection at one point of the exchange: "mid-body" after
// half the body, "after-body" once the whole body is sent, before any
// response byte, and "mid-response" after the status line.
func abortAt(addr, path, at string, body []byte) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/octet-stream\r\nContent-Length: %d\r\n\r\n", path, addr, len(body))
	if at == "mid-body" {
		_, err = conn.Write(body[:len(body)/2])
		return err
	}
	if _, err := conn.Write(body); err != nil {
		return err
	}
	if at == "mid-response" {
		line, err := bufio.NewReader(conn).ReadString('\n')
		if err != nil {
			return err
		}
		if !strings.HasPrefix(line, "HTTP/1.1 200") {
			return fmt.Errorf("status line %q, want a 200", strings.TrimSpace(line))
		}
	}
	return nil
}

// settle polls until cond holds, failing after five seconds with what
// describes the state it last saw.
func settle(t *testing.T, what string, cond func() (bool, string)) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ok, state := cond()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %s", what, state)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServeClientAborts has clients give up on /search at three points —
// mid-body, after the body and mid-response — while valid searches run
// beside them, some held mid-body across the aborts. Every valid answer
// must be unchanged, serve.inflight must return to 0, a burst of
// MaxInFlight requests must then all be admitted, and once the idle
// connections are closed no goroutine may remain. An abandoned search
// still runs to the end; stopping it early needs a context through the
// front end. Run under -race.
func TestServeClientAborts(t *testing.T) {
	sc, query := buildScenario(t)
	// Room for every request below at once: an abandoned search runs on
	// after its client has moved on to the next abort.
	const held, searchers, rounds = 2, 2, 4
	const maxInFlight = held + searchers + len(abortPoints)*rounds
	reg := telemetry.New()
	srv := serve.New(newCorpus("c", sc), &serve.Config{MaxInFlight: maxInFlight, Registry: reg})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	const path = "/search?proc=ftp_retrieve_glob"
	url := ts.URL + path
	addr := ts.Listener.Addr().String()
	inflight, rejected := reg.Gauge("serve.inflight"), reg.Counter("serve.rejected")

	drain := func() {
		http.DefaultClient.CloseIdleConnections()
		ts.CloseClientConnections()
	}
	want := mustSearch(t, url, query)
	drain()
	// The closed connections' goroutines exit asynchronously: the
	// baseline is the count once it stops falling.
	baseline := runtime.NumGoroutine()
	for {
		time.Sleep(20 * time.Millisecond)
		n := runtime.NumGoroutine()
		if n >= baseline {
			break
		}
		baseline = n
	}

	var answers []<-chan string
	var pws []*io.PipeWriter
	for range held {
		pw, got := heldSearch(t, url)
		pw.Write(query[:len(query)/2])
		pws, answers = append(pws, pw), append(answers, got)
	}
	var wg sync.WaitGroup
	for range searchers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rounds {
				if got, err := search(url, query); err != nil {
					t.Error(err)
				} else if got != want {
					t.Errorf("a search beside the aborts answered\n%s\nwant\n%s", got, want)
				}
			}
		}()
	}
	for _, at := range abortPoints {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rounds {
				if err := abortAt(addr, path, at, query); err != nil {
					t.Errorf("%s abort: %v", at, err)
				}
			}
		}()
	}
	wg.Wait()
	for _, pw := range pws {
		pw.Write(query[len(query)/2:])
		pw.Close()
	}
	for _, got := range answers {
		if g := <-got; g != want {
			t.Errorf("a search held across the aborts answered\n%s\nwant\n%s", g, want)
		}
	}
	settle(t, "serve.inflight after the aborts", func() (bool, string) {
		return inflight.Value() == 0, fmt.Sprintf("%d requests still in flight", inflight.Value())
	})

	// Every slot is free again: MaxInFlight requests are all admitted —
	// heldSearch returns once its handler reads the body — and answer.
	before := rejected.Value()
	answers, pws = answers[:0], pws[:0]
	for range maxInFlight {
		pw, got := heldSearch(t, url)
		pws, answers = append(pws, pw), append(answers, got)
	}
	if n := inflight.Value(); n != int64(maxInFlight) {
		t.Errorf("%d of a burst of %d requests in flight", n, maxInFlight)
	}
	for _, pw := range pws {
		pw.Write(query)
		pw.Close()
	}
	for _, got := range answers {
		if g := <-got; g != want {
			t.Errorf("a request of the burst answered\n%s\nwant\n%s", g, want)
		}
	}
	if n := rejected.Value() - before; n != 0 {
		t.Errorf("%d requests of the burst were rejected", n)
	}

	drain()
	settle(t, "goroutines after the drain", func() (bool, string) {
		n := runtime.NumGoroutine()
		if n <= baseline {
			return true, ""
		}
		buf := make([]byte, 1<<20)
		return false, fmt.Sprintf("%d goroutines, %d before the aborts:\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
	})
}
