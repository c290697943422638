// Command firmupd is the long-running FirmUp query daemon: it loads a
// sealed corpus — a directory of mmap-backed FWCORP shards (fwcrawl
// -sealed -shards N / SealedCorpus.WriteShards) — at startup and serves
// CVE-search queries over HTTP.
//
//	firmupd -corpus corpus.fwcorp.d -addr :8080
//
// Query it by POSTing a query executable (an FWELF binary, typically
// compiled from the vulnerable package version) with the procedure to
// look for:
//
//	curl -s -X POST --data-binary @CVE-2014-4877_wget_mips32.felf \
//	    'http://localhost:8080/search?proc=ftp_retrieve_glob'
//
// Endpoints: POST /search (findings JSON), GET /healthz, GET /corpus,
// GET /metrics, and — when -allow-swap is set — POST /swap?path=... to
// hot-swap the serving corpus without dropping in-flight requests.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime/debug"
	"syscall"
	"time"

	"firmup"
	"firmup/internal/buildinfo"
	"firmup/internal/serve"
	"firmup/internal/telemetry"
)

// Connection deadlines: a client that stalls its headers or upload, stops
// reading its response or parks an idle connection is dropped. The write
// deadline runs from the end of the request headers, so it also bounds
// the upload, its analysis and the search.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = time.Minute
	writeTimeout      = 2 * time.Minute
	idleTimeout       = 2 * time.Minute
)

func main() {
	var (
		addr            = flag.String("addr", ":8080", "listen address")
		corpusPath      = flag.String("corpus", "", "sealed corpus artifact to serve (required)")
		maxInFlight     = flag.Int("max-inflight", 0, "max concurrently admitted searches (0 = 2x GOMAXPROCS)")
		allowSwap       = flag.Bool("allow-swap", false, "enable POST /swap?path=... corpus hot-swap")
		shutdownTimeout = flag.Duration("shutdown-timeout", 30*time.Second, "graceful shutdown grace period")
		traceSample     = flag.Int("trace-sample", 1, "request tracing sample rate: 0 = X-Firmup-Trace-carrying requests only, 1 = all, N = every Nth")
		accessLog       = flag.String("access-log", "-", "structured JSON access log destination: - for stderr, a file path to append to, empty to disable")
		version         = flag.Bool("version", false, "print build version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String())
		return
	}
	if *corpusPath == "" {
		fmt.Fprintln(os.Stderr, "firmupd: -corpus is required")
		flag.Usage()
		os.Exit(2)
	}

	// The corpus is mapped, not heap: what stays live is the few MB of
	// executables searches have materialized, while one uploaded query's
	// analysis leaves 16 to 20 bytes of garbage behind per byte of its
	// text, 0.16 to 0.43 MB for the registry queries (cfg's
	// TestAnalysisBytesBudget measures it). At the runtime's default
	// pacing the collector would then run every ten or so requests, so
	// unless the operator set GOGC the daemon lets the heap grow to three
	// times its live size between collections.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(200)
	}

	reg := telemetry.New()
	cs, err := loadCorpus(*corpusPath)
	if err != nil {
		log.Fatalf("firmupd: %v", err)
	}
	log.Printf("firmupd: loaded %s: %d images, %d executables (%d unique), %d unique strands",
		cs.Name, len(cs.Sealed.Images()), cs.Sealed.Executables(), cs.Sealed.UniqueExecutables(), cs.Sealed.UniqueStrands())

	logger, err := openAccessLog(*accessLog)
	if err != nil {
		log.Fatalf("firmupd: %v", err)
	}

	srv := serve.New(cs, &serve.Config{
		MaxInFlight: *maxInFlight,
		Registry:    reg,
		TraceSample: *traceSample,
		AccessLog:   logger,
	})

	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	if *allowSwap {
		mux.HandleFunc("/swap", func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPost {
				http.Error(w, "POST /swap?path=<artifact>", http.StatusMethodNotAllowed)
				return
			}
			path := r.URL.Query().Get("path")
			if path == "" {
				http.Error(w, "missing required query parameter: path", http.StatusBadRequest)
				return
			}
			next, err := loadCorpus(path)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			prev := srv.Swap(next)
			log.Printf("firmupd: swapped corpus %s -> %s", prev.Name, next.Name)
			fmt.Fprintf(w, "swapped %s -> %s\n", prev.Name, next.Name)
		})
	}

	httpSrv := &http.Server{
		Addr: *addr, Handler: mux,
		ReadHeaderTimeout: readHeaderTimeout, ReadTimeout: readTimeout,
		WriteTimeout: writeTimeout, IdleTimeout: idleTimeout,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("firmupd: serving on %s", *addr)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		log.Fatalf("firmupd: %v", err)
	case sig := <-sigCh:
		log.Printf("firmupd: %s: draining in-flight requests", sig)
		ctx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Fatalf("firmupd: shutdown: %v", err)
		}
	}
}

// openAccessLog resolves the -access-log destination: "-" is stderr,
// "" disables (a nil logger, which the server skips), anything else is
// a file path appended to.
func openAccessLog(dst string) (*slog.Logger, error) {
	switch dst {
	case "":
		return nil, nil
	case "-":
		return serve.NewAccessLog(os.Stderr), nil
	}
	f, err := os.OpenFile(dst, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("access log: %w", err)
	}
	return serve.NewAccessLog(f), nil
}

// loadCorpus opens one sealed corpus: a directory of shards or the
// single file of a one-shard corpus, mmap-backed and lazily
// materialized. It needs no registry of its own: every search request
// runs under a span of the server's registry, which its query analysis
// and search record into.
func loadCorpus(path string) (*serve.Corpus, error) {
	sc, err := firmup.OpenSealedCorpus(path)
	if err != nil {
		if errors.Is(err, firmup.ErrCorpusCorrupt) {
			return nil, fmt.Errorf("%s: corrupt sealed corpus: %w", path, err)
		}
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	shards, mapped := sc.Shards(), 0
	for _, sh := range shards {
		if sh.Mapped {
			mapped++
		}
	}
	log.Printf("firmupd: %s: %d shards (%d mmap-backed)", path, len(shards), mapped)
	return &serve.Corpus{Name: path, Sealed: sc, LoadedAt: time.Now()}, nil
}
