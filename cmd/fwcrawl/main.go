// Command fwcrawl generates the evaluation corpus — the stand-in for the
// paper's firmware crawler. It builds every vendor/device/release image
// and writes the packed files to a directory, alongside a manifest.
//
// Usage:
//
//	fwcrawl -out corpus/ [-scale eval|bench] [-compress] [-sealed [-shards N]]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"firmup"
	"firmup/internal/buildinfo"
	"firmup/internal/corpus"
	_ "firmup/internal/isa/arm"
	_ "firmup/internal/isa/mips"
	_ "firmup/internal/isa/ppc"
	_ "firmup/internal/isa/x86"
	"firmup/internal/telemetry"
	"firmup/internal/uir"
)

func main() {
	out := flag.String("out", "corpus", "output directory")
	scale := flag.String("scale", "default", "corpus scale: default, eval or bench (the 128 images bench/ serves)")
	compress := flag.Bool("compress", true, "zlib-compress images")
	sealed := flag.Bool("sealed", false, "analyze every image under one shared session and write a sealed corpus for firmupd and firmup -corpus: mmap-ready FWCORP shards under corpus.fwcorp.d/")
	shards := flag.Int("shards", 1, "with -sealed: the number of shards to split the corpus into")
	reportPath := flag.String("report", "", "write a structured JSON run report (stage timings, counters) to this file")
	debugAddr := flag.String("debug-addr", "", "serve expvar and pprof debug endpoints on this address (e.g. localhost:6060)")
	version := flag.Bool("version", false, "print build version and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String())
		return
	}
	sc, err := corpus.ScaleByName(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fwcrawl:", err)
		os.Exit(2)
	}

	var reg *telemetry.Registry
	if *reportPath != "" || *debugAddr != "" {
		reg = telemetry.New()
	}
	if *debugAddr != "" {
		addr, err := telemetry.ServeDebug(*debugAddr, reg)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "fwcrawl: debug endpoints at http://%s/debug/\n", addr)
	}
	rep := telemetry.NewReport("fwcrawl", telemetry.ReportConfig{Index: true})

	c, err := corpus.Build(sc)
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	var manifest strings.Builder
	// Sealed-corpus mode shares one session across every image so the
	// artifact carries a single frozen vocabulary.
	var sealSession *firmup.Analyzer
	var sealImgs []*firmup.Image
	if *sealed {
		sealSession = firmup.NewAnalyzer(&firmup.AnalyzerOptions{Telemetry: reg})
	}
	// Skipped executables thin the corpus; they are reported per image
	// and, at the end, fail the crawl loudly instead of silently.
	skippedExes, skippedImages := 0, 0
	noteSkips := func(name string, img *firmup.Image) {
		if len(img.Skipped) == 0 {
			return
		}
		skippedImages++
		skippedExes += len(img.Skipped)
		for _, s := range img.Skipped {
			fmt.Fprintf(os.Stderr, "fwcrawl: %s: skipped %s: %v\n", name, s.Path, s.Err)
		}
	}
	for _, bi := range c.Images {
		name := fmt.Sprintf("%s_%s_%s.fwim", bi.Vendor, bi.Device, bi.FwVersion)
		name = strings.ReplaceAll(name, "/", "-")
		data := bi.Image.Pack(*compress)
		if err := os.WriteFile(filepath.Join(*out, name), data, 0o644); err != nil {
			fatal(err)
		}
		if *sealed {
			img, err := sealSession.OpenImage(data)
			if err != nil {
				fatal(fmt.Errorf("seal %s: %w", name, err))
			}
			sealImgs = append(sealImgs, img)
			noteSkips(name, img)
		}
		latest := ""
		if bi.Latest {
			latest = " (latest)"
		}
		fmt.Fprintf(&manifest, "%s: %d executables, %d bytes%s\n", name, len(bi.Exes), len(data), latest)
	}
	if err := os.WriteFile(filepath.Join(*out, "MANIFEST.txt"), []byte(manifest.String()), 0o644); err != nil {
		fatal(err)
	}
	if *sealed {
		scorp, err := sealSession.Seal(sealImgs...)
		if err != nil {
			fatal(err)
		}
		shardDir := filepath.Join(*out, "corpus.fwcorp.d")
		paths, err := scorp.WriteShards(shardDir, *shards)
		if err != nil {
			fatal(err)
		}
		var total int64
		for _, p := range paths {
			if st, err := os.Stat(p); err == nil {
				total += st.Size()
			}
		}
		fmt.Printf("sealed %d images (%d executables (%d unique), %d unique strands, %d bytes) into %d shards under %s\n",
			len(scorp.Images()), scorp.Executables(), scorp.UniqueExecutables(), scorp.UniqueStrands(), total, len(paths), shardDir)
	}
	// Emit the analyst-side query executables for every registry CVE, one
	// per architecture (the paper compiles queries with gcc 5.2 -O2).
	qdir := filepath.Join(*out, "queries")
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		fatal(err)
	}
	for _, cve := range corpus.CVEs {
		for _, arch := range []uir.Arch{uir.ArchMIPS32, uir.ArchARM32, uir.ArchPPC32, uir.ArchX86} {
			f, err := corpus.QueryExe(cve.Package, cve.QueryVersion, arch)
			if err != nil {
				fatal(err)
			}
			name := fmt.Sprintf("%s_%s_%v.felf", cve.ID, cve.Package, arch)
			if err := os.WriteFile(filepath.Join(qdir, name), f.Bytes(), 0o644); err != nil {
				fatal(err)
			}
		}
	}
	st := c.Stat()
	fmt.Printf("crawled %d images (%d executables, %d procedures) into %s\n",
		st.Images, st.Exes, st.Procedures, *out)
	fmt.Printf("wrote %d query executables into %s\n", len(corpus.CVEs)*4, qdir)
	if *reportPath != "" {
		rep.Finish(reg)
		if err := rep.WriteFile(*reportPath); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote run report to %s\n", *reportPath)
	}
	// A skipped executable means the written corpus is thinner than the
	// built one: fail loudly so build pipelines notice instead of serving
	// an incomplete corpus.
	if skippedExes > 0 {
		fmt.Fprintf(os.Stderr, "fwcrawl: FAILED: %d executables skipped across %d images; corpus is incomplete\n",
			skippedExes, skippedImages)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fwcrawl:", err)
	os.Exit(1)
}
