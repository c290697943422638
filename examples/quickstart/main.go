// Quickstart: the end-to-end FirmUp workflow in one file.
//
// It generates a small firmware corpus in memory (the stand-in for
// crawling vendor support sites), compiles the analyst's query
// executable from the latest vulnerable wget, and searches every image
// for the CVE-2014-4877 procedure.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"firmup"
	"firmup/internal/corpus"
	_ "firmup/internal/isa/arm"
	_ "firmup/internal/isa/mips"
	_ "firmup/internal/isa/ppc"
	_ "firmup/internal/isa/x86"
	"firmup/internal/uir"
)

func main() {
	// 1. Obtain firmware images (here: generate the synthetic corpus).
	c, err := corpus.Build(corpus.DefaultScale())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("corpus: %d firmware images\n", len(c.Images))

	// 2. Start an analyzer session: queries and images analyzed under it
	// share one strand-hash interner, so every search runs over the
	// session's dense-ID fast paths and per-image corpus indexes.
	analyzer := firmup.NewAnalyzer(nil)

	// 3. Compile the query: wget 1.15 (the latest vulnerable version for
	// CVE-2014-4877), default tool chain, symbols intact. A query is
	// built per target architecture, as in the paper.
	queries := map[uir.Arch]*firmup.Executable{}
	for _, arch := range []uir.Arch{uir.ArchMIPS32, uir.ArchARM32, uir.ArchPPC32, uir.ArchX86} {
		qf, err := corpus.QueryExe("wget", "1.15", arch)
		if err != nil {
			log.Fatal(err)
		}
		q, err := analyzer.LoadQueryExecutable(qf.Bytes())
		if err != nil {
			log.Fatal(err)
		}
		queries[arch] = q
	}

	// 4. Search every image. Images are packed and re-opened through the
	// public API, exactly as an external user would handle crawled files.
	total, skipped := 0, 0
	for _, bi := range c.Images {
		data := bi.Image.Pack(true)
		img, err := analyzer.OpenImage(data)
		if err != nil {
			log.Printf("skip %s %s: %v", bi.Vendor, bi.Device, err)
			continue
		}
		skipped += len(img.Skipped)
		for _, s := range img.Skipped {
			log.Printf("%s %s: skipped %s: %v", bi.Vendor, bi.Device, s.Path, s.Err)
		}
		arch := bi.Exes[0].Arch
		findings, err := analyzer.SearchImage(queries[arch], "ftp_retrieve_glob", img, nil)
		if err != nil {
			log.Fatal(err)
		}
		for _, f := range findings {
			total++
			fmt.Printf("  %-10s %-18s fw %-8s → %s at %#x in %s (Sim=%d, %.0f%%, %d steps)\n",
				bi.Vendor, bi.Device, bi.FwVersion,
				f.ProcName, f.ProcAddr, f.ExePath, f.Score, 100*f.Confidence, f.GameSteps)
		}
	}
	fmt.Printf("\nCVE-2014-4877 (wget ftp_retrieve_glob): %d occurrence(s) found in stripped firmware\n", total)
	fmt.Printf("session: %d unique strands interned, %d executable(s) skipped during analysis\n",
		analyzer.UniqueStrands(), skipped)
}
