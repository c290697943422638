// Quickstart: the end-to-end FirmUp workflow in one file.
//
// It generates a small firmware corpus in memory (the stand-in for
// crawling vendor support sites), compiles the analyst's query
// executable from the latest vulnerable wget, seals the analyzed images
// and searches every one for the CVE-2014-4877 procedure.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"slices"

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

	// 2. Analyze every image under one analyzer session, whose executables
	// share one strand-hash interner. Images are packed and re-opened
	// through the public API, exactly as an external user would handle
	// crawled files.
	analyzer := firmup.NewAnalyzer(nil)
	var imgs []*firmup.Image
	var opened []*corpus.BuiltImage
	skipped := 0
	for _, bi := range c.Images {
		img, err := analyzer.OpenImage(bi.Image.Pack(true))
		if err != nil {
			log.Printf("skip %s %s: %v", bi.Vendor, bi.Device, err)
			continue
		}
		skipped += len(img.Skipped)
		for _, s := range img.Skipped {
			log.Printf("%s %s: skipped %s: %v", bi.Vendor, bi.Device, s.Path, s.Err)
		}
		imgs = append(imgs, img)
		opened = append(opened, bi)
	}

	// 3. Seal the session: the sealed corpus is what searches, over the
	// frozen vocabulary and one inverted index.
	sealed, err := analyzer.Seal(imgs...)
	if err != nil {
		log.Fatal(err)
	}

	// 4. Compile the query: wget 1.15 (the latest vulnerable version for
	// CVE-2014-4877), default tool chain, symbols intact. A query is
	// built per target architecture, as in the paper.
	archs := []uir.Arch{uir.ArchMIPS32, uir.ArchARM32, uir.ArchPPC32, uir.ArchX86}
	var batch []firmup.BatchQuery
	for _, arch := range archs {
		qf, err := corpus.QueryExe("wget", "1.15", arch)
		if err != nil {
			log.Fatal(err)
		}
		q, err := sealed.AnalyzeQuery(qf.Bytes(), nil)
		if err != nil {
			log.Fatal(err)
		}
		batch = append(batch, firmup.BatchQuery{Query: q, Procedure: "ftp_retrieve_glob"})
	}

	// 5. Search every image with every query in one pass, and report each
	// image's findings for the query of its own architecture.
	res, err := sealed.SearchAllBatch(batch, nil)
	if err != nil {
		log.Fatal(err)
	}
	total := 0
	for ii, bi := range opened {
		for _, f := range res[slices.Index(archs, bi.Exes[0].Arch)][ii].Findings {
			total++
			fmt.Printf("  %-10s %-18s fw %-8s → %s at %#x in %s (Sim=%d, %.0f%%, %d steps)\n",
				bi.Vendor, bi.Device, bi.FwVersion,
				f.ProcName, f.ProcAddr, f.ExePath, f.Score, 100*f.Confidence, f.GameSteps)
		}
	}
	fmt.Printf("\nCVE-2014-4877 (wget ftp_retrieve_glob): %d occurrence(s) found in stripped firmware\n", total)
	fmt.Printf("corpus: %d unique strands sealed, %d executable(s) skipped during analysis\n",
		sealed.UniqueStrands(), skipped)
}
