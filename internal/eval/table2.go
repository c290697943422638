package eval

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"firmup"
	"firmup/internal/corpus"
	"firmup/internal/uir"
)

// Table2Row is one CVE-hunt experiment (a row of the paper's Table 2).
type Table2Row struct {
	CVE       string
	Package   string
	Procedure string
	// Confirmed counts image occurrences in which the vulnerable
	// procedure was correctly located (the paper counts per image).
	Confirmed int
	// FPs counts occurrences where an unrelated procedure was matched.
	FPs int
	// Patched counts correct matches to fixed-version bodies (excluded
	// from Confirmed, not errors).
	Patched int
	// Missed counts vulnerable occurrences with no finding.
	Missed int
	// Vendors lists affected vendors.
	Vendors []string
	// Latest counts devices whose newest firmware is affected.
	Latest int
	// Time is the wall-clock duration of the hunt.
	Time time.Duration
}

// Table2Result is the full experiment.
type Table2Result struct {
	Rows  []Table2Row
	Stats corpus.Stats
}

// table2CVEs are the seven wild-search rows of the paper's Table 2
// (stripped procedures only; the two exported-procedure CVEs appear only
// in the labeled experiments).
var table2CVEs = []string{
	"CVE-2011-0762", "CVE-2009-4593", "CVE-2012-0036", "CVE-2013-1944",
	"CVE-2013-2168", "CVE-2014-4877", "CVE-2016-8618",
}

// queryArchs are the ISAs every CVE's query is compiled for.
var queryArchs = []uir.Arch{uir.ArchMIPS32, uir.ArchARM32, uir.ArchPPC32, uir.ArchX86}

// Table2 runs the wild CVE hunt as firmupd would serve it: per CVE, the
// four per-ISA query builds searched corpus-wide in one
// SealedCorpus.SearchAllBatch, and every shipped executable's finding
// from the query of its own ISA (or the lack of one) scored against
// ground truth.
func Table2(env *Env) (*Table2Result, error) {
	res := &Table2Result{Stats: env.Corpus.Stat()}
	for _, id := range table2CVEs {
		cve := corpus.CVEByID(id)
		if cve == nil {
			return nil, fmt.Errorf("eval: unknown CVE %s", id)
		}
		row := Table2Row{CVE: cve.ID, Package: cve.Package, Procedure: cve.Procedure}
		vendors := map[string]bool{}
		latestDevices := map[string]bool{}
		start := time.Now()
		batch := make([]firmup.BatchQuery, len(queryArchs))
		for qx, arch := range queryArchs {
			q, err := env.query(cve.Package, cve.QueryVersion, arch)
			if err != nil {
				return nil, err
			}
			batch[qx] = firmup.BatchQuery{Query: q, Procedure: cve.Procedure}
		}
		found, err := env.Sealed.SearchAllBatch(batch, nil)
		if err != nil {
			return nil, fmt.Errorf("eval: %s: %w", cve.ID, err)
		}
		for ii, bi := range env.Corpus.Images {
			for ei := range bi.Exes {
				e := &bi.Exes[ei]
				matched, addr := false, uint32(0)
				for _, f := range found[slices.Index(queryArchs, e.Arch)][ii].Findings {
					if f.ExePath == e.Path {
						matched, addr = true, f.ProcAddr
					}
				}
				switch classify(e, cve, matched, addr) {
				case VerdictTP:
					row.Confirmed++
					vendors[bi.Vendor] = true
					if bi.Latest {
						latestDevices[bi.Device] = true
					}
				case VerdictFP:
					row.FPs++
				case VerdictPatched:
					row.Patched++
				case VerdictFN:
					row.Missed++
				}
			}
		}
		row.Time = time.Since(start)
		for v := range vendors {
			row.Vendors = append(row.Vendors, v)
		}
		sort.Strings(row.Vendors)
		row.Latest = len(latestDevices)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Format renders the result in the paper's Table 2 layout.
func (r *Table2Result) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table 2: Confirmed vulnerable procedures found in stripped firmware images\n")
	fmt.Fprintf(&sb, "(corpus: %d images, %d executables, %d procedures)\n\n",
		r.Stats.Images, r.Stats.Exes, r.Stats.Procedures)
	fmt.Fprintf(&sb, "%-3s %-14s %-9s %-28s %9s %4s %8s %-24s %6s %9s\n",
		"#", "CVE", "Package", "Procedure", "Confirmed", "FPs", "Patched", "Affected Vendors", "Latest", "Time")
	for i, row := range r.Rows {
		fmt.Fprintf(&sb, "%-3d %-14s %-9s %-28s %9d %4d %8d %-24s %6d %9s\n",
			i+1, row.CVE, row.Package, row.Procedure,
			row.Confirmed, row.FPs, row.Patched,
			strings.Join(row.Vendors, ","), row.Latest, row.Time.Round(time.Millisecond))
	}
	return sb.String()
}

// TotalConfirmed sums confirmed findings (the paper's headline "373
// vulnerable procedures" aggregate).
func (r *Table2Result) TotalConfirmed() (confirmed, latest int) {
	for _, row := range r.Rows {
		confirmed += row.Confirmed
		latest += row.Latest
	}
	return
}
