package eval

import (
	"fmt"
	"strings"

	"firmup/internal/baseline/bindiff"
	"firmup/internal/baseline/gitz"
	"firmup/internal/core"
	"firmup/internal/corpus"
	"firmup/internal/sim"
	"firmup/internal/uir"
)

// LabeledCounts aggregates one tool's answers for one query over the
// labeled targets.
type LabeledCounts struct {
	Query string
	P     int // true positives
	FP    int
	FN    int
}

// CompareResult is a labeled tool-vs-FirmUp experiment (Figs. 6 and 8).
type CompareResult struct {
	Tool string
	Rows []LabeledRow
	// StepsHistogram buckets FirmUp's correct matches by game steps
	// (collected during the comparison for Fig. 9).
	StepsHistogram map[int]int
	// NoGameP counts correct answers for the ablated engine (pairwise
	// top-1, no game) over the same targets.
	NoGameP int
	TotalT  int
}

// LabeledRow pairs the per-query counts of FirmUp and the baseline.
type LabeledRow struct {
	FirmUp   LabeledCounts
	Baseline LabeledCounts
}

// fig6Queries are the five labeled queries of the paper's Fig. 6.
var fig6Queries = []string{
	"CVE-2013-1944", // tailmatch
	"CVE-2013-2168", // printf_string_upper_bound
	"CVE-2016-8618", // alloc_addbyter
	"CVE-2011-0762", // vsf_filename_passes_filter
	"CVE-2014-4877", // ftp_retrieve_glob
}

// fig8Queries are the nine labeled queries of the paper's Fig. 8
// (both labeled groups, including the exported-procedure CVEs).
var fig8Queries = []string{
	"CVE-2013-1944", "CVE-2013-2168", "CVE-2016-8618", "CVE-2011-0762",
	"CVE-2014-4877", "CVE-2015-5621", "CVE-2009-4593", "CVE-2012-2841",
	"CVE-2012-0036",
}

// labeledTargets returns the units of the query's package on arch: the
// labeled subset where ground truth pinpoints the procedure.
func labeledTargets(env *Env, cve *corpus.CVE, arch uir.Arch) []*Unit {
	var out []*Unit
	for _, u := range env.Units {
		if u.Arch != arch || u.Pkg != cve.Package {
			continue
		}
		if _, ok := u.Truth[cve.Procedure]; !ok {
			// Accept the deprecated-predecessor case.
			if cve.Procedure != "curl_easy_unescape" {
				continue
			}
			if _, ok := u.Truth["curl_unescape"]; !ok {
				continue
			}
		}
		out = append(out, u)
	}
	return out
}

// scoreAnswer classifies a claimed (matched, addr) pair for a labeled
// target: correct procedure, wrong procedure, or nothing.
func scoreAnswer(u *Unit, cve *corpus.CVE, matched bool, addr uint32) Verdict {
	trueAddr, ok := u.Truth[cve.Procedure]
	if !ok && cve.Procedure == "curl_easy_unescape" {
		trueAddr, ok = u.Truth["curl_unescape"]
	}
	if !ok {
		if matched {
			return VerdictFP
		}
		return VerdictTN
	}
	switch {
	case matched && addr == trueAddr:
		return VerdictTP
	case matched:
		return VerdictFP
	default:
		return VerdictFN
	}
}

// occurrences weights a unit by how many images ship it.
func occurrences(u *Unit) int { return len(u.Occurrences) }

// CompareBinDiff runs the Fig. 6 experiment: FirmUp vs the graph-based
// whole-binary matcher over labeled targets.
func CompareBinDiff(env *Env) (*CompareResult, error) {
	return compare(env, "BinDiff", fig6Queries, func(q *sim.Exe, qi int, u *Unit) (bool, uint32) {
		d := bindiff.Diff(q, u.Exe)
		ti := d.QtoT[qi]
		if ti < 0 {
			return false, 0
		}
		return true, u.Exe.Procs[ti].Addr
	})
}

// CompareGitZ runs the Fig. 8 experiment: FirmUp vs the
// procedure-centric weighted top-1 ranker. The context is trained per
// architecture over the corpus's own procedures, as the paper does.
func CompareGitZ(env *Env) (*CompareResult, error) {
	ctxByArch := map[uir.Arch]*gitz.Context{}
	for _, arch := range queryArchs {
		var sample []*sim.Exe
		for _, u := range env.Units {
			if u.Arch == arch {
				sample = append(sample, u.Exe)
			}
		}
		ctxByArch[arch] = gitz.Train(sample)
	}
	return compare(env, "GitZ", fig8Queries, func(q *sim.Exe, qi int, u *Unit) (bool, uint32) {
		e := &gitz.Engine{Ctx: ctxByArch[u.Arch]}
		top := e.TopK(q.Procs[qi].Set, u.Exe, 1)
		if len(top) == 0 {
			return false, 0
		}
		return true, u.Exe.Procs[top[0].Proc].Addr
	})
}

// compare runs FirmUp and a baseline answerer over the labeled targets
// of each query.
func compare(env *Env, tool string, queryIDs []string, baseline func(q *sim.Exe, qi int, u *Unit) (bool, uint32)) (*CompareResult, error) {
	res := &CompareResult{Tool: tool, StepsHistogram: map[int]int{}}
	for _, id := range queryIDs {
		cve := corpus.CVEByID(id)
		if cve == nil {
			return nil, fmt.Errorf("eval: unknown CVE %s", id)
		}
		row := LabeledRow{
			FirmUp:   LabeledCounts{Query: cve.Procedure},
			Baseline: LabeledCounts{Query: cve.Procedure},
		}
		for _, arch := range queryArchs {
			targets := labeledTargets(env, cve, arch)
			if len(targets) == 0 {
				continue
			}
			q, err := env.Query(cve.Package, cve.QueryVersion, arch)
			if err != nil {
				return nil, err
			}
			qi := q.ProcByName(cve.Procedure)
			if qi < 0 {
				continue
			}
			for _, u := range targets {
				w := occurrences(u)
				res.TotalT += w

				// FirmUp. The labeled experiment measures matching
				// accuracy, not containment, so the game's answer is
				// taken directly without the acceptance threshold
				// (mirroring how GitZ's unconditional top-1 is scored).
				r := core.Match(q, qi, u.Exe, nil)
				matched, addr := r.Target >= 0, uint32(0)
				if matched {
					addr = u.Exe.Procs[r.Target].Addr
				}
				switch scoreAnswer(u, cve, matched, addr) {
				case VerdictTP:
					row.FirmUp.P += w
					res.StepsHistogram[r.Steps] += w
				case VerdictFP:
					row.FirmUp.FP += w
				case VerdictFN:
					row.FirmUp.FN += w
				}

				// Ablation: pairwise top-1, no game.
				best, _ := u.Exe.BestMatch(q.Procs[qi].Set, nil)
				if best >= 0 {
					if scoreAnswer(u, cve, true, u.Exe.Procs[best].Addr) == VerdictTP {
						res.NoGameP += w
					}
				}

				// Baseline.
				bm, baddr := baseline(q, qi, u)
				switch scoreAnswer(u, cve, bm, baddr) {
				case VerdictTP:
					row.Baseline.P += w
				case VerdictFP:
					row.Baseline.FP += w
				case VerdictFN:
					// Per the paper's Fig. 6 accounting, a baseline that
					// fails to produce a match for a procedure known to be
					// present is counted as a false result.
					row.Baseline.FN += w
				}
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Rates aggregates P/FP/FN across rows.
func (r *CompareResult) Rates() (fuP, fuFP, fuFN, blP, blFP, blFN int) {
	for _, row := range r.Rows {
		fuP += row.FirmUp.P
		fuFP += row.FirmUp.FP
		fuFN += row.FirmUp.FN
		blP += row.Baseline.P
		blFP += row.Baseline.FP
		blFN += row.Baseline.FN
	}
	return
}

// Format renders the comparison in the layout of the paper's figures.
func (r *CompareResult) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Labeled experiment: FirmUp vs %s (per-query P / FP / FN)\n\n", r.Tool)
	fmt.Fprintf(&sb, "%-30s | %21s | %21s\n", "query", "FirmUp  P   FP   FN", r.Tool+"  P   FP   FN")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-30s | %9d %4d %4d | %9d %4d %4d\n",
			row.FirmUp.Query,
			row.FirmUp.P, row.FirmUp.FP, row.FirmUp.FN,
			row.Baseline.P, row.Baseline.FP, row.Baseline.FN)
	}
	fuP, fuFP, fuFN, blP, blFP, blFN := r.Rates()
	fuT, blT := fuP+fuFP+fuFN, blP+blFP+blFN
	if fuT > 0 && blT > 0 {
		fmt.Fprintf(&sb, "\nFirmUp: %.1f%% positive, %.1f%% false   %s: %.1f%% positive, %.1f%% false\n",
			100*float64(fuP)/float64(fuT), 100*float64(fuFP+fuFN)/float64(fuT),
			r.Tool, 100*float64(blP)/float64(blT), 100*float64(blFP+blFN)/float64(blT))
	}
	return sb.String()
}

// Fig9Buckets renders the game-step histogram in the paper's buckets.
func Fig9Buckets(hist map[int]int) []struct {
	Label string
	Count int
} {
	buckets := []struct {
		Label  string
		lo, hi int
	}{
		{"1", 1, 1}, {"2", 2, 2}, {"3-4", 3, 4}, {"5-8", 5, 8}, {"9-16", 9, 16}, {"17-32", 17, 32},
	}
	out := make([]struct {
		Label string
		Count int
	}, len(buckets))
	for i, b := range buckets {
		out[i].Label = b.Label
		for s, n := range hist {
			if s >= b.lo && s <= b.hi {
				out[i].Count += n
			}
		}
	}
	return out
}

// FormatFig9 renders the histogram plus the ablation comparison.
func FormatFig9(r *CompareResult) string {
	var sb strings.Builder
	sb.WriteString("Fig. 9: correct matches by number of game steps\n\n")
	for _, b := range Fig9Buckets(r.StepsHistogram) {
		fmt.Fprintf(&sb, "%6s steps: %4d %s\n", b.Label, b.Count, strings.Repeat("#", bars(b.Count)))
	}
	fuP, fuFP, fuFN, _, _, _ := r.Rates()
	total := fuP + fuFP + fuFN
	if total > 0 {
		fmt.Fprintf(&sb, "\nOverall precision with the game: %.2f%%\n", 100*float64(fuP)/float64(total))
		fmt.Fprintf(&sb, "Without the iterative game (pairwise top-1): %.2f%%\n", 100*float64(r.NoGameP)/float64(total))
	}
	return sb.String()
}

func bars(n int) int {
	if n > 60 {
		return 60
	}
	return n
}
