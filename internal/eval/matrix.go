package eval

import (
	"fmt"
	"slices"
	"strings"

	"firmup"
	"firmup/internal/core"
	"firmup/internal/corpus"
)

// MatrixCell is the retrieval accuracy of some queries over some shipped
// executables, every image occurrence counted: Relevant executables hold
// the queried procedure or its deprecated alias, in any version; Reported
// counts the findings returned, Correct those at such an address, at most
// one per executable. Census counts the relevant (query, executable)
// pairs by what became of them (reason), so it sums to Relevant and its
// hits are Correct.
type MatrixCell struct {
	Relevant, Reported, Correct int
	Census                      [numReasons]int
}

func (c *MatrixCell) add(o MatrixCell) {
	c.Relevant += o.Relevant
	c.Reported += o.Reported
	c.Correct += o.Correct
	for r, n := range o.Census {
		c.Census[r] += n
	}
}

// reason is what became of a relevant (query, executable) pair in a
// search: the first of these that holds.
type reason int

const (
	hit          reason = iota // reported at a correct location
	notCandidate               // no procedure clears the score and ratio floors
	unplayed                   // every procedure that does fails the marker bar
	cut                        // every acceptable procedure was matched to another query procedure
	lost                       // another procedure won the game, or none did
	belowRatio                 // the game matched a correct location below the floors
	failedMarker               // the game matched a correct location failing the marker bar
	numReasons
)

// reasonLabels head the census columns, in reason order.
var reasonLabels = [numReasons]string{"found", "no-scan", "unplayed", "cut", "lost", "ratio", "marker"}

// recall is Correct over Relevant, 1 when nothing is relevant.
func (c MatrixCell) recall() float64 { return ratio(c.Correct, c.Relevant) }

// precision is Correct over Reported, 1 when nothing is reported.
func (c MatrixCell) precision() float64 { return ratio(c.Correct, c.Reported) }

func ratio(n, d int) float64 {
	if d == 0 {
		return 1
	}
	return float64(n) / float64(d)
}

// MatrixResult is the cross-architecture accuracy experiment: Cells[q][i]
// pools the registry queries compiled for queryArchs[q] over the
// executables of queryArchs[i] images.
type MatrixResult struct {
	Cells   [][]MatrixCell
	Queries int
	Stats   corpus.Stats
}

// Matrix runs the registry queries (corpus.CVEs × the four ISAs) against
// the sealed corpus in one SealedCorpus.SearchAllBatch under opt (nil for
// the defaults) and scores every finding as a retrieval: a finding is
// correct when it names a correct location (correctAddrs) of the queried
// procedure, whatever the version.
func Matrix(env *Env, opt *firmup.Options) (*MatrixResult, error) {
	var batch []firmup.BatchQuery
	for _, cve := range corpus.CVEs {
		for _, arch := range queryArchs {
			q, err := env.query(cve.Package, cve.QueryVersion, arch)
			if err != nil {
				return nil, err
			}
			batch = append(batch, firmup.BatchQuery{Query: q, Procedure: cve.Procedure})
		}
	}
	found, err := env.Sealed.SearchAllBatch(batch, opt)
	if err != nil {
		return nil, fmt.Errorf("eval: matrix: %w", err)
	}
	res := &MatrixResult{Cells: make([][]MatrixCell, len(queryArchs)), Queries: len(batch), Stats: env.Corpus.Stat()}
	for q := range res.Cells {
		res.Cells[q] = make([]MatrixCell, len(queryArchs))
	}
	for qx, bq := range batch {
		row := res.Cells[qx%len(queryArchs)]
		for ii, bi := range env.Corpus.Images {
			for ei := range bi.Exes {
				e := &bi.Exes[ei]
				correct := correctAddrs(e, bq.Procedure)
				if len(correct) == 0 {
					continue
				}
				c := &row[slices.Index(queryArchs, e.Arch)]
				c.Relevant++
				target := env.Sealed.Images()[ii].Executable(e.Path)
				r, err := death(env.Sealed, bq, target, correct, found[qx][ii].Findings, opt)
				if err != nil {
					return nil, fmt.Errorf("eval: matrix: image %d %s: %w", ii, e.Path, err)
				}
				c.Census[r]++
			}
			for _, f := range found[qx][ii].Findings {
				ei := slices.IndexFunc(bi.Exes, func(e corpus.BuiltExe) bool { return e.Path == f.ExePath })
				if ei < 0 {
					return nil, fmt.Errorf("eval: matrix: image %d has no executable %s", ii, f.ExePath)
				}
				c := &row[slices.Index(queryArchs, bi.Exes[ei].Arch)]
				c.Reported++
				if slices.Contains(correctAddrs(&bi.Exes[ei], bq.Procedure), f.ProcAddr) {
					c.Correct++
				}
			}
		}
	}
	return res, nil
}

// death works out what became of the relevant pair of query bq and the
// sealed target, whose correct locations are correct, in a search that
// reported findings in the target's image under opt. A pair not
// reported is explained from the pair's similarity vector, the
// acceptance predicate and the game the search would have played,
// replayed by MatchProcedureTraced.
func death(sc *firmup.SealedCorpus, bq firmup.BatchQuery, target *firmup.Executable, correct []uint32, findings []firmup.Finding, opt *firmup.Options) (reason, error) {
	if i := slices.IndexFunc(findings, func(f firmup.Finding) bool { return f.ExePath == target.Path }); i >= 0 {
		if slices.Contains(correct, findings[i].ProcAddr) {
			return hit, nil
		}
		return lost, nil
	}
	copt := &core.SearchOptions{}
	if opt != nil {
		copt.MinScore, copt.MinRatio = opt.MinScore, opt.MinRatio
	}
	q, t := bq.Query.Sim(), target.Sim()
	qi := q.ProcByName(bq.Procedure)
	scores := t.SimAll(q.Procs[qi].Set)
	candidate := false
	var acceptable []int
	for ti, score := range scores {
		switch _, refused := core.Refusal(q, qi, t, ti, score, copt); refused {
		case "":
			acceptable = append(acceptable, ti)
			candidate = true
		case "marker":
			candidate = true
		}
	}
	switch {
	case !candidate:
		return notCandidate, nil
	case len(acceptable) == 0:
		return unplayed, nil
	}
	f, game, err := sc.MatchProcedureTraced(bq.Query, bq.Procedure, target, opt)
	if err != nil {
		return 0, err
	}
	if f != nil {
		return 0, fmt.Errorf("the game finds %s at %#x, the search found nothing", f.ProcName, f.ProcAddr)
	}
	matchedElsewhere := map[int]bool{}
	for _, mp := range game.MatchedPairs {
		if mp[0] != qi {
			matchedElsewhere[mp[1]] = true
		}
	}
	if !slices.ContainsFunc(acceptable, func(ti int) bool { return !matchedElsewhere[ti] }) {
		return cut, nil
	}
	if game.Target < 0 || !slices.Contains(correct, t.Procs[game.Target].Addr) {
		return lost, nil
	}
	if _, refused := core.Refusal(q, qi, t, game.Target, game.Score, copt); refused == "marker" {
		return failedMarker, nil
	}
	return belowRatio, nil
}

// matrixRow is one labelled line of a matrix: a cell, the diagonal or
// every cell pooled.
type matrixRow struct {
	label string
	cell  MatrixCell
}

// rows lists every cell in query-ISA order, then the diagonal pooled and
// every cell pooled.
func (r *MatrixResult) rows() []matrixRow {
	var out []matrixRow
	var diagonal, pooled MatrixCell
	for q, row := range r.Cells {
		for i, c := range row {
			out = append(out, matrixRow{queryArchs[q].String() + " > " + queryArchs[i].String(), c})
			pooled.add(c)
			if q == i {
				diagonal.add(c)
			}
		}
	}
	return append(out, matrixRow{"diagonal", diagonal}, matrixRow{"pooled", pooled})
}

// Format renders one line per cell, then the diagonal pooled and every
// cell pooled.
func (r *MatrixResult) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Accuracy matrix: %d queries (%d CVEs x %d ISAs) in one batch, by query ISA x image ISA\n",
		r.Queries, r.Queries/len(queryArchs), len(queryArchs))
	fmt.Fprintf(&sb, "(corpus: %d images, %d executables, %d procedures)\n\n",
		r.Stats.Images, r.Stats.Exes, r.Stats.Procedures)
	fmt.Fprintf(&sb, "%-16s %8s %8s %8s %8s %9s\n", "query > image", "relevant", "reported", "correct", "recall", "precision")
	for _, row := range r.rows() {
		c := row.cell
		fmt.Fprintf(&sb, "%-16s %8d %8d %8d %8.4f %9.4f\n", row.label, c.Relevant, c.Reported, c.Correct,
			c.recall(), c.precision())
	}
	sb.WriteString("\nDeath-reason census: every relevant (query, executable) pair by the first that holds\n")
	sb.WriteString("(found at a correct location; no procedure clears the floors: no-scan; all that do fail\n")
	sb.WriteString("the marker bar: unplayed; every acceptable one matched elsewhere: cut; another procedure\n")
	sb.WriteString("won the game, or none did: lost; the game's correct match fails the floors / the marker bar)\n\n")
	fmt.Fprintf(&sb, "%-16s %8s", "query > image", "relevant")
	for _, l := range reasonLabels {
		fmt.Fprintf(&sb, " %8s", l)
	}
	sb.WriteString("\n")
	for _, row := range r.rows() {
		fmt.Fprintf(&sb, "%-16s %8d", row.label, row.cell.Relevant)
		for _, n := range row.cell.Census {
			fmt.Fprintf(&sb, " %8d", n)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
