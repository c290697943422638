package eval

import (
	"fmt"
	"slices"
	"strings"

	"firmup"
	"firmup/internal/corpus"
)

// MatrixCell is the retrieval accuracy of some queries over some shipped
// executables, every image occurrence counted: Relevant executables hold
// the queried procedure or its deprecated alias, in any version; Reported
// counts the findings returned, Correct those at such an address, at most
// one per executable.
type MatrixCell struct{ Relevant, Reported, Correct int }

func (c *MatrixCell) add(o MatrixCell) {
	c.Relevant += o.Relevant
	c.Reported += o.Reported
	c.Correct += o.Correct
}

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
				if len(correctAddrs(&bi.Exes[ei], bq.Procedure)) > 0 {
					row[slices.Index(queryArchs, bi.Exes[ei].Arch)].Relevant++
				}
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
	return sb.String()
}
