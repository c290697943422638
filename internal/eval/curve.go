package eval

import (
	"fmt"
	"strings"

	"firmup"
)

// CurveResult is the operating curve: the accuracy matrix at each
// MinRatio of Ratios, every other option at its default.
type CurveResult struct {
	Ratios []float64
	Points []*MatrixResult
}

// Curve sweeps the detection ratio floor (firmup.Options.MinRatio) over
// 0.20–0.60 in steps of 0.05 and scores the registry queries at each
// point as Matrix does.
func Curve(env *Env) (*CurveResult, error) {
	res := &CurveResult{}
	for pct := 20; pct <= 60; pct += 5 {
		r := float64(pct) / 100
		m, err := Matrix(env, &firmup.Options{MinRatio: r})
		if err != nil {
			return nil, err
		}
		res.Ratios = append(res.Ratios, r)
		res.Points = append(res.Points, m)
	}
	return res, nil
}

// Format renders two tables, recall then precision, with one line per
// matrix row (every cell, the diagonal and every cell pooled) and one
// column per MinRatio.
func (r *CurveResult) Format() string {
	var sb strings.Builder
	m := r.Points[0]
	fmt.Fprintf(&sb, "Operating curve: %d queries (%d CVEs x %d ISAs) per point, by query ISA x image ISA and MinRatio\n",
		m.Queries, m.Queries/len(queryArchs), len(queryArchs))
	fmt.Fprintf(&sb, "(corpus: %d images, %d executables, %d procedures)\n",
		m.Stats.Images, m.Stats.Exes, m.Stats.Procedures)
	rows := make([][]matrixRow, len(r.Points))
	for i, p := range r.Points {
		rows[i] = p.rows()
	}
	for _, metric := range []struct {
		name string
		of   func(MatrixCell) float64
	}{{"recall", MatrixCell.recall}, {"precision", MatrixCell.precision}} {
		fmt.Fprintf(&sb, "\n%-16s", metric.name)
		for _, ratio := range r.Ratios {
			fmt.Fprintf(&sb, " %6.2f", ratio)
		}
		sb.WriteByte('\n')
		for j, row := range rows[0] {
			fmt.Fprintf(&sb, "%-16s", row.label)
			for i := range r.Points {
				fmt.Fprintf(&sb, " %6.4f", metric.of(rows[i][j].cell))
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}
