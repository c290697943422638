package eval

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"firmup/internal/corpus"
	"firmup/internal/uir"
)

// RecoveryRow is the procedure-recovery census of the distinct shipped
// executables one vendor's tool chain built for one ISA: the entries the
// analysis recovered from the stripped binaries, against the generator's
// symbols (BuiltExe.Truth).
type RecoveryRow struct {
	Arch   uir.Arch
	Vendor string
	Exes   int
	// Truth counts the generator's procedure entries, Recovered the
	// analysis's, Matched the entries both hold.
	Truth, Recovered, Matched int
	// Missed counts truth entries recovered as no procedure's entry: the
	// code was merged into a neighbour (or left out). Extra counts
	// recovered entries no symbol starts at: a procedure was split.
	Missed, Extra int
	// CVEs counts the registry CVE procedures these executables hold,
	// CVEsFound those recovered at their truth address.
	CVEs, CVEsFound int
}

func (r *RecoveryRow) add(o *RecoveryRow) {
	r.Exes += o.Exes
	r.Truth += o.Truth
	r.Recovered += o.Recovered
	r.Matched += o.Matched
	r.Missed += o.Missed
	r.Extra += o.Extra
	r.CVEs += o.CVEs
	r.CVEsFound += o.CVEsFound
}

// RecoveryResult is the recovery census of the whole corpus: one row per
// ISA × vendor, in queryArchs then vendor order, and every CVE procedure
// that was not recovered at its truth address.
type RecoveryResult struct {
	Rows []RecoveryRow
	// Lost names each CVE procedure not recovered at its truth address,
	// as "<unit key> <procedure>".
	Lost []string
}

// RecoveryCensus scores procedure recovery over every distinct shipped
// executable, as the sealed corpus analysed it (Unit.Exe: the pipeline
// path OpenImage runs), against the generator's symbol table.
func RecoveryCensus(env *Env) *RecoveryResult {
	rows := map[string]*RecoveryRow{}
	res := &RecoveryResult{}
	for _, u := range env.Units {
		key := u.Arch.String() + "|" + u.Vendor
		row := rows[key]
		if row == nil {
			row = &RecoveryRow{Arch: u.Arch, Vendor: u.Vendor}
			rows[key] = row
		}
		recovered := make(map[uint32]bool, len(u.Exe.Procs))
		for _, p := range u.Exe.Procs {
			recovered[p.Addr] = true
		}
		truth := make(map[uint32]bool, len(u.Truth))
		for _, a := range u.Truth {
			truth[a] = true
		}
		row.Exes++
		row.Truth += len(truth)
		row.Recovered += len(recovered)
		for a := range truth {
			if recovered[a] {
				row.Matched++
			} else {
				row.Missed++
			}
		}
		for a := range recovered {
			if !truth[a] {
				row.Extra++
			}
		}
		for _, cve := range corpus.CVEs {
			a, ok := u.Truth[cve.Procedure]
			if !ok {
				continue
			}
			row.CVEs++
			if recovered[a] {
				row.CVEsFound++
			} else {
				res.Lost = append(res.Lost, u.Key+" "+cve.Procedure)
			}
		}
	}
	for _, r := range rows {
		res.Rows = append(res.Rows, *r)
	}
	slices.SortFunc(res.Rows, func(a, b RecoveryRow) int {
		return cmp.Or(cmp.Compare(slices.Index(queryArchs, a.Arch), slices.Index(queryArchs, b.Arch)), cmp.Compare(a.Vendor, b.Vendor))
	})
	slices.Sort(res.Lost)
	return res
}

// Format renders one line per ISA × vendor, then everything pooled, then
// the CVE procedures not recovered at their truth address. Recall is
// Matched over Truth, precision Matched over Recovered, each 1 when its
// denominator is 0.
func (r *RecoveryResult) Format() string {
	var sb strings.Builder
	var pooled RecoveryRow
	for i := range r.Rows {
		pooled.add(&r.Rows[i])
	}
	fmt.Fprintf(&sb, "Recovery census: %d distinct shipped executables, recovered procedure entries against the generator's symbols, by ISA x vendor\n\n", pooled.Exes)
	ratio := func(n, d int) float64 {
		if d == 0 {
			return 1
		}
		return float64(n) / float64(d)
	}
	line := func(label string, c *RecoveryRow) {
		fmt.Fprintf(&sb, "%-22s %4d %6d %9d %7d %7.4f %9.4f %6d %5d %5d/%d\n", label, c.Exes, c.Truth, c.Recovered, c.Matched,
			ratio(c.Matched, c.Truth), ratio(c.Matched, c.Recovered), c.Missed, c.Extra, c.CVEsFound, c.CVEs)
	}
	fmt.Fprintf(&sb, "%-22s %4s %6s %9s %7s %7s %9s %6s %5s %s\n", "isa / vendor", "exes", "truth", "recovered", "matched",
		"recall", "precision", "missed", "extra", "cve")
	for i := range r.Rows {
		line(r.Rows[i].Arch.String()+" / "+r.Rows[i].Vendor, &r.Rows[i])
	}
	line("pooled", &pooled)
	if len(r.Lost) == 0 {
		sb.WriteString("\nevery CVE procedure recovered at its truth address\n")
		return sb.String()
	}
	sb.WriteString("\nCVE procedures not recovered at their truth address:\n")
	for _, l := range r.Lost {
		fmt.Fprintf(&sb, "  %s\n", l)
	}
	return sb.String()
}
