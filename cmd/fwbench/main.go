// Command fwbench regenerates the paper's tables and figures over the
// synthetic corpus.
//
// Usage:
//
//	fwbench -exp all            # every experiment at the default scale
//	fwbench -exp table2 -scale eval
//	fwbench -exp fig6|fig8|fig9|fig5|table1|demo|ablation
//	fwbench -exp matrix         # cross-ISA accuracy; not part of all
//	fwbench -exp matrix -scale bench   # the same over bench/'s 128 images
//	fwbench -exp curve          # the matrix per MinRatio; not part of all
//	fwbench -exp recovery       # procedure-recovery census; not part of all
//
// Timing lives in bench/ (bash bench/run.sh), not here.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"firmup/internal/buildinfo"
	"firmup/internal/corpus"
	"firmup/internal/eval"
	_ "firmup/internal/isa/arm"
	_ "firmup/internal/isa/mips"
	_ "firmup/internal/isa/ppc"
	_ "firmup/internal/isa/x86"
)

func main() {
	exp := flag.String("exp", "all", "experiment: table2, fig6, fig8, fig9, ablation, fig5, table1, demo, all, matrix, curve, recovery")
	scale := flag.String("scale", "default", "corpus scale: default, eval or bench (the 128 images bench/ serves)")
	version := flag.Bool("version", false, "print build version and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String())
		return
	}
	valid := map[string]bool{"all": true, "table2": true, "fig6": true, "fig8": true,
		"fig9": true, "ablation": true, "fig5": true, "table1": true, "demo": true, "matrix": true, "curve": true, "recovery": true}
	if !valid[*exp] {
		fmt.Fprintf(os.Stderr, "fwbench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	if _, err := corpus.ScaleByName(*scale); err != nil {
		fmt.Fprintln(os.Stderr, "fwbench:", err)
		os.Exit(2)
	}
	if err := run(os.Stdout, *exp, *scale); err != nil {
		fmt.Fprintln(os.Stderr, "fwbench:", err)
		os.Exit(1)
	}
}

// run prints experiment exp (a name main has validated) at the named
// corpus scale to w.
func run(w io.Writer, exp, scale string) error {
	sc, err := corpus.ScaleByName(scale)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "preparing corpus (scale=%s)...\n", scale)
	env, err := eval.Prepare(sc)
	if err != nil {
		return err
	}
	st := env.Corpus.Stat()
	fmt.Fprintf(w, "corpus ready: %d images, %d executables, %d procedures, %d unique builds\n",
		st.Images, st.Exes, st.Procedures, len(env.Units))
	fmt.Fprintf(w, "session: %d unique strands interned\n\n", env.Sealed.UniqueStrands())

	if exp == "matrix" {
		res, err := eval.Matrix(env, nil)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res.Format())
		return nil
	}
	if exp == "curve" {
		res, err := eval.Curve(env)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res.Format())
		return nil
	}
	if exp == "recovery" {
		fmt.Fprintln(w, eval.RecoveryCensus(env).Format())
		return nil
	}
	want := func(name string) bool { return exp == "all" || exp == name }

	if want("table2") {
		res, err := eval.Table2(env)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res.Format())
		confirmed, latest := res.TotalConfirmed()
		fmt.Fprintf(w, "total: %d confirmed vulnerable procedures, %d devices affected at their latest firmware\n\n",
			confirmed, latest)
	}
	if want("fig6") {
		res, err := eval.CompareBinDiff(env)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "=== Fig. 6 ===")
		fmt.Fprintln(w, res.Format())
	}
	var gitzRes *eval.CompareResult
	if want("fig8") || want("fig9") || want("ablation") {
		gitzRes, err = eval.CompareGitZ(env)
		if err != nil {
			return err
		}
	}
	if want("fig8") {
		fmt.Fprintln(w, "=== Fig. 8 ===")
		fmt.Fprintln(w, gitzRes.Format())
	}
	if want("fig9") || want("ablation") {
		fmt.Fprintln(w, "=== Fig. 9 / ablation ===")
		fmt.Fprintln(w, eval.FormatFig9(gitzRes))
	}
	if want("table1") || want("demo") {
		out, err := eval.GameTrace(env)
		if err != nil {
			fmt.Fprintln(os.Stderr, "table1:", err)
		} else {
			fmt.Fprintln(w, out)
		}
	}
	if want("fig5") || want("demo") {
		out, err := eval.CallGraphs(env)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fig5:", err)
		} else {
			fmt.Fprintln(w, out)
		}
	}
	if want("demo") || exp == "all" {
		out, err := eval.StrandDemo(env)
		if err == nil {
			fmt.Fprintln(w, out)
		}
	}
	return nil
}
