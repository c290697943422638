package main

import (
	"bytes"
	"io"
	"os"
	"regexp"
	"testing"
)

// table2Time is the trailing Time column of a Table 2 row, the only part
// of the output that differs between two runs.
var table2Time = regexp.MustCompile(`(?m)^(\d+ +CVE-.*?) +\S+$`)

// TestAllGolden pins everything `fwbench -exp all` prints at the default
// scale — every table and figure of the paper as this corpus reproduces
// it — to testdata/all.golden.
func TestAllGolden(t *testing.T) {
	checkGolden(t, "all", "default")
}

// TestMatrixGolden pins `fwbench -exp matrix` at the default scale — the
// 36 registry queries scored per query-ISA x image-ISA cell — to
// testdata/matrix.golden. A change that moves accuracy re-records it and
// names the cells it moved.
func TestMatrixGolden(t *testing.T) {
	checkGolden(t, "matrix", "default")
}

// TestMatrixBenchGolden pins `fwbench -exp matrix -scale bench` — the
// same matrix over the 128 images bench/ serves — to
// testdata/matrix_bench.golden.
func TestMatrixBenchGolden(t *testing.T) {
	checkGolden(t, "matrix", "bench")
}

// TestCurveGolden pins `fwbench -exp curve` at the default scale — the
// matrix at each MinRatio from 0.20 to 0.60 — to testdata/curve.golden.
func TestCurveGolden(t *testing.T) {
	checkGolden(t, "curve", "default")
}

// TestRecoveryGolden pins `fwbench -exp recovery` at the default scale —
// every distinct shipped executable's recovered procedure entries scored
// against the generator's symbols — to testdata/recovery.golden. A
// change to how the front end recovers or lifts procedures must leave it
// unchanged unless it means to move a boundary.
func TestRecoveryGolden(t *testing.T) {
	checkGolden(t, "recovery", "default")
}

// TestUnknownScale checks that a misspelt scale is refused, not run as
// the default corpus.
func TestUnknownScale(t *testing.T) {
	if err := run(io.Discard, "matrix", "evla"); err == nil {
		t.Fatal(`run accepted the unknown scale "evla"`)
	}
}

// checkGolden compares what experiment exp prints at a corpus scale,
// Table 2's Time column aside, with testdata/<exp>.golden — or, off the
// default scale, testdata/<exp>_<scale>.golden.
func checkGolden(t *testing.T, exp, scale string) {
	t.Helper()
	var out bytes.Buffer
	if err := run(&out, exp, scale); err != nil {
		t.Fatal(err)
	}
	got := table2Time.ReplaceAll(out.Bytes(), []byte("$1"))
	name := exp
	if scale != "default" {
		name += "_" + scale
	}
	want, err := os.ReadFile("testdata/" + name + ".golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("fwbench -exp %s -scale %s differs from testdata/%s.golden:\n%s", exp, scale, name, got)
	}
}
