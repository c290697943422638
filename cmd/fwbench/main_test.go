package main

import (
	"bytes"
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
	checkGolden(t, "all")
}

// TestMatrixGolden pins `fwbench -exp matrix` at the default scale — the
// 36 registry queries scored per query-ISA x image-ISA cell — to
// testdata/matrix.golden. A change that moves accuracy re-records it and
// names the cells it moved.
func TestMatrixGolden(t *testing.T) {
	checkGolden(t, "matrix")
}

// checkGolden compares what experiment exp prints at the default scale,
// Table 2's Time column aside, with testdata/<exp>.golden.
func checkGolden(t *testing.T, exp string) {
	t.Helper()
	var out bytes.Buffer
	if err := run(&out, exp, "default"); err != nil {
		t.Fatal(err)
	}
	got := table2Time.ReplaceAll(out.Bytes(), []byte("$1"))
	want, err := os.ReadFile("testdata/" + exp + ".golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("fwbench -exp %s differs from testdata/%s.golden:\n%s", exp, exp, got)
	}
}
