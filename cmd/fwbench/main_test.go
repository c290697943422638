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
	var out bytes.Buffer
	if err := run(&out, "all", "default"); err != nil {
		t.Fatal(err)
	}
	got := table2Time.ReplaceAll(out.Bytes(), []byte("$1"))
	want, err := os.ReadFile("testdata/all.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("fwbench -exp all differs from testdata/all.golden:\n%s", got)
	}
}
