package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"firmup/internal/corpus"
	_ "firmup/internal/isa/arm" // the corpus compiles for every backend
	_ "firmup/internal/isa/mips"
	_ "firmup/internal/isa/ppc"
	_ "firmup/internal/isa/x86"
	"firmup/internal/uir"
)

// TestImagesGolden pins what firmup prints for the wget MIPS query over
// the twelve images fwcrawl writes at the default scale, passed as image
// arguments the way a shell glob passes D/*.fwim: the plain and the
// -exhaustive run must both print testdata/wget_mips.golden, and the
// -trace-json file must be testdata/wget_mips_trace.golden.
func TestImagesGolden(t *testing.T) {
	c, err := corpus.Build(corpus.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "D"), 0o755); err != nil {
		t.Fatal(err)
	}
	var images []string
	for _, bi := range c.Images {
		name := strings.ReplaceAll(fmt.Sprintf("%s_%s_%s.fwim", bi.Vendor, bi.Device, bi.FwVersion), "/", "-")
		if err := os.WriteFile(filepath.Join(dir, "D", name), bi.Image.Pack(true), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if images, err = filepath.Glob(filepath.Join(dir, "D", "*.fwim")); err != nil || len(images) != 12 {
		t.Fatalf("%d images written: %v", len(images), err)
	}
	qf, err := corpus.QueryExe("wget", "1.15", uir.ArchMIPS32)
	if err != nil {
		t.Fatal(err)
	}
	query := filepath.Join(dir, "query.felf")
	if err := os.WriteFile(query, qf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	// Image labels are the arguments as given: relative to dir.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for i, p := range images {
		images[i] = strings.TrimPrefix(p, dir+string(filepath.Separator))
	}
	want, err := os.ReadFile(filepath.Join(wd, "testdata", "wget_mips.golden"))
	if err != nil {
		t.Fatal(err)
	}
	wantTrace, err := os.ReadFile(filepath.Join(wd, "testdata", "wget_mips_trace.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, flags := range [][]string{
		{"-trace-json", "trace.json"},
		{"-exhaustive"},
	} {
		args := append(append(flags, "-query", query, "-proc", "ftp_retrieve_glob"), images...)
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d: %s", flags, code, stderr.Bytes())
		}
		if !bytes.Equal(stdout.Bytes(), want) {
			t.Errorf("%v: stdout differs from testdata/wget_mips.golden:\n%s", flags, stdout.Bytes())
		}
	}
	got, err := os.ReadFile("trace.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantTrace) {
		t.Errorf("-trace-json file differs from testdata/wget_mips_trace.golden:\n%s", got)
	}
}

// TestUsage pins the exit status of command lines that cannot search.
func TestUsage(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-query", "q.felf"},
		{"-query", "q.felf", "-proc", "p"},
		{"-query", "q.felf", "-proc", "p", "-corpus", "d", "image.fwim"},
		{"-no-such-flag"},
	} {
		if code := run(args, &bytes.Buffer{}, &bytes.Buffer{}); code != 2 {
			t.Errorf("%q: exit %d, want 2", args, code)
		}
	}
	if code := run([]string{"-query", "missing.felf", "-proc", "p", "image.fwim"}, &bytes.Buffer{}, &bytes.Buffer{}); code != 1 {
		t.Errorf("a missing query file: exit %d, want 1", code)
	}
}
