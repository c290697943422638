package main

import (
	"os"
	"path/filepath"
	"testing"

	"firmup"
)

// A three-image table: wget in images 0 and 1, an old libcurl that only
// has the deprecated curl_unescape in image 2.
func toyTruth() *truthTable {
	return &truthTable{Images: [][]truthExe{
		{
			{Path: "bin/wget", Pkg: "wget", Version: "1.15", Procs: map[string]uint32{"ftp_retrieve_glob": 0x1000, "url_parse": 0x1100}},
			{Path: "bin/vsftpd", Pkg: "vsftpd", Version: "2.3.2", Procs: map[string]uint32{"handle_list": 0x2000}},
		},
		{
			// 1.16 is patched: the procedure is still there, at its own address.
			{Path: "bin/wget", Pkg: "wget", Version: "1.16", Procs: map[string]uint32{"ftp_retrieve_glob": 0x1040}},
		},
		{
			{Path: "lib/libcurl.so", Pkg: "libcurl", Version: "7.10", Procs: map[string]uint32{"curl_unescape": 0x3000, "hexval": 0x3100}},
		},
	}}
}

func TestScoreQuery(t *testing.T) {
	tt := toyTruth()
	all := []located{{0, "bin/wget", 0x1000}, {1, "bin/wget", 0x1040}}

	s := tt.scoreQuery("ftp_retrieve_glob", all, nil)
	if s != (score{Relevant: 2, Reported: 2, Correct: 2}) || s.recall() != 1 || s.precision() != 1 {
		t.Fatalf("both found: %+v recall %v precision %v", s, s.recall(), s.precision())
	}

	// Dropping one finding lowers recall and leaves precision alone.
	s = tt.scoreQuery("ftp_retrieve_glob", all[:1], nil)
	if s.recall() != 0.5 || s.precision() != 1 {
		t.Errorf("one dropped: recall %v precision %v, want 0.5 and 1", s.recall(), s.precision())
	}

	// Shifting one address lowers precision (and recall: the true
	// location was not named).
	shifted := []located{{0, "bin/wget", 0x1000}, {1, "bin/wget", 0x1044}}
	s = tt.scoreQuery("ftp_retrieve_glob", shifted, nil)
	if s.precision() != 0.5 || s.recall() != 0.5 {
		t.Errorf("one shifted: recall %v precision %v, want 0.5 and 0.5", s.recall(), s.precision())
	}

	// A finding in an executable that does not hold the procedure, or
	// at another procedure's address, is reported but not correct.
	s = tt.scoreQuery("ftp_retrieve_glob", append(all, located{0, "bin/vsftpd", 0x2000}, located{0, "bin/wget", 0x1100}), nil)
	if s != (score{Relevant: 2, Reported: 4, Correct: 2}) {
		t.Errorf("two false positives: %+v", s)
	}

	// The patched version's hit is a correct location.
	s = tt.scoreQuery("ftp_retrieve_glob", all[1:], []int{1})
	if s != (score{Relevant: 1, Reported: 1, Correct: 1}) {
		t.Errorf("patched-version hit within image 1: %+v", s)
	}

	// Restricting to an image that has nothing to find: vacuously 1.
	s = tt.scoreQuery("ftp_retrieve_glob", nil, []int{2})
	if s.Relevant != 0 || s.recall() != 1 || s.precision() != 1 {
		t.Errorf("nothing to find: %+v", s)
	}
}

// libcurl 7.10 has no curl_easy_unescape; matching its deprecated
// predecessor counts as finding the CVE procedure, as internal/eval's
// verdict rule has it — for that query only.
func TestScoreDeprecatedAlias(t *testing.T) {
	tt := toyTruth()
	hit := []located{{2, "lib/libcurl.so", 0x3000}}
	if s := tt.scoreQuery("curl_easy_unescape", hit, nil); s != (score{Relevant: 1, Reported: 1, Correct: 1}) {
		t.Errorf("curl_unescape hit for curl_easy_unescape: %+v", s)
	}
	if s := tt.scoreQuery("tailmatch", hit, nil); s != (score{Relevant: 0, Reported: 1, Correct: 0}) {
		t.Errorf("curl_unescape hit for tailmatch: %+v", s)
	}
}

func TestScoreAdd(t *testing.T) {
	s := score{Relevant: 2, Reported: 2, Correct: 1}
	s.add(score{Relevant: 2, Reported: 1, Correct: 1})
	if s.recall() != 0.5 || s.precision() != 2.0/3 {
		t.Errorf("pooled: %+v recall %v precision %v", s, s.recall(), s.precision())
	}
}

// ingestInProcess seals the fixture's images with the facade and writes
// the shards under dir, without the child process the workloads use.
func ingestInProcess(t *testing.T, fx *fixture, dir string, shards int) {
	t.Helper()
	a := firmup.NewAnalyzer(nil)
	var imgs []*firmup.Image
	for _, p := range fx.imageFiles {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		img, err := a.OpenImage(data)
		if err != nil {
			t.Fatal(err)
		}
		imgs = append(imgs, img)
	}
	sealed, err := a.Seal(imgs...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sealed.WriteShards(dir, shards); err != nil {
		t.Fatal(err)
	}
}

// On the 16-image corpus the wget/MIPS query's accuracy must equal the
// values read off the truth table by hand. The table: bin/wget ships in
// images 0-5 and 9-15, thirteen executables, each holding
// ftp_retrieve_glob (1.12 and 1.15 vulnerable, 1.16 patched). The search
// reports eleven findings, each at the table's address for its
// executable; it misses image 5 (1.16, ARM) and image 11 (1.16, x86).
// So recall is 11/13 and precision 11/11.
func TestWgetMIPSAgainstHandCount(t *testing.T) {
	dir := t.TempDir()
	fx, err := generate(dir, 16)
	if err != nil {
		t.Fatal(err)
	}
	shards := filepath.Join(dir, "shards")
	ingestInProcess(t, fx, shards, 2)
	var wget *query
	for _, q := range fx.mipsQueries() {
		if q.CVE == "CVE-2014-4877" {
			wget = q
		}
	}
	if wget == nil {
		t.Fatal("no wget/MIPS query in the fixture")
	}
	found, err := sweepInProcess(shards, []*query{wget})
	if err != nil {
		t.Fatal(err)
	}

	// The hand count, written without the scorer: walk the table.
	relevant, correct := 0, 0
	for ii, im := range fx.truth.Images {
		for _, e := range im {
			addr, ok := e.Procs["ftp_retrieve_glob"]
			if !ok {
				continue
			}
			relevant++
			for _, f := range found[0] {
				if f.Image == ii && f.Path == e.Path && f.Addr == addr {
					correct++
				}
			}
		}
	}
	s := fx.truth.scoreQuery(wget.Proc, found[0], nil)
	if s.Relevant != relevant || s.Correct != correct || s.Reported != len(found[0]) {
		t.Fatalf("scorer says %+v, the table says relevant %d correct %d reported %d", s, relevant, correct, len(found[0]))
	}
	want := score{Relevant: wantWgetRelevant, Reported: wantWgetReported, Correct: wantWgetCorrect}
	if s != want {
		t.Errorf("wget/MIPS on the 16-image corpus: %+v, want %+v", s, want)
	}
	if s.recall() != float64(wantWgetCorrect)/wantWgetRelevant || s.precision() != float64(wantWgetCorrect)/wantWgetReported {
		t.Errorf("recall %v precision %v", s.recall(), s.precision())
	}
}

// Read off the truth table of the 16-image, corpus-seed-1 corpus.
const (
	wantWgetRelevant = 13
	wantWgetReported = 11
	wantWgetCorrect  = 11
)
