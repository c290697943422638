package firmup_test

import (
	"reflect"
	"testing"

	"firmup"
	"firmup/internal/corpus"
)

// TestWriteShardsUnderOpenCorpus re-seals the directory an open corpus
// serves from with a smaller corpus, as an operator re-sealing under a
// running firmupd does. The open corpus must go on answering exactly as
// before — the shards it mapped keep their bytes, including the pages it
// has not touched yet — and the directory must then open as the new
// corpus. A shard rewritten in place is truncated under the mapping, and
// the open corpus's next read of it faults, which ends the process.
func TestWriteShardsUnderOpenCorpus(t *testing.T) {
	c, err := corpus.Build(corpus.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	a := firmup.NewAnalyzer(nil)
	var imgs []*firmup.Image
	for _, bi := range c.Images {
		img, err := a.OpenImage(bi.Image.Pack(true))
		if err != nil {
			t.Fatal(err)
		}
		imgs = append(imgs, img)
	}
	old, err := a.Seal(imgs...)
	if err != nil {
		t.Fatal(err)
	}
	next, err := a.Seal(imgs[:1]...)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := old.WriteShards(dir, 2); err != nil {
		t.Fatal(err)
	}
	open, err := firmup.OpenSealedCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer open.Close()

	// search answers every sealed test query against sc, analysed by sc.
	search := func(sc *firmup.SealedCorpus, queries int) [][]firmup.ImageFindings {
		t.Helper()
		var out [][]firmup.ImageFindings
		for _, q := range sealedTestQueries[:queries] {
			cve := corpus.CVEByID(q.cveID)
			res, err := sc.SearchAll(mustSealedQuery(t, sc, queryBytesFor(t, cve, q.arch)), cve.Procedure, nil)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res)
		}
		return out
	}
	all := len(sealedTestQueries)
	want := search(old, all)
	// The first query materializes its candidates before the rewrite; the
	// others read pages of the shards the open corpus has not touched.
	if got := search(open, 1); !reflect.DeepEqual(got, want[:1]) {
		t.Fatalf("the opened corpus answers differently from the sealed one:\n%+v\n%+v", got, want[:1])
	}
	if _, err := next.WriteShards(dir, 2); err != nil {
		t.Fatal(err)
	}
	if got := search(open, all); !reflect.DeepEqual(got, want) {
		t.Errorf("the open corpus answers differently after its directory was re-sealed:\n%+v\n%+v", got, want)
	}

	reopened, err := firmup.OpenSealedCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if n := len(reopened.Images()); n != 1 {
		t.Fatalf("the re-sealed directory opens with %d images, want 1", n)
	}
	if got, want := search(reopened, all), search(next, all); !reflect.DeepEqual(got, want) {
		t.Errorf("the re-sealed directory answers differently from the corpus written to it:\n%+v\n%+v", got, want)
	}
}
