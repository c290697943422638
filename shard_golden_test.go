package firmup_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"firmup"
	"firmup/internal/corpus"
)

// goldenShardDigests pins the write side end to end — unpack, recovery,
// strand extraction, interning, sealing and the shard writer — as the
// SHA-256 of every file WriteShards(…, 3) writes for a small generated
// corpus analysed with one worker, so dense strand IDs are assigned in
// image order. Recorded for version 9 with the executables cut into
// shards by package: each distinct executable stored once across the
// set, in the shard its (arch, package) group is placed on, each distinct
// strand set once per shard (the corpus-sets table), the vocabulary in
// shard 0 only, and no inverted index (a search derives it from the
// stored strand sets), over the content goldenContentDigest pins; a
// change to how the write side computes its output must leave every
// digest untouched.
var goldenShardDigests = []string{
	"7f7cdea99cfa05965db488262065575ce8c4c0326818ae4d753fdaf259e86c35",
	"04f34a9be7668dcaee95d1ada6eab5bd4f489332b839299973e27892741f2591",
	"83da52524b9054e0f8d539727c15ad11a3ce40dc70e2457b755c388fcf60973d",
}

func TestWriteShardsGolden(t *testing.T) {
	c, err := corpus.Build(corpus.Scale{DevicesPerVendor: 2, MaxReleases: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	a := firmup.NewAnalyzer(&firmup.AnalyzerOptions{Workers: 1})
	var imgs []*firmup.Image
	for _, bi := range c.Images {
		img, err := a.OpenImage(bi.Image.Pack(true))
		if err != nil {
			t.Fatal(err)
		}
		imgs = append(imgs, img)
	}
	sealed, err := a.Seal(imgs...)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := sealed.WriteShards(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != len(goldenShardDigests) {
		t.Fatalf("WriteShards wrote %d files, want %d", len(paths), len(goldenShardDigests))
	}
	for i, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != goldenShardDigests[i] {
			t.Errorf("%s: SHA-256 %s, want %s", filepath.Base(p), got, goldenShardDigests[i])
		}
	}
	opened, err := firmup.OpenSealedCorpus(filepath.Dir(paths[0]))
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()
	for _, sc := range []struct {
		name string
		sc   *firmup.SealedCorpus
	}{{"sealed", sealed}, {"opened", opened}} {
		if got := contentDigest(t, sc.sc); got != goldenContentDigest {
			t.Errorf("%s corpus: content SHA-256 %s, want %s", sc.name, got, goldenContentDigest)
		}
	}
}

// goldenContentDigest pins what the corpus of TestWriteShardsGolden holds,
// whatever format stores it (contentDigest). Recorded from the version-7
// shards, when stack-frame offsets became slots and every strand hash
// moved; the layouts of versions 4 to 6 had all held the previous
// content unchanged, and versions 8 and 9 hold this one. A change of the
// shard layout must leave it untouched.
const goldenContentDigest = "e70ebb90240150de025ec6a45fd603b34c599cd376847960b11e52cb9e2ca1a7"

// contentDigest is the SHA-256 of a sealed corpus's content, independent
// of how it is stored: every image in order — its identity and skip
// diagnostics, then each occurrence's path and the content of the
// executable it names (firmup.ExeContent).
func contentDigest(t *testing.T, sc *firmup.SealedCorpus) string {
	t.Helper()
	h := sha256.New()
	for _, im := range sc.Images() {
		fmt.Fprintf(h, "image %q %q %q\n", im.Vendor, im.Device, im.Version)
		for _, s := range im.Skipped {
			fmt.Fprintf(h, "skip %q %q\n", s.Path, s.Err)
		}
		exes, err := firmup.Occurrences(im)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range exes {
			fmt.Fprintf(h, "exe %q\n", e.Path)
			h.Write(firmup.ExeContent(e))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
