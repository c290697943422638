package firmup_test

import (
	"bytes"
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
// corpus. Recorded for version 10 with the executables cut into shards by
// package: each distinct executable stored once across the set, in the
// shard its (arch, package) group is placed on, each distinct strand set
// and its markers once per shard (the corpus-sets table), strands
// numbered by hash rank, the vocabulary in shard 0 only and once, and no
// inverted index (a search derives it from the stored strand sets), over
// the content goldenContentDigest pins; a change to how the write side
// computes its output must leave every digest untouched.
var goldenShardDigests = []string{
	"9dff7f64f3be0e3bb216b95d3123be3e57e4a04409c73e837a9175a397e15a5a",
	"91d8ebc8be7656e79bb7c4b1f03551980707befbd9186b523ca9a661c6b87ee6",
	"429aa99c6b161e06a87a3460c5c335966dfb125c01f07eff68b71bd3bb7066a5",
}

// goldenSealed seals the corpus of TestWriteShardsGolden, analysed with
// the given number of workers.
func goldenSealed(t *testing.T, workers int) *firmup.SealedCorpus {
	t.Helper()
	c, err := corpus.Build(corpus.Scale{DevicesPerVendor: 2, MaxReleases: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	a := firmup.NewAnalyzer(&firmup.AnalyzerOptions{Workers: workers})
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
	return sealed
}

// TestWriteShardsIndependentOfWorkers: the session's interner numbers
// strands in the order analysis meets them, which the worker count
// changes, but a sealed corpus numbers them by hash rank, so the shards
// WriteShards writes are byte-identical whatever the analysis workers.
func TestWriteShardsIndependentOfWorkers(t *testing.T) {
	var sets [2][][]byte
	for i, workers := range []int{1, 4} {
		paths, err := goldenSealed(t, workers).WriteShards(t.TempDir(), 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range paths {
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			sets[i] = append(sets[i], data)
		}
	}
	for i := range sets[0] {
		if !bytes.Equal(sets[0][i], sets[1][i]) {
			t.Errorf("shard %d differs between one analysis worker (%d bytes) and four (%d bytes)", i, len(sets[0][i]), len(sets[1][i]))
		}
	}
}

func TestWriteShardsGolden(t *testing.T) {
	sealed := goldenSealed(t, 1)
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
// whatever format stores it and whatever IDs number its strands
// (contentDigest). Recorded from the version-9 shards, whose IDs were
// numbered first-seen, when the digest began to hash strand hashes
// instead of IDs; version 10, whose IDs are hash ranks, holds the same
// content. A change of the shard layout must leave it untouched.
const goldenContentDigest = "d7cbeb237ef9ef97cbb09b174823f8720e7cc28313bfc1c6deb23e783c28f0a9"

// contentDigest is the SHA-256 of a sealed corpus's content, independent
// of how it is stored and of the IDs its vocabulary numbers strands by:
// every image in order — its identity and skip diagnostics, then each
// occurrence's path and the content of the executable it names, strand
// hashes in place of IDs (firmup.ExeHashContent).
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
			h.Write(firmup.ExeHashContent(e))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
