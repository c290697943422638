package firmup_test

import (
	"crypto/sha256"
	"encoding/hex"
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
// image order. Recorded at 78b344a, before the session block cache was
// deleted and the coverage sweep became incremental; a change to how the
// write side computes its output must leave every digest untouched.
var goldenShardDigests = []string{
	"eca36c90ff7b1fbebfe33c9f3716d38922369d30429cfc8e6687779e469274c9",
	"dde7128531acacba98a128a91653bf666abcb18497fee97c57d3251526ecbca0",
	"32ee594013755e4b7b2a4ea93517646fbe87301195380d8d7ef3aaf0d9b1b51d",
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
}
