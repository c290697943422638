package firmup_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"firmup/internal/cfg"
	"firmup/internal/corpus"
	"firmup/internal/corpusindex"
	"firmup/internal/eval"
	"firmup/internal/isa"
	"firmup/internal/strand"
)

// goldenStrandDigest is the SHA-256 over every canonical strand of the
// default-scale corpus (all four ISAs), recorded when stack-frame
// offsets became slots (shard format version 7). FWCORP shards and
// image snapshots persist these hashes, so a single changed byte of
// canonical text silently orphans every sealed corpus: any change to
// internal/strand must leave this digest untouched, or be a deliberate
// format break that also bumps the artifact versions.
const (
	goldenStrandDigest = "7490578c11f6e80b381f0dd3ef56bc75dd2b4881a7b6335ec1214e3f5b1835af"
	goldenStrandCount  = 49485
)

// TestCanonicalStrandsGolden folds, for every unit of the default corpus
// in unit order, every block's ExtractBlock (Hash, Text) and every
// procedure's Extractor.Proc (Hashes, IDs, markers) into one digest.
func TestCanonicalStrandsGolden(t *testing.T) {
	env, err := eval.Prepare(corpus.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var word [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(word[:], v)
		h.Write(word[:])
	}
	it := corpusindex.NewInterner()
	strands := 0
	for _, u := range env.Units {
		rec, err := cfg.Recover(u.File)
		if err != nil {
			t.Fatal(err)
		}
		be, err := isa.ByArch(rec.Arch)
		if err != nil {
			t.Fatal(err)
		}
		opt := &strand.Options{ABI: be.ABI(), Sections: rec.File.Map()}
		ex := strand.NewExtractor(opt, it, nil)
		h.Write([]byte(u.Key))
		for _, p := range rec.Procs {
			for _, b := range p.Blocks {
				ss := strand.ExtractBlock(b, opt)
				strands += len(ss)
				u64(uint64(len(ss)))
				for _, s := range ss {
					u64(s.Hash)
					u64(uint64(len(s.Text)))
					h.Write([]byte(s.Text))
				}
			}
			set, markers := ex.Proc(p.Blocks)
			u64(uint64(len(set.Hashes)))
			for _, v := range set.Hashes {
				u64(v)
			}
			u64(uint64(len(set.IDs)))
			for _, v := range set.IDs {
				u64(uint64(v))
			}
			u64(uint64(len(markers)))
			for _, v := range markers {
				u64(uint64(v))
			}
		}
	}
	if strands != goldenStrandCount {
		t.Errorf("corpus has %d block strands, want %d", strands, goldenStrandCount)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenStrandDigest {
		t.Errorf("canonical strand digest = %s, want %s\n"+
			"(canonical text, hashes, dense IDs or markers changed: sealed corpora and snapshots built before this change no longer match)",
			got, goldenStrandDigest)
	}
}
