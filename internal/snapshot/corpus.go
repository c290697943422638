package snapshot

import (
	"encoding/binary"
	"fmt"
	"math"
)

// corpusMagic opens every sealed-corpus shard.
const corpusMagic = "FWCORP\r\n"

// Corpus is the serialized form of one shard of a sealed corpus: the
// shard's range of the corpus's distinct executables and the shard's
// images as lists of occurrences. The frozen vocabulary they index is the
// Vocab that encodes them. It is a plain data model; the firmup layer
// converts to and from sealed session state.
type Corpus struct {
	// Exes are the distinct executables with corpus-wide IDs
	// [ShardHeader.ExeBase, ShardHeader.ExeBase+len(Exes)).
	Exes   []Exe
	Images []CorpusImage
}

// CorpusImage is one image of a sealed corpus: its identity and the
// executables found in it.
type CorpusImage struct {
	Vendor  string
	Device  string
	Version string
	Skipped []Skip
	Occs    []Occurrence
}

// Occurrence is one executable of an image: the in-image path it was
// found under and the corpus-wide ID of what it is, which any shard of
// the corpus may store.
type Occurrence struct {
	Path string
	Exe  int
}

// validateCorpus checks the model invariants the shard opener will
// enforce, so an invalid model fails at encode time instead of producing
// an unreadable shard. Strand IDs index a vocabulary of vocab entries;
// occurrences name executables below totalExes.
func validateCorpus(c *Corpus, vocab, totalExes int) error {
	if vocab > math.MaxUint32 {
		return fmt.Errorf("snapshot: encode: corpus vocabulary of %d exceeds the dense-ID space", vocab)
	}
	if len(c.Exes) > math.MaxUint32 {
		return fmt.Errorf("snapshot: encode: %d executables exceed the 32-bit table space", len(c.Exes))
	}
	if err := validateExes(vocab, c.Exes); err != nil {
		return err
	}
	noccs := 0
	for ii := range c.Images {
		for _, oc := range c.Images[ii].Occs {
			if oc.Exe < 0 || oc.Exe >= totalExes {
				return fmt.Errorf("snapshot: encode: image %d occurrence %s references executable %d of %d", ii, oc.Path, oc.Exe, totalExes)
			}
			noccs++
		}
	}
	if noccs > math.MaxUint32 {
		return fmt.Errorf("snapshot: encode: %d occurrences exceed the 32-bit table space", noccs)
	}
	return nil
}

func validateExes(vocab int, exes []Exe) error {
	for ei, e := range exes {
		for pi, p := range e.Procs {
			for k, id := range p.IDs {
				if k > 0 && id <= p.IDs[k-1] {
					return fmt.Errorf("snapshot: encode: exe %d proc %d: strand IDs not strictly increasing", ei, pi)
				}
				if int(id) >= vocab {
					return fmt.Errorf("snapshot: encode: exe %d proc %d: strand ID %d outside vocabulary of %d", ei, pi, id, vocab)
				}
			}
			for _, c := range p.Calls {
				if int(c) >= len(e.Procs) {
					return fmt.Errorf("snapshot: encode: exe %d proc %d: call target %d out of range", ei, pi, c)
				}
			}
			if p.BlockCount < 0 || p.EdgeCount < 0 || p.InstCount < 0 {
				return fmt.Errorf("snapshot: encode: exe %d proc %d: negative shape counts", ei, pi)
			}
		}
	}
	return nil
}

func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}
