package snapshot

import (
	"fmt"
	"math"
)

// corpusMagic opens every sealed-corpus shard. Same length as the image
// snapshot magic, so the two containers share header arithmetic while
// remaining mutually unreadable.
const corpusMagic = "FWCORP\r\n"

// Corpus is the serialized form of one shard of a sealed corpus: the
// frozen vocabulary, each distinct executable once, one inverted index
// over those, and the images as lists of occurrences. Like Image it is a
// plain data model; the firmup layer converts to and from sealed
// session state.
type Corpus struct {
	// Interner is the frozen vocabulary ordered by dense ID. Every
	// Proc.IDs and IndexRow.ID indexes into it.
	Interner []uint64
	// Exes are the distinct executables the images refer to. An
	// executable has no path of its own here (Exe.Path is not persisted):
	// the same bytes ship under different paths in different images.
	Exes []Exe
	// Index holds the inverted-index rows over Exes, or nil when the
	// corpus was sealed without one.
	Index  []IndexRow
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
// found under and the index into Corpus.Exes of what it is.
type Occurrence struct {
	Path string
	Exe  int
}

// validateCorpus checks the model invariants the shard opener will
// enforce, so an invalid model fails at encode time instead of producing
// an unreadable shard.
func validateCorpus(c *Corpus) error {
	if len(c.Interner) > math.MaxUint32 {
		return fmt.Errorf("snapshot: encode: corpus vocabulary of %d exceeds the dense-ID space", len(c.Interner))
	}
	if len(c.Exes) > math.MaxUint32 {
		return fmt.Errorf("snapshot: encode: %d executables exceed the 32-bit table space", len(c.Exes))
	}
	if err := validateExes(len(c.Interner), c.Exes); err != nil {
		return err
	}
	if err := validateIndex(len(c.Interner), c.Exes, c.Index); err != nil {
		return err
	}
	referenced := make([]bool, len(c.Exes))
	noccs := 0
	for ii := range c.Images {
		for _, oc := range c.Images[ii].Occs {
			if oc.Exe < 0 || oc.Exe >= len(c.Exes) {
				return fmt.Errorf("snapshot: encode: image %d occurrence %s references executable %d of %d", ii, oc.Path, oc.Exe, len(c.Exes))
			}
			referenced[oc.Exe] = true
			noccs++
		}
	}
	if noccs > math.MaxUint32 {
		return fmt.Errorf("snapshot: encode: %d occurrences exceed the 32-bit table space", noccs)
	}
	for ei, ok := range referenced {
		if !ok {
			return fmt.Errorf("snapshot: encode: executable %d is referenced by no occurrence", ei)
		}
	}
	return nil
}
