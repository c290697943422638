package snapshot

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"firmup/internal/setdedup"
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

// setTable numbers a shard's distinct strand sets in order of first
// appearance (setdedup): by number, the first procedure holding each set,
// whose IDs and markers the shard stores; the number of every procedure's
// set in slot order — executable by executable; and the IDs and markers
// the sets hold together.
type setTable struct {
	first          []*Proc
	setOf          []uint32
	nIDs, nMarkers uint64
}

// validateCorpus checks the model invariants the shard opener will
// enforce, so an invalid model fails at encode time instead of producing
// an unreadable shard, and returns the set table a shard stores of it.
// Strand IDs index a vocabulary of vocab entries; occurrences name
// executables below totalExes; procedures holding one strand set hold its
// markers, which a shard stores once per set.
func validateCorpus(c *Corpus, vocab, totalExes int) (*setTable, error) {
	if vocab > math.MaxUint32 {
		return nil, fmt.Errorf("snapshot: encode: corpus vocabulary of %d exceeds the dense-ID space", vocab)
	}
	if len(c.Exes) > math.MaxUint32 {
		return nil, fmt.Errorf("snapshot: encode: %d executables exceed the 32-bit table space", len(c.Exes))
	}
	if err := validateExes(vocab, c.Exes); err != nil {
		return nil, err
	}
	noccs := 0
	for ii := range c.Images {
		for _, oc := range c.Images[ii].Occs {
			if oc.Exe < 0 || oc.Exe >= totalExes {
				return nil, fmt.Errorf("snapshot: encode: image %d occurrence %s references executable %d of %d", ii, oc.Path, oc.Exe, totalExes)
			}
			noccs++
		}
	}
	if noccs > math.MaxUint32 {
		return nil, fmt.Errorf("snapshot: encode: %d occurrences exceed the 32-bit table space", noccs)
	}
	nProcs := 0
	for _, e := range c.Exes {
		nProcs += len(e.Procs)
	}
	if nProcs > math.MaxUint32 {
		return nil, fmt.Errorf("snapshot: encode: %d procedures exceed the 32-bit table space", nProcs)
	}
	t, st := setdedup.New(nProcs), &setTable{first: make([]*Proc, 0, nProcs), setOf: make([]uint32, 0, nProcs)}
	for ei := range c.Exes {
		for pi := range c.Exes[ei].Procs {
			p := &c.Exes[ei].Procs[pi]
			k := t.Number(p.IDs)
			if int(k) == len(st.first) {
				st.first = append(st.first, p)
				st.nIDs, st.nMarkers = st.nIDs+uint64(len(p.IDs)), st.nMarkers+uint64(len(p.Markers))
			} else if !slices.Equal(st.first[k].Markers, p.Markers) {
				return nil, fmt.Errorf("snapshot: encode: exe %d proc %d: markers %v differ from %v, which another procedure holding the same strand set has", ei, pi, p.Markers, st.first[k].Markers)
			}
			st.setOf = append(st.setOf, k)
		}
	}
	if st.nIDs > math.MaxUint32 || st.nMarkers > math.MaxUint32 {
		return nil, fmt.Errorf("snapshot: encode: the distinct strand sets hold %d IDs and %d markers, beyond the 32-bit offset space", st.nIDs, st.nMarkers)
	}
	return st, nil
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
