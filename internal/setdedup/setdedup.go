// Package setdedup numbers strand-ID sets by content: equal sets share
// one number, and numbers follow first sight. The shard encoder numbers
// a shard's sets this way to store each distinct one once, and the corpus
// index to post each distinct one once.
package setdedup

import (
	"math/bits"
	"slices"
)

// Table numbers sets through an open-addressed table, at most half full,
// keyed by a multiplicative hash of a set's IDs; each hit is confirmed
// element by element. It keeps the sets it numbers, not copies.
type Table struct {
	shift uint
	slots []uint32   // set number + 1; 0 is free
	sets  [][]uint32 // by number
}

// New returns a table with room for n distinct sets.
func New(n int) *Table {
	shift := 64 - bits.Len(uint(2*n))
	return &Table{shift: uint(shift), slots: make([]uint32, 1<<(64-shift)), sets: make([][]uint32, 0, n)}
}

// Number returns the number of ids, assigning the next one if no equal
// set has been numbered. A table numbers at most the n distinct sets New
// made room for.
func (t *Table) Number(ids []uint32) uint32 {
	h := uint64(len(ids))
	for _, id := range ids {
		h = (h ^ uint64(id)) * 0x9E3779B97F4A7C15
	}
	i := h >> t.shift
	for t.slots[i] != 0 && !slices.Equal(t.sets[t.slots[i]-1], ids) {
		i = (i + 1) & uint64(len(t.slots)-1)
	}
	if t.slots[i] == 0 {
		t.sets = append(t.sets, ids)
		t.slots[i] = uint32(len(t.sets))
	}
	return t.slots[i] - 1
}

// Sets returns the distinct sets numbered so far, by number.
func (t *Table) Sets() [][]uint32 { return t.sets }
