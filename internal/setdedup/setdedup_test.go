package setdedup

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestNumberFirstSight: a table filled to the n distinct sets it has room
// for numbers them by first sight, equal sets by content — not by the
// slice they arrive in — and the empty set like any other, against a map
// keyed by the sets' text.
func TestNumberFirstSight(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 3, 100} {
		var distinct [][]uint32
		for len(distinct) < n {
			var s []uint32
			for id := uint32(rng.Intn(4)); id < 40 && len(distinct) > 0; id += 1 + uint32(rng.Intn(8)) {
				s = append(s, id)
			}
			if !slices.ContainsFunc(distinct, func(d []uint32) bool { return slices.Equal(d, s) }) {
				distinct = append(distinct, s)
			}
		}
		// Random draws, then every set once more, so each is seen.
		var draws [][]uint32
		for range 3 * n {
			draws = append(draws, distinct[rng.Intn(n)])
		}
		draws = append(draws, distinct...)
		tab, number := New(n), map[string]uint32{}
		var order [][]uint32
		for _, s := range draws {
			s = slices.Clone(s)
			key := fmt.Sprint(s)
			if _, ok := number[key]; !ok {
				number[key] = uint32(len(order))
				order = append(order, s)
			}
			if got := tab.Number(s); got != number[key] {
				t.Fatalf("n=%d: set %v numbered %d, want %d", n, s, got, number[key])
			}
		}
		if got := tab.Sets(); !slices.EqualFunc(got, order, slices.Equal) {
			t.Fatalf("n=%d: sets %v, want %v", n, got, order)
		}
	}
}
