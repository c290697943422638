package cfg

import (
	"slices"

	"firmup/internal/isa"
)

// maxClaimed bounds the rounds of pass 3, and so the entries it may
// claim in one executable.
const maxClaimed = 1024

// claimGaps is pass 3, the coverage corroboration: walk reachability from
// every entry within its extent, claim the lowest decoded instruction no
// walk reached as a new entry, and repeat, for at most maxClaimed rounds.
// It returns the entries and the number of rounds run.
func claimGaps(sw *sweep, entries []uint32) ([]uint32, int) {
	c := &coverage{
		sw:      sw,
		entries: entries,
		covered: make([]bool, len(sw.seq)),
		top:     make([]int32, len(entries)),
		spill:   make([]bool, len(entries)),
	}
	c.walkFrom(0, len(entries)-1)
	rounds := 0
	for rounds < maxClaimed {
		rounds++
		uncovered := c.lowestUncovered()
		if uncovered < 0 {
			break
		}
		gap := sw.seq[uncovered].Addr
		i, known := slices.BinarySearch(c.entries, gap)
		if known {
			break // no progress; avoid looping on undecodable junk
		}
		c.insert(i, gap)
	}
	return c.entries, rounds
}

// coverage is pass 3's state. The sorted entries partition the text into
// extents — [entries[i], entries[i+1]), the last one running to the end
// of the text — and covered marks, indexed like sw.seq, what the walk from
// each entry reached inside its extent.
//
// Covered is kept equal to what walking every extent in address order
// from a clear table gives, without re-walking the text each round. An
// inserted entry splits one extent, and only the walks of the two halves
// change, with one exception, the spill: a walk marks a branch's delay
// slot even when the slot is the first instruction past the extent, and
// the extent that instruction starts then finds its first instruction
// marked and walks nothing. So a round clears what the split extent's
// walk marked, walks its two halves, and walks on through the following
// extents while the spill into each differs from what its last walk saw.
// Nothing below the split extent changes, so the search for the lowest
// uncovered instruction resumes there.
type coverage struct {
	sw      *sweep
	entries []uint32
	covered []bool
	// Per extent, parallel to entries: one past the highest instruction
	// marked in it when it was last walked, a spill into its first one
	// included (0 when none), and whether that walk marked the delay slot
	// past its end — the next extent's first instruction.
	top   []int32
	spill []bool
	// from is the index below which every instruction is covered.
	from  int32
	stack []uint32
}

// lo returns the index of extent j's first instruction, the first at or
// after its entry: len(sw.seq) past the last extent.
func (c *coverage) lo(j int) int32 {
	if j >= len(c.entries) {
		return int32(len(c.sw.seq))
	}
	return c.sw.lower(c.entries[j])
}

// lowestUncovered returns the index of the lowest instruction no walk
// reached, or -1.
func (c *coverage) lowestUncovered() int {
	i := slices.Index(c.covered[c.from:], false)
	if i < 0 {
		return -1
	}
	c.from += int32(i)
	return int(c.from)
}

// insert makes gap the entry at position i, which splits extent i-1 (when
// there is one), and re-walks what that changes.
func (c *coverage) insert(i int, gap uint32) {
	c.entries = slices.Insert(c.entries, i, gap)
	c.top = slices.Insert(c.top, i, 0)
	c.spill = slices.Insert(c.spill, i, false)
	j := i
	if i > 0 {
		// The split extent's marks can lie on either side of gap; its spill
		// was made at the end the second half keeps.
		j = i - 1
		c.clearWalk(j)
		c.spill[i], c.spill[j] = c.spill[j], false
	}
	c.walkFrom(j, i)
	c.from = c.lo(j)
}

// clearWalk unmarks what extent j's last walk marked.
func (c *coverage) clearWalk(j int) {
	if lo, t := c.lo(j), c.top[j]; t > lo {
		clear(c.covered[lo:t])
	}
	c.top[j] = 0
}

// carriedInto reports whether an earlier walk spilled into extent j's
// first instruction: the walk of j-1, or of the extent before a run of
// extents that hold no instruction.
func (c *coverage) carriedInto(j int) bool {
	for m := j - 1; m >= 0; m-- {
		if c.spill[m] {
			return true
		}
		if c.lo(m) < c.lo(m+1) {
			return false
		}
	}
	return false
}

// walkFrom re-walks extents from j on: every one up to through, then
// more while the spill into the next differs from what its last walk saw.
func (c *coverage) walkFrom(j, through int) {
	carry := c.carriedInto(j)
	was := carry
	for ; j < len(c.entries) && (j <= through || carry != was); j++ {
		lo, hi := c.lo(j), c.lo(j+1)
		c.clearWalk(j)
		spilled := c.spill[j]
		c.walk(j, lo, carry && lo < hi)
		// An extent without instructions passes a spill on to the next.
		was = spilled || was && lo == hi
		carry = c.spill[j] || carry && lo == hi
	}
}

// walk follows intra-procedural control flow from extent j's entry
// within its bounds, marking what it reaches — after marking the
// extent's first instruction, at lo, when an earlier walk spilled into
// it — and records the walk's top and spill.
func (c *coverage) walk(j int, lo int32, spilledInto bool) {
	sw := c.sw
	e, end := c.entries[j], sw.base+sw.n
	if j+1 < len(c.entries) {
		end = c.entries[j+1]
	}
	top, spill := int32(0), false
	if spilledInto {
		c.covered[lo] = true
		top = lo + 1
	}
	c.stack = append(c.stack[:0], e)
	for len(c.stack) > 0 {
		a := c.stack[len(c.stack)-1]
		c.stack = c.stack[:len(c.stack)-1]
		for a >= e && a < end {
			ii := sw.index(a)
			if ii < 0 || c.covered[ii] {
				break
			}
			in := &sw.seq[ii]
			c.covered[ii] = true
			top = max(top, ii+1)
			next := a + in.Size
			if in.HasDelay {
				if di := sw.index(next); di >= 0 {
					if next < end {
						c.covered[di] = true
						top = max(top, di+1)
					} else {
						spill = true // marked by the walk of the extent it starts
					}
					next += sw.seq[di].Size
				}
			}
			switch in.Kind {
			case isa.KindCondBranch:
				if in.Target >= e && in.Target < end {
					c.stack = append(c.stack, in.Target)
				}
				a = next
			case isa.KindJump:
				if in.Target >= e && in.Target < end {
					a = in.Target
				} else {
					a = end // tail transfer out of extent
				}
			case isa.KindRet, isa.KindIndirect:
				a = end
			default: // normal and calls fall through
				a = next
			}
		}
	}
	c.top[j], c.spill[j] = top, spill
}
