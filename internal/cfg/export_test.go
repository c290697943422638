package cfg

import (
	"slices"

	"firmup/internal/isa"
	"firmup/internal/obj"
	"firmup/internal/telemetry"
)

// Coverage runs recovery's first three passes over f and returns the
// entries pass 3 ends with and the rounds it ran: claimed as RecoverWith
// claims them or, with reference set, by referenceClaimGaps.
func Coverage(f *obj.File, reference bool) ([]uint32, int, error) {
	_, sw, err := sweepText(f, telemetry.Span{})
	if err != nil {
		return nil, 0, err
	}
	entries := callEntries(f, sw)
	if reference {
		entries, rounds := referenceClaimGaps(sw, entries)
		return entries, rounds, nil
	}
	entries, rounds := claimGaps(sw, entries)
	return entries, rounds, nil
}

// referenceClaimGaps is pass 3 by its definition, the oracle claimGaps is
// checked against: every round clears the whole table, walks every extent
// in address order, and claims the lowest instruction left unmarked.
func referenceClaimGaps(sw *sweep, entries []uint32) ([]uint32, int) {
	covered := make([]bool, len(sw.seq))
	rounds := 0
	for rounds < maxClaimed {
		rounds++
		clear(covered)
		markCovered(entries, sw, covered)
		uncovered := slices.Index(covered, false)
		if uncovered < 0 {
			break
		}
		gap := sw.seq[uncovered].Addr
		i, known := slices.BinarySearch(entries, gap)
		if known {
			break
		}
		entries = slices.Insert(entries, i, gap)
	}
	return entries, rounds
}

// markCovered walks intra-procedural control flow from every entry and
// marks reachable instructions in covered (indexed like sw.seq).
func markCovered(entries []uint32, sw *sweep, covered []bool) {
	textEnd := sw.base + sw.n
	var stack []uint32
	for i, e := range entries {
		end := textEnd
		if i+1 < len(entries) {
			end = entries[i+1]
		}
		stack = append(stack[:0], e)
		for len(stack) > 0 {
			a := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for a >= e && a < end {
				ii := sw.index(a)
				if ii < 0 || covered[ii] {
					break
				}
				in := sw.seq[ii]
				covered[ii] = true
				next := a + in.Size
				if in.HasDelay {
					if di := sw.index(next); di >= 0 {
						covered[di] = true
						next += sw.seq[di].Size
					}
				}
				switch in.Kind {
				case isa.KindCondBranch:
					if in.Target >= e && in.Target < end {
						stack = append(stack, in.Target)
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
	}
}
