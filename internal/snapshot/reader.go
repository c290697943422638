package snapshot

import (
	"encoding/binary"
	"math"
)

// reader is a bounds-checked consumer over one section payload.
type reader struct {
	b       []byte
	section string
}

func (r *reader) corrupt(format string, args ...any) error {
	return corrupt(r.section, format, args...)
}

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		return 0, r.corrupt("truncated or overlong varint")
	}
	r.b = r.b[n:]
	return v, nil
}

// count reads a uvarint element count and rejects it when even at
// minBytes per element it cannot fit in the remaining payload — the
// guard that keeps attacker-declared lengths from driving allocations.
//
// Scale audit: the cap is relative (remaining payload bytes / minBytes),
// not an absolute constant, so multi-gigabyte corpus sections pass
// through unchanged — a section holding N bytes can never drive more
// than N/minBytes elements of allocation, at 12-image and at
// paper-scale corpora alike. The shard layout (corpusv2.go) goes
// further: its slab views are casts over the mapped file, sized by the
// cross-checked section length, and allocate nothing at all.
func (r *reader) count(what string, minBytes int) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(len(r.b))/uint64(minBytes) {
		return 0, r.corrupt("%s count %d cannot fit in %d remaining bytes", what, v, len(r.b))
	}
	return int(v), nil
}

func (r *reader) str() (string, error) {
	n, err := r.count("string byte", 1)
	if err != nil {
		return "", err
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s, nil
}

// uvarintInt reads a uvarint that must fit a non-negative int32-sized
// int (shape counts, call targets).
func (r *reader) uvarintInt(what string) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > math.MaxInt32 {
		return 0, r.corrupt("%s %d exceeds 31 bits", what, v)
	}
	return int(v), nil
}
