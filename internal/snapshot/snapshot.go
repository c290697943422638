// Package snapshot implements the persistent on-disk form of a sealed
// corpus: a set of FWCORP shard files (corpusv2.go) that together hold,
// each once, the frozen strand vocabulary (in shard 0) and every distinct
// executable's procedure metadata and sorted dense strand-ID sets (a
// range per shard, from which the searcher derives its index), plus the
// images as occurrence lists naming executables corpus-wide — so that a
// corpus is analyzed once and served from its shards thereafter. This
// file holds what the container is made of: the plain data model the
// firmup layer converts sealed state to, the header arithmetic, and the
// error every decoding failure wraps.
//
// The decoder is designed for untrusted input: any structural
// violation — truncation, checksum mismatch, unknown or duplicate
// sections, a declared length that exceeds the input, an out-of-range
// reference — yields an error wrapping ErrCorrupt that names the
// offending section. It never panics and never sizes an allocation from
// a declared count without bounding it by the bytes actually remaining.
package snapshot

import (
	"errors"
	"fmt"
	"hash/crc32"
)

// headerSize is magic + version + section count.
const headerSize = len(corpusMagic) + 4 + 4

// tableEntrySize is tag + offset + length + checksum.
const tableEntrySize = 4 + 8 + 8 + 4

// tableEntry is one parsed section-table row.
type tableEntry struct {
	tag    uint32
	off    uint64
	length uint64
	crc    uint32
}

// castagnoli is the CRC-32C table used for all section checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt is the sentinel every decoding failure wraps: a shard that
// is truncated, bit-flipped, version-skewed or structurally lying is
// reported as corrupt, never as a panic or a bad corpus.
var ErrCorrupt = errors.New("snapshot: corrupt")

// CorruptError is the concrete decoding failure: which section broke
// and how. It wraps ErrCorrupt, so errors.Is(err, snapshot.ErrCorrupt)
// holds for every decoder error.
type CorruptError struct {
	// Section names the offending part: "header", "table" or a shard
	// section (v2SectionName).
	Section string
	// Reason describes the violation.
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("snapshot: corrupt %s section: %s", e.Section, e.Reason)
}

// Unwrap makes every CorruptError match ErrCorrupt.
func (e *CorruptError) Unwrap() error { return ErrCorrupt }

func corrupt(section, format string, args ...any) error {
	return &CorruptError{Section: section, Reason: fmt.Sprintf(format, args...)}
}

// Skip is one skipped-executable diagnostic.
type Skip struct {
	Path string
	Err  string
}

// Exe is one distinct executable of a shard: what the encoder writes,
// and what CorpusShard.Exe decodes, its IDs, Markers and Calls then
// aliasing the shard's bytes (valid until Close) and its names copied.
// An executable has no path of its own: the same bytes ship under
// different paths in different images (see Occurrence).
type Exe struct {
	Arch     uint8
	Stripped bool
	Procs    []Proc
}

// Proc is one procedure of an Exe.
type Proc struct {
	Name     string
	Addr     uint32
	Exported bool
	// IDs is the procedure's strand set as strictly increasing dense IDs
	// into the corpus vocabulary.
	IDs []uint32
	// Markers are the distinctive plain constants used by the
	// confirmation step.
	Markers    []uint32
	BlockCount int
	EdgeCount  int
	InstCount  int
	// Calls lists callee procedure indices within the executable
	// (CalledBy is recomputed on load).
	Calls []uint32
}
