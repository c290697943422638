package cfg_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"slices"
	"testing"
	"time"

	"firmup/internal/cfg"
	"firmup/internal/corpus"
	"firmup/internal/obj"
	"firmup/internal/uir"
)

// checkCoverage asserts that pass 3 claims the reference's entries in the
// reference's number of rounds, and returns that number.
func checkCoverage(t *testing.T, name string, f *obj.File) int {
	t.Helper()
	want, wantRounds, err := cfg.Coverage(f, true)
	if err != nil {
		return 0
	}
	got, rounds, err := cfg.Coverage(f, false)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if rounds != wantRounds || !slices.Equal(got, want) {
		t.Fatalf("%s: %d rounds claim %d entries %#x, reference %d rounds claim %d entries %#x",
			name, rounds, len(got), got, wantRounds, len(want), want)
	}
	return rounds
}

// Pass 3 walks only what each inserted entry can change; the reference
// re-walks the whole text every round. Same entries, same rounds, on the
// registry queries as built and stripped and on every distinct executable
// of the default corpus as shipped, stripped.
func TestCoverageMatchesReference(t *testing.T) {
	for _, q := range registryQueries(t) {
		f, err := obj.Read(q.data)
		if err != nil {
			t.Fatal(err)
		}
		checkCoverage(t, q.name, f)
		f.Strip()
		checkCoverage(t, q.name+" stripped", f)
	}
	seen := map[[32]byte]bool{}
	exes, rounds := 0, 0
	err := corpus.Stream(corpus.DefaultScale(), func(bi *corpus.BuiltImage) error {
		for _, fe := range bi.Image.Files {
			key := sha256.Sum256(fe.Data)
			if seen[key] {
				continue
			}
			seen[key] = true
			f, err := obj.Read(fe.Data)
			if err != nil {
				continue // not an executable
			}
			if !f.Stripped {
				t.Fatalf("%s: shipped with symbols", fe.Path)
			}
			exes++
			rounds += checkCoverage(t, fe.Path, f)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d rounds over %d distinct executables", rounds, exes)
	if rounds <= 2*exes {
		t.Fatalf("%d rounds over %d distinct executables: the corpus no longer exercises pass 3", rounds, exes)
	}
}

// MIPS words for the hand-built texts, at mipsBase.
const (
	mipsBase = 0x400000
	mipsNop  = 0x00000000
	mipsRet  = 0x03E00008 // jr $ra
	mipsLoad = 0x24020001 // addiu $v0, $zero, 1
)

func mipsJal(target uint32) uint32 { return 0x0C000000 | target>>2&0x03FFFFFF }
func mipsJ(target uint32) uint32   { return 0x08000000 | target>>2&0x03FFFFFF }

// mipsText is a stripped MIPS executable whose text is words, entered at
// its first.
func mipsText(t *testing.T, words ...uint32) *obj.File {
	t.Helper()
	text := make([]byte, 4*len(words))
	for i, w := range words {
		binary.BigEndian.PutUint32(text[4*i:], w)
	}
	file := &obj.File{
		Arch:     uir.ArchMIPS32,
		Entry:    mipsBase,
		Sections: []obj.Section{{Name: ".text", Addr: mipsBase, Kind: obj.SecText, Data: text}},
		Stripped: true,
	}
	parsed, err := obj.Read(file.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return parsed
}

// The spill: a walk marks a branch's delay slot even when the slot is the
// next extent's entry, and a marked entry stops that extent's walk at
// once, so the rest of its procedure is claimed as a gap of its own. An
// inserted entry can make a walk spill where it did not (the extent after
// it loses its marks) or stop spilling (the extent after it regains them);
// pass 3 must follow both to the reference's entries.
func TestCoverageDelaySlotSpill(t *testing.T) {
	for _, tc := range []struct {
		name   string
		words  []uint32
		want   []uint32 // entries, as offsets from mipsBase
		rounds int
	}{{
		// The entry's return has the callee's first instruction as its
		// delay slot.
		name:   "into a call target",
		words:  []uint32{mipsJal(mipsBase + 0x0c), mipsNop, mipsRet, mipsLoad, mipsRet, mipsNop},
		want:   []uint32{0x00, 0x0c, 0x10},
		rounds: 2,
	}, {
		// The never-called procedure at 0x10 ends spilling into the callee
		// at 0x18 once it is an extent of its own.
		name:   "appears after a split",
		words:  []uint32{mipsJal(mipsBase + 0x18), mipsNop, mipsRet, mipsNop, mipsLoad, mipsRet, mipsLoad, mipsRet, mipsNop},
		want:   []uint32{0x00, 0x10, 0x18, 0x1c},
		rounds: 3,
	}, {
		// The entry's jump reaches the return at 0x1c, which spills into
		// the callee at 0x20, until the gap at 0x10 cuts the jump off; the
		// gap at 0x18 then brings the spill back.
		name:   "vanishes after a split",
		words:  []uint32{mipsJal(mipsBase + 0x20), mipsNop, mipsJ(mipsBase + 0x1c), mipsNop, mipsRet, mipsNop, mipsNop, mipsRet, mipsLoad, mipsRet, mipsNop},
		want:   []uint32{0x00, 0x10, 0x18, 0x20, 0x24},
		rounds: 4,
	}} {
		f := mipsText(t, tc.words...)
		rounds := checkCoverage(t, tc.name, f)
		got, _, _ := cfg.Coverage(f, false)
		for i := range got {
			got[i] -= mipsBase
		}
		if rounds != tc.rounds || !slices.Equal(got, tc.want) {
			t.Errorf("%s: %d rounds claim %#x, want %d rounds claiming %#x", tc.name, rounds, got, tc.rounds, tc.want)
		}
	}
}

// Past 1,024 rounds pass 3 stops claiming, wherever the walks stand.
func TestCoverageRoundCap(t *testing.T) {
	file := &obj.File{
		Arch:     uir.ArchX86,
		Entry:    0x400000,
		Sections: []obj.Section{{Name: ".text", Addr: 0x400000, Kind: obj.SecText, Data: bytes.Repeat([]byte{0xC3}, 1100)}}, // ret
		Stripped: true,
	}
	if rounds := checkCoverage(t, "1,100 returns", file); rounds != 1024 {
		t.Errorf("%d rounds, want the cap of 1024", rounds)
	}
}

// TestCoverageLinearTime recovers a stripped text of 1,000 procedures
// nothing calls, each 64 instructions: every procedure but the first is
// a gap, and the reference walks the whole text for each. Recovery —
// sweep, coverage and lifting — must take under a tenth of the
// reference's coverage alone, measured here on the same input.
func TestCoverageLinearTime(t *testing.T) {
	if raceEnabled {
		t.Skip("timing is meaningless under the race detector")
	}
	const procs, body = 1000, 62
	var words []uint32
	for i := 0; i < procs; i++ {
		for j := 0; j < body; j++ {
			words = append(words, mipsLoad)
		}
		words = append(words, mipsRet, mipsNop)
	}
	f := mipsText(t, words...)
	checkCoverage(t, "1,000 gaps", f)
	start := time.Now()
	if _, _, err := cfg.Coverage(f, true); err != nil {
		t.Fatal(err)
	}
	reference := time.Since(start)
	best := time.Duration(1 << 62)
	for i := 0; i < 3; i++ {
		start := time.Now()
		rec, err := cfg.Recover(f)
		if err != nil {
			t.Fatal(err)
		}
		best = min(best, time.Since(start))
		if len(rec.Procs) != procs {
			t.Fatalf("recovered %d procedures, want %d", len(rec.Procs), procs)
		}
	}
	t.Logf("recovery %v, reference coverage %v", best, reference)
	if best*10 > reference {
		t.Errorf("recovery took %v, want under a tenth of the reference coverage's %v", best, reference)
	}
}
