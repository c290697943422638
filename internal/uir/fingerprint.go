package uir

import "math/bits"

// SectionRanges are the executable's code and data address ranges, the
// same ranges strand canonicalization uses for offset elimination. A
// zero range (Lo == Hi) matches nothing.
type SectionRanges struct {
	TextLo, TextHi uint32
	DataLo, DataHi uint32
}

// Fingerprint is a 128-bit structural hash of a lifted basic block,
// computed before strand extraction. It is the key of the analyzer's
// block canonicalization cache: two blocks with equal fingerprints
// (under the same extraction context, which the caller folds into the
// seed) have identical statement streams up to hash collision, and
// therefore — extraction being a pure function of the statement stream
// and its options — identical canonical strands.
//
// The hash is normalized for addresses:
//
//   - The block's own Addr and Size are not hashed, so identical code
//     placed at different offsets collides.
//   - Constants inside the text or data ranges contribute their offset
//     from the section base rather than their absolute value, so
//     identical code whose section-relative layout matches collides
//     across load bases.
//   - A constant operand's ConstKind annotation is not hashed:
//     extraction classifies constants by the section ranges, never by
//     the lifter's annotation.
//
// The hash is non-cryptographic (two independently mixed 64-bit lanes);
// at 128 bits, accidental collisions are negligible for any realistic
// corpus, and adversarial inputs are out of scope for an in-process
// cache.
type Fingerprint [2]uint64

// fpHash accumulates the two lanes. Lane a is FNV-1a over the 64-bit
// word stream; lane b is a splitmix-style multiply-rotate mix. The
// lanes use unrelated mixing so a collision in one is independent of
// the other.
type fpHash struct {
	a, b uint64
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
	mixGamma    = 0x9E3779B97F4A7C15
	mixMult     = 0xBF58476D1CE4E5B9
)

func (h *fpHash) word(w uint64) {
	h.a = (h.a ^ w) * fnvPrime64
	h.b = bits.RotateLeft64(h.b^(w*mixGamma), 27) * mixMult
}

// pair packs a small tag and a 32-bit payload into one word so distinct
// field kinds never alias.
func (h *fpHash) pair(tag uint64, v uint32) {
	h.word(tag<<32 | uint64(v))
}

// Operand tags. Constants are tagged by their classification against
// the section ranges, with the section-relative offset as payload.
const (
	fpTemp uint64 = iota + 1
	fpConstPlain
	fpConstText
	fpConstData
)

func (h *fpHash) operand(o Operand, r SectionRanges) {
	if !o.IsConst {
		h.pair(fpTemp, uint32(o.Temp))
		return
	}
	switch {
	case r.TextHi > r.TextLo && o.Val >= r.TextLo && o.Val < r.TextHi:
		h.pair(fpConstText, o.Val-r.TextLo)
	case r.DataHi > r.DataLo && o.Val >= r.DataLo && o.Val < r.DataHi:
		h.pair(fpConstData, o.Val-r.DataLo)
	default:
		h.pair(fpConstPlain, o.Val)
	}
}

// fpStmt marks a statement's header word, which operand words (a small
// tag in bits 32 and up) never set.
const fpStmt uint64 = 1 << 63

// BlockFingerprint hashes the block's statement stream under the given
// section ranges. The seed folds the extraction context (ABI, options,
// absolute section map) into the key; blocks fingerprinted under
// different seeds never collide. See Fingerprint for the normalization
// and soundness contract.
func BlockFingerprint(b *Block, r SectionRanges, seed uint64) Fingerprint {
	h := fpHash{a: fnvOffset64 ^ seed, b: seed*mixMult + mixGamma}
	for i := range b.Stmts {
		s := &b.Stmts[i]
		// The header carries every scalar field; of Dst and the operands,
		// only those the kind uses are hashed.
		h.word(fpStmt | uint64(s.Kind) | uint64(s.Op)<<8 | uint64(s.Size)<<16 | uint64(s.Exit)<<24 | uint64(s.Reg)<<32)
		u := s.use()
		if u&defDst != 0 {
			h.pair(fpTemp, uint32(s.Dst))
		}
		if u&useC != 0 {
			h.operand(s.C, r)
		}
		if u&useA != 0 {
			h.operand(s.A, r)
		}
		if u&useB != 0 {
			h.operand(s.B, r)
		}
	}
	return Fingerprint{h.a, h.b}
}
