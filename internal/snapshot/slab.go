package snapshot

import (
	"encoding/binary"
	"unsafe"
)

// The corpus shard container stores its bulk payloads as fixed-width
// little-endian slabs so that on little-endian hosts a section of the
// mapped file IS the in-memory slice: no decode pass, no allocation,
// just a pointer cast. Big-endian hosts (and misaligned inputs, which
// cannot happen for sections we wrote ourselves but can for hostile
// ones) fall back to an explicit copying decode.

// hostLittleEndian reports whether the running machine stores integers
// little-endian, i.e. whether zero-copy slab casts are byte-correct.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// forceSlabCopy is a test hook: when set, every slab cast takes the
// portable copying path even on little-endian hosts, so tests can prove
// the two paths decode identically.
var forceSlabCopy bool

// castU32 views b as a little-endian []uint32, zero-copy when the host
// byte order and alignment allow it.
func castU32(b []byte) []uint32 {
	n := len(b) / 4
	if n == 0 {
		return nil
	}
	if hostLittleEndian && !forceSlabCopy && uintptr(unsafe.Pointer(&b[0]))%unsafe.Alignof(uint32(0)) == 0 {
		return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[i*4:])
	}
	return out
}

// castU64 views b as a little-endian []uint64, zero-copy when possible.
func castU64(b []byte) []uint64 {
	n := len(b) / 8
	if n == 0 {
		return nil
	}
	if hostLittleEndian && !forceSlabCopy && uintptr(unsafe.Pointer(&b[0]))%unsafe.Alignof(uint64(0)) == 0 {
		return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[i*8:])
	}
	return out
}
