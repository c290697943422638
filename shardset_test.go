package firmup

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"os"
	"strings"
	"testing"

	"firmup/internal/corpusindex"
	"firmup/internal/snapshot"
)

// Shard-set damage that no one shard can tell: executable ranges that do
// not tile the corpus, an occurrence naming an executable past the corpus
// total, an executable no image names, a vocabulary checksum that
// disagrees with shard 0's. Each is made behind valid section checksums,
// in the bytes of a written set, so it reaches the set's opener.

const (
	// FWCORP section tags (internal/snapshot/corpusv2.go).
	tagMeta = 16
	tagIDs  = 22
	tagOccs = 25
	// Positions of meta varints: shard index, shard count, image base,
	// total images, executable base, total executables, nine slab totals
	// (the first the vocabulary size), then the vocabulary checksum.
	metaExeBase   = 4
	metaTotalExes = 5
	metaVocab     = 6
	metaVocabCRC  = 15
)

// patchShardSection rewrites one section of a shard in place and
// re-stamps its checksum.
func patchShardSection(t testing.TB, blob []byte, tag uint32, patch func(payload []byte)) {
	t.Helper()
	le := binary.LittleEndian
	for i := range int(le.Uint32(blob[12:])) {
		row := blob[16+24*i:]
		if le.Uint32(row) == tag {
			payload := blob[le.Uint64(row[4:]):][:le.Uint64(row[12:])]
			patch(payload)
			le.PutUint32(row[20:], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
			return
		}
	}
	t.Fatalf("shard has no section %d", tag)
}

// metaVarint returns the offset and value of meta varint k.
func metaVarint(meta []byte, k int) (off int, v uint64) {
	for range k {
		_, n := binary.Uvarint(meta[off:])
		off += n
	}
	v, _ = binary.Uvarint(meta[off:])
	return off, v
}

// setMetaVarint rewrites meta varint k as f of its value, in as many
// bytes as it had.
func setMetaVarint(t testing.TB, blob []byte, k int, f func(uint64) uint64) {
	t.Helper()
	patchShardSection(t, blob, tagMeta, func(meta []byte) {
		off, v := metaVarint(meta, k)
		old, nv := binary.AppendUvarint(nil, v), binary.AppendUvarint(nil, f(v))
		if len(nv) != len(old) {
			t.Fatalf("meta varint %d: %d does not fit the %d bytes of %d", k, f(v), len(old), v)
		}
		copy(meta[off:], nv)
	})
}

// retarget rewrites the executable IDs of a shard's occurrences.
func retarget(t testing.TB, blob []byte, f func(i int, ref uint32) uint32) {
	t.Helper()
	patchShardSection(t, blob, tagOccs, func(tab []byte) {
		for i := 0; i+12 <= len(tab); i += 12 {
			ref := binary.LittleEndian.Uint32(tab[i+8:])
			binary.LittleEndian.PutUint32(tab[i+8:], f(i/12, ref))
		}
	})
}

// totalExes reads the corpus executable total a shard declares.
func totalExes(t testing.TB, blob []byte) uint32 {
	var v uint64
	patchShardSection(t, blob, tagMeta, func(meta []byte) { _, v = metaVarint(meta, metaTotalExes) })
	return uint32(v)
}

// idOutsideVocab rewrites the last strand ID a shard stores — the
// largest of its last distinct strand set that holds any — as the
// vocabulary size: still strictly increasing, but outside the vocabulary.
// No opener reads corpus-ids, and a search reads it whole only to derive
// the shard's index, on its first search; otherwise only materializing an
// executable holding that set would tell.
func idOutsideVocab(t testing.TB, blob []byte) {
	t.Helper()
	var vocab uint64
	patchShardSection(t, blob, tagMeta, func(meta []byte) { _, vocab = metaVarint(meta, metaVocab) })
	patchShardSection(t, blob, tagIDs, func(ids []byte) {
		if len(ids) == 0 {
			t.Fatal("shard holds no strand IDs")
		}
		binary.LittleEndian.PutUint32(ids[len(ids)-4:], uint32(vocab))
	})
}

// shardSetFaults damages the bytes of a shard set of at least two
// shards, each of which stores executables and images; each fault
// returns the shard it damaged, which the opener's error must name.
var shardSetFaults = map[string]func(t testing.TB, set [][]byte) int{
	"exe-range-gap": func(t testing.TB, set [][]byte) int {
		setMetaVarint(t, set[0], metaExeBase, func(v uint64) uint64 { return v + 1 })
		return 0
	},
	"exe-range-overlap": func(t testing.TB, set [][]byte) int {
		last := len(set) - 1
		setMetaVarint(t, set[last], metaExeBase, func(v uint64) uint64 { return v - 1 })
		return last
	},
	"exe-ref-beyond-total": func(t testing.TB, set [][]byte) int {
		total := totalExes(t, set[1])
		retarget(t, set[1], func(i int, ref uint32) uint32 {
			if i == 0 {
				return total
			}
			return ref
		})
		return 1
	},
	"unnamed-executable": func(t testing.TB, set [][]byte) int {
		// The last executable, which the last shard stores, loses every
		// occurrence to the first.
		last := totalExes(t, set[0]) - 1
		for _, blob := range set {
			retarget(t, blob, func(_ int, ref uint32) uint32 {
				if ref == last {
					return 0
				}
				return ref
			})
		}
		return len(set) - 1
	},
	"vocab-checksum": func(t testing.TB, set [][]byte) int {
		setMetaVarint(t, set[1], metaVocabCRC, func(v uint64) uint64 { return v ^ 1 })
		return 1
	},
}

// FuzzShardSet mutates one shard of a two-shard set, opens the set and
// runs one corpus-wide and one per-image search over it. The contract:
// an error, never a panic — not even one a search pass recovers into its
// error. Damage a single shard's opener rejects is FuzzShardOpen's
// ground. The set is two synthetic images, the second shipping two of the
// first's executables, so shard 1's image names executables shard 0
// stores; it is a few kilobytes, small enough for the fuzzer to mutate
// quickly. The seeds are its two shards whole, under every shardSetFaults
// fault, and shard 0 with a strand ID outside the vocabulary.
func FuzzShardSet(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	first, second := genCorpus(rng), genCorpus(rng)
	second.exes = append(second.exes, first.exes[:2]...)
	a := NewAnalyzer(nil)
	sealed, err := a.Seal(buildSynthImage(a, first), buildSynthImage(a, second))
	if err != nil {
		f.Fatal(err)
	}
	paths, err := sealed.WriteShards(f.TempDir(), 2)
	if err != nil {
		f.Fatal(err)
	}
	set := make([][]byte, len(paths))
	for i, p := range paths {
		if set[i], err = os.ReadFile(p); err != nil {
			f.Fatal(err)
		}
	}

	for i := range set {
		f.Add(uint8(i), set[i])
	}
	for _, fault := range shardSetFaults {
		damaged := [][]byte{append([]byte(nil), set[0]...), append([]byte(nil), set[1]...)}
		i := fault(f, damaged)
		f.Add(uint8(i), damaged[i])
	}
	outside := append([]byte(nil), set[0]...)
	idOutsideVocab(f, outside)
	f.Add(uint8(0), outside)
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		blobs := [][]byte{set[0], set[1]}
		blobs[which%2] = data
		shards := make([]*snapshot.CorpusShard, len(blobs))
		for i, b := range blobs {
			s, err := snapshot.OpenCorpusShardBytes(b)
			if err != nil {
				return
			}
			shards[i] = s
		}
		sc, err := sealedFromShards(shards, paths)
		if err != nil {
			return
		}
		q := buildSynthQuery(corpusindex.NewQueryInterner(sc.frozen), first)
		searches := []func() error{func() error {
			_, err := sc.SearchAll(q, "vuln", nil)
			return err
		}}
		if n := len(sc.Images()); n > 0 {
			searches = append(searches, func() error {
				_, err := sc.SearchImageDetailed(q, "vuln", sc.Images()[n-1], nil)
				return err
			})
		}
		for _, search := range searches {
			if err := search(); err != nil && strings.Contains(err.Error(), "panicked") {
				t.Fatal(err)
			}
		}
	})
}
