package strand

import (
	"math"
	"math/rand"
	"testing"
)

// arenaNodes lists the nodes the builder handed out for the current
// block, in allocation order.
func arenaNodes(bd *builder) []*node {
	out := make([]*node, bd.count)
	for i := range out {
		out[i] = &bd.chunks[i/arenaChunk][i%arenaChunk]
	}
	return out
}

// checkAgainstReference replays the current block's nodes through a
// map[nodeKey]*node — the interner the cons table replaced — and checks
// the table agrees with it: two keys share a node iff they are equal. A
// constant must come back the same through konst, so through the
// constant cache too.
func checkAgainstReference(t *testing.T, bd *builder) {
	t.Helper()
	ref := map[nodeKey]*node{}
	nodes := arenaNodes(bd)
	for i, n := range nodes {
		if int(n.id) != i {
			t.Fatalf("node %d carries allocation index %d", i, n.id)
		}
		if prev, dup := ref[n.nodeKey]; dup {
			t.Fatalf("nodes %d and %d were interned apart but have equal keys %+v", prev.id, n.id, n.nodeKey)
		}
		ref[n.nodeKey] = n
	}
	for k, want := range ref {
		if got := bd.intern(k); got != want {
			t.Fatalf("intern(%+v) = node %d, reference says node %d", k, got.id, want.id)
		}
		if k.kind == nConst {
			if got := bd.konst(k.val); got != want {
				t.Fatalf("konst(%#x) = node %d, reference says node %d", k.val, got.id, want.id)
			}
		}
	}
	if bd.count != len(nodes) {
		t.Fatalf("re-interning known keys allocated %d nodes", bd.count-len(nodes))
	}
}

// TestConsTableMatchesReference runs the soundness suite's random blocks
// through one scratch — so the table carries rows of every earlier block
// under older epochs — and checks each block's interning against the
// reference map.
func TestConsTableMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	sc := newExtractScratch()
	sc.bind(&Options{})
	for trial := 0; trial < 300; trial++ {
		sc.analyze(randomBlock(rng, 4+rng.Intn(24)))
		checkAgainstReference(t, sc.bd)
	}
}

// TestConsTableGrowth interns more nodes in one block than the initial
// table holds: the table must grow mid-block while every node handed out
// before the growth stays valid and is still the one its key finds.
func TestConsTableGrowth(t *testing.T) {
	bd := newBuilder()
	bd.reset()
	const n = 4 * consInitial
	nodes := make([]*node, n)
	for i := range nodes {
		nodes[i] = bd.konst(uint32(i))
		// A parent over the node just made, so keys with children are
		// rehashed too.
		bd.load(nodes[i], 4)
	}
	if len(bd.cons) <= consInitial {
		t.Fatalf("table did not grow: %d slots for %d nodes", len(bd.cons), bd.count)
	}
	if 2*bd.count > len(bd.cons) {
		t.Errorf("table over half full: %d nodes in %d slots", bd.count, len(bd.cons))
	}
	for i, p := range nodes {
		if p.kind != nConst || p.val != uint32(i) {
			t.Fatalf("node %d was overwritten: %+v", i, p.nodeKey)
		}
		if got := bd.konst(uint32(i)); got != p {
			t.Fatalf("konst(%d) no longer finds its node after growth", i)
		}
	}
	checkAgainstReference(t, bd)

	// The grown table serves the next block like a fresh one.
	bd.reset()
	if bd.konst(7) == nil || bd.count != 1 {
		t.Fatalf("after reset: %d nodes interned, want 1", bd.count)
	}
	checkAgainstReference(t, bd)
}

// TestConsTableEpochWrap parks a row under epoch 1, moves the epoch to
// just below wrap-around as four billion blocks would, and steps across:
// after the wrap the epoch counter reads 1 again, and the parked row must
// not come back to life — neither in the cons table nor in the constant
// cache in front of it.
func TestConsTableEpochWrap(t *testing.T) {
	bd := newBuilder()
	if bd.epoch != 1 {
		t.Fatalf("a new builder starts at epoch %d, want 1", bd.epoch)
	}
	bd.konst(7) // the parked rows, in the table and in the cache
	bd.epoch = math.MaxUint32 - 1
	for _, want := range []uint32{math.MaxUint32, 1, 2} {
		bd.reset()
		if bd.epoch != want {
			t.Fatalf("epoch = %d, want %d", bd.epoch, want)
		}
		if want == math.MaxUint32 {
			// An empty block: the parked rows and the rewound node they
			// point at all survive untouched into the wrap.
			continue
		}
		for i, s := range bd.konsts {
			if s.epoch == bd.epoch {
				t.Fatalf("epoch %d: constant cache row %d (value %#x) is live before the block made a constant", want, i, s.val)
			}
		}
		// A stale hit would return the rewound node without allocating.
		n := bd.konst(7)
		if bd.count != 1 || n != &bd.chunks[0][0] {
			t.Fatalf("epoch %d: konst(7) did not allocate the block's first node", want)
		}
		bd.konst(9)
		bd.bin(0, bd.input(1), bd.input(2))
		checkAgainstReference(t, bd)
	}
}
