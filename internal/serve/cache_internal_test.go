package serve

import (
	"encoding/binary"
	"testing"

	"firmup"
	"firmup/internal/telemetry"
)

func testKey(n int) queryKey {
	var k queryKey
	binary.LittleEndian.PutUint64(k[:], uint64(n)+1)
	return k
}

func testCounters(r *telemetry.Registry) *cacheCounters {
	return &cacheCounters{
		hits:     r.Counter("hits"),
		misses:   r.Counter("misses"),
		admitted: r.Counter("admitted"),
		evicted:  r.Counter("evicted"),
	}
}

// TestServeQueryCacheScanResistance pins the admission policy and the
// bound on the cache itself: a recurring set that has been admitted
// survives ten times the byte bound of one-off uploads with none of it
// evicted, the one-offs admit nothing, and the charged bytes never
// exceed the bound.
func TestServeQueryCacheScanResistance(t *testing.T) {
	const (
		uploadBytes = 17 << 10 // a registry query
		recurring   = 36
	)
	var c queryCache
	m := testCounters(telemetry.New())
	exes := make([]*firmup.Executable, recurring)
	checkBound := func() {
		t.Helper()
		if got := c.size(); got > queryCacheBytes {
			t.Fatalf("cache charged %d bytes, bound is %d", got, queryCacheBytes)
		}
	}
	// First sight leaves a ghost, second sight admits.
	for round := 0; round < 2; round++ {
		for i := range exes {
			exe, seen := c.lookup(testKey(i), m)
			if exe != nil || seen != (round == 1) {
				t.Fatalf("round %d key %d: lookup = (%v, %v)", round, i, exe, seen)
			}
			if seen {
				exes[i] = &firmup.Executable{}
				c.attach(testKey(i), exes[i], uploadBytes, m)
			}
			checkBound()
		}
	}
	if got := m.admitted.Value(); got != recurring {
		t.Fatalf("admitted = %d, want %d", got, recurring)
	}

	// Ten times the bound of one-off uploads, the recurring set asked
	// for once per thousand of them.
	oneOffs := 10 * queryCacheBytes / uploadBytes
	for n := 0; n < oneOffs; n++ {
		if exe, seen := c.lookup(testKey(recurring+n), m); exe != nil || seen {
			t.Fatalf("one-off %d: lookup = (%v, %v), want a first sight", n, exe, seen)
		}
		checkBound()
		if n%1000 == 999 {
			for i := range exes {
				if exe, _ := c.lookup(testKey(i), m); exe != exes[i] {
					t.Fatalf("recurring key %d lost its value after %d one-offs", i, n+1)
				}
			}
		}
	}
	if got := m.admitted.Value(); got != recurring {
		t.Errorf("admitted = %d after the one-off stream, want still %d", got, recurring)
	}
	if got := m.evicted.Value(); got != 0 {
		t.Errorf("evicted = %d values, want 0", got)
	}

	// The bound itself: admitting more than fits evicts the least
	// recently used values, and an upload larger than the bound is never
	// admitted.
	fill := queryCacheBytes/uploadBytes + 8
	for round := 0; round < 2; round++ {
		for n := 0; n < fill; n++ {
			k := testKey(1<<20 + n)
			if _, seen := c.lookup(k, m); seen {
				c.attach(k, &firmup.Executable{}, uploadBytes, m)
			}
			checkBound()
		}
	}
	if m.evicted.Value() == 0 {
		t.Error("filling the cache past its bound evicted no value")
	}
	huge := testKey(1 << 30)
	c.lookup(huge, m)
	c.lookup(huge, m)
	before := m.admitted.Value()
	c.attach(huge, &firmup.Executable{}, queryCacheBytes, m)
	if exe, _ := c.lookup(huge, m); exe != nil || m.admitted.Value() != before {
		t.Error("an upload as large as the bound was admitted")
	}
	checkBound()
}
