package flat

import (
	"math/rand"
	"testing"
)

// TestMatchesBuiltinMap: random puts, overwrites, gets and clears agree
// with a built-in map.
func TestMatchesBuiltinMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var m Map[uint64]
	ref := map[[2]uint64]uint64{}
	for op := 0; op < 200000; op++ {
		k := [2]uint64{uint64(rng.Intn(3)), uint64(rng.Intn(4000))}
		switch r := rng.Intn(100); {
		case r < 50:
			m.Put(k[0], k[1], uint64(op))
			ref[k] = uint64(op)
		case r < 99:
			got, ok := m.Get(k[0], k[1])
			want, wantOK := ref[k]
			if got != want || ok != wantOK {
				t.Fatalf("op %d: Get%v = %d, %v; want %d, %v", op, k, got, ok, want, wantOK)
			}
		default:
			m.Clear()
			clear(ref)
		}
		if m.Len() != len(ref) {
			t.Fatalf("op %d: Len %d, want %d", op, m.Len(), len(ref))
		}
	}
}

// TestRefillAllocFree: after Clear, filling the map with as many entries
// as before allocates nothing, even with a different key set.
func TestRefillAllocFree(t *testing.T) {
	var m Map[uint64]
	base := uint64(0)
	fill := func() {
		m.Clear()
		for i := uint64(0); i < 5000; i++ {
			m.Put(base, i*7919, i)
		}
		base++
	}
	fill()
	if got := testing.AllocsPerRun(20, fill); got != 0 {
		t.Errorf("%.0f allocs per refill, want 0", got)
	}
}
