package pe

import (
	"sync/atomic"
	"testing"
)

func TestForEachAllPEsRunOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		const P = 37
		var counts [P]int64
		ForEach(P, workers, func(pe int) struct{} {
			atomic.AddInt64(&counts[pe], 1)
			return struct{}{}
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: PE %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachResultsIndexed(t *testing.T) {
	out := ForEach(20, 4, func(pe int) int { return pe * pe })
	for i, v := range out {
		if v != i*i {
			t.Fatalf("result[%d] = %d", i, v)
		}
	}
}

func TestForEachZeroPEs(t *testing.T) {
	out := ForEach(0, 4, func(pe int) int { return 1 })
	if len(out) != 0 {
		t.Fatal("expected empty result")
	}
}

func TestForEachWorkerIndependence(t *testing.T) {
	// Deterministic pure function: result must not depend on worker count.
	f := func(pe int) uint64 {
		x := uint64(pe) * 0x9e3779b97f4a7c15
		x ^= x >> 31
		return x
	}
	base := ForEach(64, 1, f)
	for _, workers := range []int{2, 3, 8, 64} {
		got := ForEach(64, workers, f)
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("workers=%d changed result at PE %d", workers, i)
			}
		}
	}
}
