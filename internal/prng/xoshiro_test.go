package prng

import (
	"math"
	"testing"
)

func TestXoshiroDeterminism(t *testing.T) {
	a := newXoshiro(1, 2)
	b := newXoshiro(1, 2)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := newXoshiro(1, 3)
	d := newXoshiro(1, 2)
	diff := 0
	for i := 0; i < 1000; i++ {
		if c.Uint64() != d.Uint64() {
			diff++
		}
	}
	if diff < 990 {
		t.Fatalf("different seeds mostly identical (%d of 1000 differ)", diff)
	}
}

func TestXoshiroMoments(t *testing.T) {
	x := newXoshiro(42, 43)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		f := x.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("out of range: %v", f)
		}
		sum += f
		sumSq += f * f
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("mean %v", mean)
	}
	if math.Abs(variance-1.0/12) > 0.005 {
		t.Errorf("variance %v", variance)
	}
}

func TestXoshiroBitBalance(t *testing.T) {
	x := newXoshiro(7, 9)
	const n = 50000
	var ones [64]int
	for i := 0; i < n; i++ {
		v := x.Uint64()
		for b := 0; b < 64; b++ {
			if v&(1<<uint(b)) != 0 {
				ones[b]++
			}
		}
	}
	for b := 0; b < 64; b++ {
		frac := float64(ones[b]) / n
		if frac < 0.48 || frac > 0.52 {
			t.Errorf("bit %d fraction %v", b, frac)
		}
	}
}

func TestXoshiroZeroGuard(t *testing.T) {
	x := &xoshiro256{} // all-zero state is the fixed point we guard against
	if y := newXoshiro(0, 0); *y == *x {
		t.Fatal("zero hash produced zero state")
	}
}

func TestSplitMix64Known(t *testing.T) {
	// First outputs of splitmix64 from seed 0 (published reference).
	seed := uint64(0)
	want := []uint64{
		0xe220a8397b1dcdaf,
		0x6e789e6aa1b965f4,
		0x06c45d188009454f,
	}
	for i, w := range want {
		if got := splitMix64(&seed); got != w {
			t.Fatalf("output %d: got %#x, want %#x", i, got, w)
		}
	}
}

func BenchmarkNewDerivedStream(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := New(42, uint64(i), 7)
		_ = r.Uint64()
	}
}
