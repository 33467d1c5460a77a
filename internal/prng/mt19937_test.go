// The Mersenne Twister lives with the benchmark that uses it
// (internal/benchreg); these checks of the port against the reference
// implementation stay beside the rest of the generator-family tests.
package prng_test

import (
	"math"
	"testing"

	"repro/internal/benchreg"
)

// TestMT19937ReferenceVector checks the first outputs of init_by_array64
// with the key {0x12345, 0x23456, 0x34567, 0x45678} against the published
// output of Matsumoto & Nishimura's mt19937-64.c (mt19937-64.out.txt).
func TestMT19937ReferenceVector(t *testing.T) {
	m := benchreg.NewMT19937Array([]uint64{0x12345, 0x23456, 0x34567, 0x45678})
	want := []uint64{
		7266447313870364031,
		4946485549665804864,
		16945909448695747420,
		16394063075524226720,
		4873882236456199058,
		14877448043947020171,
		6740343660852211943,
		13857871200353263164,
		5249110015610582907,
	}
	for i, w := range want {
		got := m.Uint64()
		if got != w {
			t.Fatalf("output %d: got %d, want %d", i, got, w)
		}
	}
}

func TestMT19937SeedDeterminism(t *testing.T) {
	a := benchreg.NewMT19937(42)
	b := benchreg.NewMT19937(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at output %d", i)
		}
	}
	c := benchreg.NewMT19937(43)
	same := 0
	a.Seed(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d identical outputs of 1000", same)
	}
}

func TestMT19937Float64Range(t *testing.T) {
	m := benchreg.NewMT19937(7)
	for i := 0; i < 100000; i++ {
		f := m.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
	for i := 0; i < 100000; i++ {
		f := m.Float64Open()
		if f <= 0 || f >= 1 {
			t.Fatalf("Float64Open out of (0,1): %v", f)
		}
	}
}

func TestMT19937Float64Moments(t *testing.T) {
	m := benchreg.NewMT19937(12345)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		f := m.Float64()
		sum += f
		sumSq += f * f
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("mean = %v, want ~0.5", mean)
	}
	if math.Abs(variance-1.0/12.0) > 0.005 {
		t.Errorf("variance = %v, want ~%v", variance, 1.0/12.0)
	}
}

func TestMT19937BitBalance(t *testing.T) {
	m := benchreg.NewMT19937(999)
	const n = 50000
	var ones [64]int
	for i := 0; i < n; i++ {
		v := m.Uint64()
		for b := 0; b < 64; b++ {
			if v&(1<<uint(b)) != 0 {
				ones[b]++
			}
		}
	}
	for b := 0; b < 64; b++ {
		frac := float64(ones[b]) / n
		if frac < 0.48 || frac > 0.52 {
			t.Errorf("bit %d set fraction %v, want ~0.5", b, frac)
		}
	}
}

func BenchmarkMT19937Uint64(b *testing.B) {
	m := benchreg.NewMT19937(42)
	for i := 0; i < b.N; i++ {
		m.Uint64()
	}
}

func BenchmarkNewMTHashedStream(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchreg.NewMTHashed(42, uint64(i), 7).Uint64()
	}
}
