package prng

import (
	"testing"
	"testing/quick"
)

// TestSpookyShortLongBoundary checks that Hash128 dispatches to the short
// hash below 192 bytes and to the long hash at and above it, and that both
// paths are deterministic.
func TestSpookyDeterminism(t *testing.T) {
	for _, n := range []int{0, 1, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 100, 191, 192, 193, 500, 1000} {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i * 131)
		}
		a1, a2 := Hash128(data, 1, 2)
		b1, b2 := Hash128(data, 1, 2)
		if a1 != b1 || a2 != b2 {
			t.Fatalf("len %d: hash not deterministic", n)
		}
		c1, c2 := Hash128(data, 3, 4)
		if a1 == c1 && a2 == c2 {
			t.Fatalf("len %d: seed change did not change hash", n)
		}
	}
}

// TestSpookyAvalanche flips single input bits and requires roughly half of
// the output bits to change on average (within a generous tolerance).
func TestSpookyAvalanche(t *testing.T) {
	data := make([]byte, 48)
	for i := range data {
		data[i] = byte(i)
	}
	base1, base2 := Hash128(data, 0, 0)
	totalFlips := 0
	trials := 0
	for byteIdx := 0; byteIdx < len(data); byteIdx++ {
		for bit := 0; bit < 8; bit++ {
			data[byteIdx] ^= 1 << uint(bit)
			h1, h2 := Hash128(data, 0, 0)
			data[byteIdx] ^= 1 << uint(bit)
			diff := popcount(h1^base1) + popcount(h2^base2)
			totalFlips += diff
			trials++
		}
	}
	avg := float64(totalFlips) / float64(trials)
	if avg < 56 || avg > 72 { // expect ~64 of 128 bits
		t.Errorf("avalanche average %v bits of 128, want ~64", avg)
	}
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// TestSpookyLengthExtension checks that messages that are prefixes of each
// other hash differently (the length is folded into the state).
func TestSpookyLengthSensitivity(t *testing.T) {
	data := make([]byte, 256)
	seen := make(map[[2]uint64]int)
	for n := 0; n <= 256; n++ {
		h1, h2 := Hash128(data[:n], 0, 0)
		key := [2]uint64{h1, h2}
		if prev, ok := seen[key]; ok {
			t.Fatalf("lengths %d and %d collide", prev, n)
		}
		seen[key] = n
	}
}

func TestHashWords64Distinct(t *testing.T) {
	seen := make(map[uint64][]uint64)
	for a := uint64(0); a < 50; a++ {
		for b := uint64(0); b < 50; b++ {
			h := HashWords64(7, a, b)
			if prev, ok := seen[h]; ok {
				t.Fatalf("collision: (%d,%d) and %v", a, b, prev)
			}
			seen[h] = []uint64{a, b}
		}
	}
}

// TestHashWordsQuick property: hashing is a pure function of its inputs.
func TestHashWordsQuick(t *testing.T) {
	f := func(seed, a, b uint64) bool {
		return HashWords64(seed, a, b) == HashWords64(seed, a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(seed, a, b uint64) bool {
		// Argument order matters.
		if a == b {
			return true
		}
		return HashWords64(seed, a, b) != HashWords64(seed, b, a)
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestUintNBounds(t *testing.T) {
	r := NewFromRaw(5)
	for _, n := range []uint64{1, 2, 3, 7, 100, 1 << 40} {
		for i := 0; i < 2000; i++ {
			v := r.UintN(n)
			if v >= n {
				t.Fatalf("UintN(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUintNUniform(t *testing.T) {
	r := NewFromRaw(11)
	const n = 10
	const trials = 100000
	var counts [n]int
	for i := 0; i < trials; i++ {
		counts[r.UintN(n)]++
	}
	for i, c := range counts {
		frac := float64(c) / trials
		if frac < 0.09 || frac > 0.11 {
			t.Errorf("bucket %d: fraction %v, want ~0.1", i, frac)
		}
	}
}

func TestNewConsistency(t *testing.T) {
	// The paper's core mechanism: same structural ids => same stream.
	a := New(42, 1, 2, 3)
	b := New(42, 1, 2, 3)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("identical structural ids produced different streams")
		}
	}
	c := New(42, 1, 2, 4)
	d := New(43, 1, 2, 3)
	if c.Uint64() == d.Uint64() {
		t.Error("different ids should (almost surely) differ")
	}
}

func BenchmarkSpookyHashWords(b *testing.B) {
	for i := 0; i < b.N; i++ {
		HashWords64(42, uint64(i), 17)
	}
}
