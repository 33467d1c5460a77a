package prng

import (
	"encoding/binary"
	"testing"
	"testing/quick"
)

// The byte-oriented SpookyHash V2 below is the oracle for the word hash:
// a port of the reference C implementation, long-message path included,
// that production code no longer runs.

const (
	spookyNumVars   = 12
	spookyBlockSize = spookyNumVars * 8 // 96
	spookyBufSize   = 2 * spookyBlockSize
)

// byteShortHash128 is the SpookyHash V2 short hash over bytes (used by the
// reference implementation for messages under 192 bytes). seed1 and seed2
// are the two 64-bit seed words; the two returned words are the 128-bit
// hash.
func byteShortHash128(data []byte, seed1, seed2 uint64) (uint64, uint64) {
	length := len(data)
	remainder := length % 32
	a := seed1
	b := seed2
	c := uint64(spookyConst)
	d := uint64(spookyConst)

	p := data
	if length > 15 {
		// Handle all complete sets of 32 bytes.
		for len(p) >= 32 {
			c += binary.LittleEndian.Uint64(p[0:])
			d += binary.LittleEndian.Uint64(p[8:])
			a, b, c, d = shortMix(a, b, c, d)
			a += binary.LittleEndian.Uint64(p[16:])
			b += binary.LittleEndian.Uint64(p[24:])
			p = p[32:]
		}
		// Handle the case of 16+ remaining bytes.
		if remainder >= 16 {
			c += binary.LittleEndian.Uint64(p[0:])
			d += binary.LittleEndian.Uint64(p[8:])
			a, b, c, d = shortMix(a, b, c, d)
			p = p[16:]
			remainder -= 16
		}
	}

	// Handle the last 0..15 bytes and their length.
	d += uint64(length) << 56
	switch remainder {
	case 15:
		d += uint64(p[14]) << 48
		fallthrough
	case 14:
		d += uint64(p[13]) << 40
		fallthrough
	case 13:
		d += uint64(p[12]) << 32
		fallthrough
	case 12:
		d += uint64(binary.LittleEndian.Uint32(p[8:]))
		c += binary.LittleEndian.Uint64(p[0:])
	case 11:
		d += uint64(p[10]) << 16
		fallthrough
	case 10:
		d += uint64(p[9]) << 8
		fallthrough
	case 9:
		d += uint64(p[8])
		fallthrough
	case 8:
		c += binary.LittleEndian.Uint64(p[0:])
	case 7:
		c += uint64(p[6]) << 48
		fallthrough
	case 6:
		c += uint64(p[5]) << 40
		fallthrough
	case 5:
		c += uint64(p[4]) << 32
		fallthrough
	case 4:
		c += uint64(binary.LittleEndian.Uint32(p[0:]))
	case 3:
		c += uint64(p[2]) << 16
		fallthrough
	case 2:
		c += uint64(p[1]) << 8
		fallthrough
	case 1:
		c += uint64(p[0])
	case 0:
		c += spookyConst
		d += spookyConst
	}
	a, b, _, _ = shortEnd(a, b, c, d)
	return a, b
}

// byteHash128 computes the 128-bit SpookyHash V2 of data. Messages under
// 192 bytes go through the short hash exactly like the reference
// implementation.
func byteHash128(data []byte, seed1, seed2 uint64) (uint64, uint64) {
	if len(data) < spookyBufSize {
		return byteShortHash128(data, seed1, seed2)
	}

	var h [spookyNumVars]uint64
	h[0], h[3], h[6], h[9] = seed1, seed1, seed1, seed1
	h[1], h[4], h[7], h[10] = seed2, seed2, seed2, seed2
	h[2], h[5], h[8], h[11] = spookyConst, spookyConst, spookyConst, spookyConst

	p := data
	var block [spookyNumVars]uint64
	for len(p) >= spookyBlockSize {
		for i := range block {
			block[i] = binary.LittleEndian.Uint64(p[8*i:])
		}
		mix(&block, &h)
		p = p[spookyBlockSize:]
	}

	// Handle the last partial block of spookyBlockSize bytes.
	remainder := len(p)
	var buf [spookyBlockSize]byte
	copy(buf[:], p)
	buf[spookyBlockSize-1] = byte(remainder)
	for i := range block {
		block[i] = binary.LittleEndian.Uint64(buf[8*i:])
	}
	end(&block, &h)
	return h[0], h[1]
}

// wordBytes serializes words little-endian: the message the word hash
// reads a word at a time.
func wordBytes(words []uint64) []byte {
	buf := make([]byte, 8*len(words))
	for i, w := range words {
		binary.LittleEndian.PutUint64(buf[8*i:], w)
	}
	return buf
}

func mix(data *[spookyNumVars]uint64, s *[spookyNumVars]uint64) {
	s[0] += data[0]
	s[2] ^= s[10]
	s[11] ^= s[0]
	s[0] = rot64(s[0], 11)
	s[11] += s[1]
	s[1] += data[1]
	s[3] ^= s[11]
	s[0] ^= s[1]
	s[1] = rot64(s[1], 32)
	s[0] += s[2]
	s[2] += data[2]
	s[4] ^= s[0]
	s[1] ^= s[2]
	s[2] = rot64(s[2], 43)
	s[1] += s[3]
	s[3] += data[3]
	s[5] ^= s[1]
	s[2] ^= s[3]
	s[3] = rot64(s[3], 31)
	s[2] += s[4]
	s[4] += data[4]
	s[6] ^= s[2]
	s[3] ^= s[4]
	s[4] = rot64(s[4], 17)
	s[3] += s[5]
	s[5] += data[5]
	s[7] ^= s[3]
	s[4] ^= s[5]
	s[5] = rot64(s[5], 28)
	s[4] += s[6]
	s[6] += data[6]
	s[8] ^= s[4]
	s[5] ^= s[6]
	s[6] = rot64(s[6], 39)
	s[5] += s[7]
	s[7] += data[7]
	s[9] ^= s[5]
	s[6] ^= s[7]
	s[7] = rot64(s[7], 57)
	s[6] += s[8]
	s[8] += data[8]
	s[10] ^= s[6]
	s[7] ^= s[8]
	s[8] = rot64(s[8], 55)
	s[7] += s[9]
	s[9] += data[9]
	s[11] ^= s[7]
	s[8] ^= s[9]
	s[9] = rot64(s[9], 54)
	s[8] += s[10]
	s[10] += data[10]
	s[0] ^= s[8]
	s[9] ^= s[10]
	s[10] = rot64(s[10], 22)
	s[9] += s[11]
	s[11] += data[11]
	s[1] ^= s[9]
	s[10] ^= s[11]
	s[11] = rot64(s[11], 46)
	s[10] += s[0]
}

func endPartial(h *[spookyNumVars]uint64) {
	h[11] += h[1]
	h[2] ^= h[11]
	h[1] = rot64(h[1], 44)
	h[0] += h[2]
	h[3] ^= h[0]
	h[2] = rot64(h[2], 15)
	h[1] += h[3]
	h[4] ^= h[1]
	h[3] = rot64(h[3], 34)
	h[2] += h[4]
	h[5] ^= h[2]
	h[4] = rot64(h[4], 21)
	h[3] += h[5]
	h[6] ^= h[3]
	h[5] = rot64(h[5], 38)
	h[4] += h[6]
	h[7] ^= h[4]
	h[6] = rot64(h[6], 33)
	h[5] += h[7]
	h[8] ^= h[5]
	h[7] = rot64(h[7], 10)
	h[6] += h[8]
	h[9] ^= h[6]
	h[8] = rot64(h[8], 13)
	h[7] += h[9]
	h[10] ^= h[7]
	h[9] = rot64(h[9], 38)
	h[8] += h[10]
	h[11] ^= h[8]
	h[10] = rot64(h[10], 53)
	h[9] += h[11]
	h[0] ^= h[9]
	h[11] = rot64(h[11], 42)
	h[10] += h[0]
	h[1] ^= h[10]
	h[0] = rot64(h[0], 54)
}

func end(data *[spookyNumVars]uint64, h *[spookyNumVars]uint64) {
	for i := range data {
		h[i] += data[i]
	}
	endPartial(h)
	endPartial(h)
	endPartial(h)
}

// TestWordHashMatchesByteHash: the word hash is SpookyHash V2 of the words'
// little-endian bytes, for every word count the generators use and more —
// random words, seeds and identifiers of all zero and all one bits.
func TestWordHashMatchesByteHash(t *testing.T) {
	const inputs = 100_000
	r := NewFromRaw(2026)
	words := make([]uint64, 8)
	check := func(seed1, seed2 uint64, w []uint64) {
		t.Helper()
		g1, g2 := hashWords(seed1, seed2, w)
		b1, b2 := byteHash128(wordBytes(w), seed1, seed2)
		if g1 != b1 || g2 != b2 {
			t.Fatalf("%d words %x, seeds %x/%x: word hash %x/%x, byte hash %x/%x", len(w), w, seed1, seed2, g1, g2, b1, b2)
		}
	}
	for n := 0; n <= 8; n++ {
		w := words[:n]
		for _, fill := range []uint64{0, ^uint64(0)} {
			for i := range w {
				w[i] = fill
			}
			check(fill, fill, w)
			check(0, ^uint64(0), w)
		}
		for i := 0; i < inputs; i++ {
			for j := range w {
				w[j] = r.Uint64()
			}
			seed := r.Uint64()
			check(seed, seed, w)
		}
		for i := 0; i < 100; i++ {
			check(r.Uint64(), r.Uint64(), w)
		}
	}
	// Up to the short hash's limit, and the entry points on top of it.
	long := make([]uint64, maxHashWords)
	for n := 9; n <= maxHashWords; n++ {
		for i := 0; i < 1000; i++ {
			for j := range long[:n] {
				long[j] = r.Uint64()
			}
			check(7, 7, long[:n])
		}
	}
	h1, h2 := byteHash128(wordBytes([]uint64{3, 4, 5}), 42, 42)
	if got := HashWords64(42, 3, 4, 5); got != h1 {
		t.Errorf("HashWords64 = %x, byte hash %x", got, h1)
	}
	if g1, g2 := HashWords128(42, 3, 4, 5); g1 != h1 || g2 != h2 {
		t.Errorf("HashWords128 = %x/%x, byte hash %x/%x", g1, g2, h1, h2)
	}
}

// TestHashWordsLimit: more than 23 words would need SpookyHash's long
// path, which is not ported; every entry point refuses them.
func TestHashWordsLimit(t *testing.T) {
	words := make([]uint64, maxHashWords+1)
	for name, f := range map[string]func(){
		"hashWords":    func() { hashWords(1, 1, words) },
		"HashWords64":  func() { HashWords64(1, words...) },
		"HashWords128": func() { HashWords128(1, words...) },
		"New":          func() { New(1, words...) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s hashed %d words", name, len(words))
				}
			}()
			f()
		}()
	}
	HashWords64(1, words[:maxHashWords]...) // the limit itself is fine
}

// TestSpookyShortLongBoundary checks that Hash128 dispatches to the short
// hash below 192 bytes and to the long hash at and above it, and that both
// paths are deterministic.
func TestSpookyDeterminism(t *testing.T) {
	for _, n := range []int{0, 1, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 100, 191, 192, 193, 500, 1000} {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i * 131)
		}
		a1, a2 := byteHash128(data, 1, 2)
		b1, b2 := byteHash128(data, 1, 2)
		if a1 != b1 || a2 != b2 {
			t.Fatalf("len %d: hash not deterministic", n)
		}
		c1, c2 := byteHash128(data, 3, 4)
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
	base1, base2 := byteHash128(data, 0, 0)
	totalFlips := 0
	trials := 0
	for byteIdx := 0; byteIdx < len(data); byteIdx++ {
		for bit := 0; bit < 8; bit++ {
			data[byteIdx] ^= 1 << uint(bit)
			h1, h2 := byteHash128(data, 0, 0)
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
		h1, h2 := byteHash128(data[:n], 0, 0)
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
