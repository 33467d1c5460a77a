package prng

import "math/bits"

// Random is the variate source handed to the samplers. Its seed is derived
// from structural identifiers with SpookyHash, which is what makes
// recomputation across processing entities consistent: the same
// identifiers always yield the same stream.
//
// The generators create a Random per structural stream — per chunk, per
// grid cell, per R-MAT edge — so construction is on the hottest paths in
// the library. Random is therefore a plain value holding the 4-word
// xoshiro256** state inline: New performs no heap allocation, and a
// derived stream lives and dies on the caller's stack.
type Random struct {
	x xoshiro256
}

// New derives a Random from a user seed and a list of structural
// identifiers (generator tag, chunk id, recursion node id, ...). Every PE
// that calls New with the same arguments obtains an identical stream.
// Derived streams are short-lived by design, so they use the O(1)-setup
// xoshiro256** generator seeded from the 128-bit SpookyHash of at most 23
// identifiers.
func New(seed uint64, ids ...uint64) Random {
	h1, h2 := hashWords(seed, seed, ids)
	var r Random
	r.x.seed(h1, h2)
	return r
}

// NewFromRaw seeds a Random from a raw 64-bit seed without hashing it
// with structural identifiers. Used by the sequential baseline algorithms
// and tests.
func NewFromRaw(seed uint64) *Random {
	r := new(Random)
	r.x.seed(seed, 0)
	return r
}

// Uint64 returns a uniform 64-bit value.
func (r *Random) Uint64() uint64 {
	return r.x.Uint64()
}

// Float64 returns a uniform value in [0, 1).
func (r *Random) Float64() float64 {
	return r.x.Float64()
}

// Float64Open returns a uniform value in (0, 1).
func (r *Random) Float64Open() float64 {
	return r.x.Float64Open()
}

// UintN returns a uniform value in [0, n) without modulo bias using
// Lemire's multiply-shift rejection method. n must be positive.
func (r *Random) UintN(n uint64) uint64 {
	if n == 0 {
		panic("prng: UintN with n == 0")
	}
	v := r.Uint64()
	hi, lo := bits.Mul64(v, n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			v = r.Uint64()
			hi, lo = bits.Mul64(v, n)
		}
	}
	return hi
}
