package benchreg

import "repro/internal/prng"

// MT19937 is the 64-bit Mersenne Twister (mt19937-64) of Matsumoto and
// Nishimura, ported from the 2004 reference implementation — the variate
// source of the KaGen implementation described in §8.1 of the paper. The
// generators derive their streams with xoshiro256** instead (see
// internal/prng); the Twister is kept here only for the ablation that
// prices that choice (AblationStreamSetup).
type MT19937 struct {
	mt  [mtNN]uint64
	mti int
}

const (
	mtNN      = 312
	mtMM      = 156
	mtMatrixA = 0xB5026F5AA96619E9
	mtUpper   = 0xFFFFFFFF80000000 // most significant 33 bits
	mtLower   = 0x000000007FFFFFFF // least significant 31 bits
)

// NewMT19937 returns a generator initialized with the given seed.
func NewMT19937(seed uint64) *MT19937 {
	m := &MT19937{}
	m.Seed(seed)
	return m
}

// NewMTHashed derives an MT19937 from structural ids the way prng.New
// derives a xoshiro256** stream: the naive fidelity choice of one full
// Twister seeding per structural stream.
func NewMTHashed(seed uint64, ids ...uint64) *MT19937 {
	h1, h2 := prng.HashWords128(seed, ids...)
	return NewMT19937Array([]uint64{h1, h2, seed})
}

// NewMT19937Array returns a generator initialized with an array seed,
// mirroring init_by_array64 of the reference implementation.
func NewMT19937Array(key []uint64) *MT19937 {
	m := &MT19937{}
	m.SeedArray(key)
	return m
}

// Seed reinitializes the state from a single 64-bit seed (init_genrand64).
func (m *MT19937) Seed(seed uint64) {
	m.mt[0] = seed
	for i := 1; i < mtNN; i++ {
		m.mt[i] = 6364136223846793005*(m.mt[i-1]^(m.mt[i-1]>>62)) + uint64(i)
	}
	m.mti = mtNN
}

// SeedArray reinitializes the state from an array seed (init_by_array64).
func (m *MT19937) SeedArray(key []uint64) {
	m.Seed(19650218)
	i, j := 1, 0
	k := mtNN
	if len(key) > k {
		k = len(key)
	}
	for ; k > 0; k-- {
		m.mt[i] = (m.mt[i] ^ ((m.mt[i-1] ^ (m.mt[i-1] >> 62)) * 3935559000370003845)) + key[j] + uint64(j)
		i++
		j++
		if i >= mtNN {
			m.mt[0] = m.mt[mtNN-1]
			i = 1
		}
		if j >= len(key) {
			j = 0
		}
	}
	for k = mtNN - 1; k > 0; k-- {
		m.mt[i] = (m.mt[i] ^ ((m.mt[i-1] ^ (m.mt[i-1] >> 62)) * 2862933555777941757)) - uint64(i)
		i++
		if i >= mtNN {
			m.mt[0] = m.mt[mtNN-1]
			i = 1
		}
	}
	m.mt[0] = 1 << 63 // MSB is 1, assuring a non-zero initial array
	m.mti = mtNN
}

// Uint64 returns the next number in [0, 2^64) (genrand64_int64).
func (m *MT19937) Uint64() uint64 {
	if m.mti >= mtNN {
		var x uint64
		var i int
		for i = 0; i < mtNN-mtMM; i++ {
			x = (m.mt[i] & mtUpper) | (m.mt[i+1] & mtLower)
			m.mt[i] = m.mt[i+mtMM] ^ (x >> 1) ^ ((x & 1) * mtMatrixA)
		}
		for ; i < mtNN-1; i++ {
			x = (m.mt[i] & mtUpper) | (m.mt[i+1] & mtLower)
			m.mt[i] = m.mt[i+(mtMM-mtNN)] ^ (x >> 1) ^ ((x & 1) * mtMatrixA)
		}
		x = (m.mt[mtNN-1] & mtUpper) | (m.mt[0] & mtLower)
		m.mt[mtNN-1] = m.mt[mtMM-1] ^ (x >> 1) ^ ((x & 1) * mtMatrixA)
		m.mti = 0
	}
	x := m.mt[m.mti]
	m.mti++
	x ^= (x >> 29) & 0x5555555555555555
	x ^= (x << 17) & 0x71D67FFFEDA60000
	x ^= (x << 37) & 0xFFF7EEE000000000
	x ^= x >> 43
	return x
}

// Float64 returns the next number in [0, 1) with 53-bit resolution
// (genrand64_real2).
func (m *MT19937) Float64() float64 {
	return float64(m.Uint64()>>11) / 9007199254740992.0
}

// Float64Open returns the next number in (0, 1) (genrand64_real3). Useful
// when a logarithm of the variate is taken.
func (m *MT19937) Float64Open() float64 {
	return (float64(m.Uint64()>>12) + 0.5) / 4503599627370496.0
}
