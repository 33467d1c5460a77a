package prng

// xoshiro256** (Blackman & Vigna) seeded through SplitMix64. The
// structural-identifier streams of the generators draw only a handful of
// variates per stream (one binomial per recursion node, a few coordinates
// per cell), so initializing a 312-word Mersenne Twister per stream would
// dominate the running time. The 4-word xoshiro state keeps per-stream
// setup O(1) while retaining excellent statistical quality; the upstream
// KaGen library pays the analogous cost trade-off inside its sampling
// library.
//
// The state is four fields, not an array: Go's register ABI passes and
// returns a struct of four words in registers, so New hands a stream back
// without a round trip through memory (an array is copied through the
// stack, and the 16-byte copy of 8-byte stores stalls on store
// forwarding once per derived stream).
type xoshiro256 struct {
	s0, s1, s2, s3 uint64
}

// splitMix64 is the recommended seeding generator for xoshiro.
func splitMix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// seed initializes the state in place from two 64-bit hash words, so a
// xoshiro256 embedded by value (see Random) is seeded without allocating.
func (x *xoshiro256) seed(h1, h2 uint64) {
	seed := h1
	x.s0 = splitMix64(&seed)
	x.s1 = splitMix64(&seed)
	seed ^= h2
	x.s2 = splitMix64(&seed)
	x.s3 = splitMix64(&seed)
	// A zero state would be a fixed point; splitMix64 output is zero with
	// probability 2^-256 across four words, but guard anyway.
	if x.s0|x.s1|x.s2|x.s3 == 0 {
		x.s0 = 0x9e3779b97f4a7c15
	}
}

// newXoshiro seeds a fresh state from two 64-bit hash words.
func newXoshiro(h1, h2 uint64) *xoshiro256 {
	x := &xoshiro256{}
	x.seed(h1, h2)
	return x
}

func (x *xoshiro256) Uint64() uint64 {
	// The all-zero state is unreachable after seed(); hitting it means a
	// zero-value Random was used without New. Panic like the previous
	// interface-backed Random did, instead of emitting zeros forever —
	// the state words are in registers anyway, so the guard is free.
	if x.s0|x.s1|x.s2|x.s3 == 0 {
		panic("prng: use of an unseeded Random (use prng.New)")
	}
	result := rot64(x.s1*5, 7) * 9
	t := x.s1 << 17
	x.s2 ^= x.s0
	x.s3 ^= x.s1
	x.s1 ^= x.s2
	x.s0 ^= x.s3
	x.s2 ^= t
	x.s3 = rot64(x.s3, 45)
	return result
}

func (x *xoshiro256) Float64() float64 {
	return float64(x.Uint64()>>11) / 9007199254740992.0
}

func (x *xoshiro256) Float64Open() float64 {
	return (float64(x.Uint64()>>12) + 0.5) / 4503599627370496.0
}
