// Package prng provides the pseudorandomization substrate of the
// communication-free generators: SpookyHash V2's short hash, run on 64-bit
// words, derives stream seeds from structural identifiers (chunk ids,
// recursion-subtree ids), and xoshiro256** draws the variates of each
// stream. The hash matches the reference C implementation on the words'
// little-endian bytes bit for bit.
//
// The central idea of the paper (Funke et al., "Communication-free
// Massively Distributed Graph Generation") is that two processing entities
// that need the same random decision derive the seed for that decision from
// the same structural identifier and therefore obtain the same value
// without communicating.
package prng

// spookyConst is sc_const from SpookyHash V2: a primeless arbitrary value,
// odd and not "flat" (no zero or all-one bytes).
const spookyConst = 0xdeadbeefdeadbeef

// maxHashWords is the longest identifier list the hash takes: 23 words are
// 184 bytes, and SpookyHash V2 sends every message under 192 bytes through
// its short hash, the only part ported here. The generators pass at most
// four words (tag plus up to three structural ids).
const maxHashWords = 23

func rot64(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// hashWords is SpookyHash V2's short hash of the words' little-endian
// bytes, read a word at a time: seed derivation runs per edge and per cell
// on the hot paths, so the words are never serialised. The reference
// consumes 32-byte blocks as two 16-byte halves — the first added to c, d
// and mixed, the second added to a, b — and a last 16 bytes like a first
// half, so pairs of words alternate between the two. A message of whole
// words leaves 0 or 8 bytes after that, so of the reference's 16 tail
// cases only "no bytes" and "one whole word" occur.
func hashWords(seed1, seed2 uint64, words []uint64) (uint64, uint64) {
	n := len(words)
	if n > maxHashWords {
		panic("prng: more than 23 words to hash")
	}
	a, b := seed1, seed2
	c, d := uint64(spookyConst), uint64(spookyConst)
	for k := 0; k+1 < n; k += 2 {
		if k&2 == 0 {
			c += words[k]
			d += words[k+1]
			a, b, c, d = shortMix(a, b, c, d)
		} else {
			a += words[k]
			b += words[k+1]
		}
	}
	d += uint64(8*n) << 56
	if n&1 == 1 {
		c += words[n-1]
	} else {
		c += spookyConst
		d += spookyConst
	}
	a, b, _, _ = shortEnd(a, b, c, d)
	return a, b
}

// shortMix: the inner mix of the short hash. Reversible; every input bit
// affects every output bit after three rounds.
func shortMix(a, b, c, d uint64) (uint64, uint64, uint64, uint64) {
	c = rot64(c, 50)
	c += d
	a ^= c
	d = rot64(d, 52)
	d += a
	b ^= d
	a = rot64(a, 30)
	a += b
	c ^= a
	b = rot64(b, 41)
	b += c
	d ^= b
	c = rot64(c, 54)
	c += d
	a ^= c
	d = rot64(d, 48)
	d += a
	b ^= d
	a = rot64(a, 38)
	a += b
	c ^= a
	b = rot64(b, 37)
	b += c
	d ^= b
	c = rot64(c, 62)
	c += d
	a ^= c
	d = rot64(d, 34)
	d += a
	b ^= d
	a = rot64(a, 5)
	a += b
	c ^= a
	b = rot64(b, 36)
	b += c
	d ^= b
	return a, b, c, d
}

// shortEnd: the final mix of the short hash.
func shortEnd(a, b, c, d uint64) (uint64, uint64, uint64, uint64) {
	d ^= c
	c = rot64(c, 15)
	d += c
	a ^= d
	d = rot64(d, 52)
	a += d
	b ^= a
	a = rot64(a, 26)
	b += a
	c ^= b
	b = rot64(b, 51)
	c += b
	d ^= c
	c = rot64(c, 28)
	d += c
	a ^= d
	d = rot64(d, 9)
	a += d
	b ^= a
	a = rot64(a, 47)
	b += a
	c ^= b
	b = rot64(b, 54)
	c += b
	d ^= c
	c = rot64(c, 32)
	d += c
	a ^= d
	d = rot64(d, 25)
	a += d
	b ^= a
	a = rot64(a, 63)
	b += a
	return a, b, c, d
}

// HashWords64 hashes a sequence of at most 23 64-bit words. It is the
// primary seed derivation entry point: callers pass structural identifiers
// (user seed, generator tag, chunk id, recursion node id) and obtain a
// stream seed.
func HashWords64(seed uint64, words ...uint64) uint64 {
	h1, _ := hashWords(seed, seed, words)
	return h1
}

// HashWords128 is HashWords64 returning the full 128-bit hash.
func HashWords128(seed uint64, words ...uint64) (uint64, uint64) {
	return hashWords(seed, seed, words)
}
