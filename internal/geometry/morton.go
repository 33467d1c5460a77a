// Package geometry provides the Euclidean helpers of the spatial
// generators: Morton (Z-order) curves for locality-aware chunk assignment
// (§5.1) and small vector utilities over points in the unit cube.
package geometry

// MortonEncode2 interleaves the bits of x and y (up to 32 bits each) into
// a Z-order index.
func MortonEncode2(x, y uint32) uint64 {
	return spread2(uint64(x)) | spread2(uint64(y))<<1
}

// MortonDecode2 is the inverse of MortonEncode2.
func MortonDecode2(m uint64) (x, y uint32) {
	return compact2(m), compact2(m >> 1)
}

func spread2(x uint64) uint64 {
	x &= 0xffffffff
	x = (x | x<<16) & 0x0000ffff0000ffff
	x = (x | x<<8) & 0x00ff00ff00ff00ff
	x = (x | x<<4) & 0x0f0f0f0f0f0f0f0f
	x = (x | x<<2) & 0x3333333333333333
	x = (x | x<<1) & 0x5555555555555555
	return x
}

func compact2(x uint64) uint32 {
	x &= 0x5555555555555555
	x = (x | x>>1) & 0x3333333333333333
	x = (x | x>>2) & 0x0f0f0f0f0f0f0f0f
	x = (x | x>>4) & 0x00ff00ff00ff00ff
	x = (x | x>>8) & 0x0000ffff0000ffff
	x = (x | x>>16) & 0x00000000ffffffff
	return uint32(x)
}

// MortonEncode3 interleaves the bits of x, y and z (up to 21 bits each)
// into a Z-order index.
func MortonEncode3(x, y, z uint32) uint64 {
	return spread3(uint64(x)) | spread3(uint64(y))<<1 | spread3(uint64(z))<<2
}

// MortonDecode3 is the inverse of MortonEncode3.
func MortonDecode3(m uint64) (x, y, z uint32) {
	return compact3(m), compact3(m >> 1), compact3(m >> 2)
}

func spread3(x uint64) uint64 {
	x &= 0x1fffff
	x = (x | x<<32) & 0x001f00000000ffff
	x = (x | x<<16) & 0x001f0000ff0000ff
	x = (x | x<<8) & 0x100f00f00f00f00f
	x = (x | x<<4) & 0x10c30c30c30c30c3
	x = (x | x<<2) & 0x1249249249249249
	return x
}

func compact3(x uint64) uint32 {
	x &= 0x1249249249249249
	x = (x | x>>2) & 0x10c30c30c30c30c3
	x = (x | x>>4) & 0x100f00f00f00f00f
	x = (x | x>>8) & 0x001f0000ff0000ff
	x = (x | x>>16) & 0x001f00000000ffff
	x = (x | x>>32) & 0x00000000001fffff
	return uint32(x)
}

// MortonEncode dispatches on dimension (2 or 3); unused coordinates are
// ignored.
func MortonEncode(dim int, c [3]uint32) uint64 {
	if dim == 2 {
		return MortonEncode2(c[0], c[1])
	}
	return MortonEncode3(c[0], c[1], c[2])
}

// MortonDecode dispatches on dimension (2 or 3).
func MortonDecode(dim int, m uint64) [3]uint32 {
	var c [3]uint32
	if dim == 2 {
		c[0], c[1] = MortonDecode2(m)
	} else {
		c[0], c[1], c[2] = MortonDecode3(m)
	}
	return c
}

// Point is a point in the unit cube; only the first Dim coordinates of a
// generator's dimension are meaningful.
type Point struct {
	X  [3]float64
	ID uint64
}

// Dist2 returns the squared Euclidean distance of two points in dim
// dimensions. Each term is rounded before it is added — float64(d*d) — so
// no architecture fuses the sum into an FMA.
func Dist2(dim int, a, b [3]float64) float64 {
	var s float64
	for i := 0; i < dim; i++ {
		d := a[i] - b[i]
		s += float64(d * d)
	}
	return s
}
