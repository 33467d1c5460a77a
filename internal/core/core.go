// Package core holds the machinery shared by every communication-free
// generator: the chunking of the vertex set, the seed-tag namespace that
// keeps the pseudorandom streams of different generators and recursion
// levels independent, and the Emitter every generator streams a chunk
// into.
package core

import "math"

// Seed tags namespace the hash streams of the individual generators so
// that reusing one user seed across models cannot correlate their
// randomness. The values are arbitrary distinct constants.
const (
	TagGNMDirected   uint64 = 0x47 << 32 // directed G(n,m) sample counting
	TagGNMUndirected uint64 = 0x48 << 32 // undirected triangular splitting
	TagGNMChunk      uint64 = 0x49 << 32 // per-chunk edge sampling
	TagGNP           uint64 = 0x4a << 32 // per-chunk binomial counts
	TagRGGCounts     uint64 = 0x4b << 32 // RGG per-chunk vertex counts
	TagRGGCell       uint64 = 0x4c << 32 // RGG per-chunk cell splitting
	TagRGGPoints     uint64 = 0x54 << 32 // RGG per-cell point streams
	TagRHGAnnuli     uint64 = 0x4d << 32 // RHG vertices per annulus
	TagRHGChunk      uint64 = 0x4e << 32 // RHG per-(annulus,chunk) splitting
	TagRHGPoints     uint64 = 0x4f << 32 // RHG point streams
	TagRDGCell       uint64 = 0x50 << 32 // RDG per-cell point streams
	TagBA            uint64 = 0x51 << 32 // BA per-slot target draws
	TagRMAT          uint64 = 0x52 << 32 // R-MAT per-edge streams
	TagSRHG          uint64 = 0x53 << 32 // sRHG request/point streams
)

// Chunking is the balanced partition of the vertex set [0, n) into
// `Chunks` consecutive ranges: chunk i holds [i*n/Chunks, (i+1)*n/Chunks).
// It is shared by the ER generators and by any generator that needs a
// vertex-id based ownership function.
type Chunking struct {
	N      uint64
	Chunks uint64
}

// Start returns the first vertex of chunk i.
func (c Chunking) Start(i uint64) uint64 { return i * c.N / c.Chunks }

// End returns one past the last vertex of chunk i.
func (c Chunking) End(i uint64) uint64 { return (i + 1) * c.N / c.Chunks }

// Size returns the number of vertices in chunk i.
func (c Chunking) Size(i uint64) uint64 { return c.End(i) - c.Start(i) }

// RangeSize returns the number of vertices in chunks [lo, hi).
func (c Chunking) RangeSize(lo, hi uint64) uint64 {
	return hi*c.N/c.Chunks - lo*c.N/c.Chunks
}

// Owner returns the chunk that owns vertex v. It inverts Start/End:
// Start(i) <= v < End(i) holds exactly for i = floor(((v+1)*Chunks-1)/N).
func (c Chunking) Owner(v uint64) uint64 {
	return ((v+1)*c.Chunks - 1) / c.N
}

// TriangularIndex maps a linear index of the strict lower triangle of a
// matrix (row-major: (1,0), (2,0), (2,1), (3,0), ...) to its (row, col)
// coordinates. It is the offset computation that converts samples of a
// diagonal chunk of the undirected ER adjacency matrix into vertex pairs.
func TriangularIndex(idx uint64) (row, col uint64) {
	// row is the largest r with r(r-1)/2 <= idx; start from the float
	// estimate and correct for rounding.
	row = uint64((1 + math.Sqrt(1+8*float64(idx))) / 2)
	for row*(row-1)/2 > idx {
		row--
	}
	for (row+1)*row/2 <= idx {
		row++
	}
	col = idx - row*(row-1)/2
	return row, col
}
