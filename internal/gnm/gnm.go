// Package gnm implements the communication-free Erdős–Rényi G(n,m)
// generators of the paper (§4): the directed variant via the distributed
// sampling algorithm over a row-partitioned adjacency matrix (Theorem 1)
// and the undirected variant via the triangular chunk matrix whose chunks
// are redundantly generated by both owning PEs (Theorem 2).
package gnm

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/prng"
	"repro/internal/sampling"
)

// Params configures a G(n,m) instance.
type Params struct {
	N        uint64 // number of vertices
	M        uint64 // number of edges (unordered pairs if undirected)
	Directed bool
	Seed     uint64
	Chunks   uint64 // number of logical PEs; 0 means 1
}

func (p Params) chunks() uint64 {
	if p.Chunks == 0 {
		return 1
	}
	return p.Chunks
}

// Validate checks that the requested instance exists.
func (p Params) Validate() error {
	if p.N == 0 {
		return fmt.Errorf("gnm: n must be positive")
	}
	maxM := p.N * (p.N - 1)
	if !p.Directed {
		maxM /= 2
	}
	if p.M > maxM {
		return fmt.Errorf("gnm: m = %d exceeds maximum %d", p.M, maxM)
	}
	if p.chunks() > p.N {
		return fmt.Errorf("gnm: more chunks (%d) than vertices (%d)", p.chunks(), p.N)
	}
	return nil
}

// directedChunkCount returns the chunk's sample count from the shared
// divide-and-conquer splitting.
func directedChunkCount(p Params, chunk uint64) uint64 {
	ch := core.Chunking{N: p.N, Chunks: p.chunks()}
	size := func(lo, hi uint64) uint64 { return ch.RangeSize(lo, hi) * (p.N - 1) }
	return sampling.ChunkCount(p.Seed^core.TagGNMDirected, p.M, p.chunks(), size, chunk)
}

// streamDirected samples the edges whose source vertex lies in the chunk.
// The universe of chunk i is rows_i * (n-1) matrix entries (self-loop
// column removed); the per-chunk sample count comes from the shared
// divide-and-conquer splitting.
func streamDirected(p Params, chunk uint64, e *core.Emitter) {
	k := directedChunkCount(p, chunk)
	ch := core.Chunking{N: p.N, Chunks: p.chunks()}
	rowStart := ch.Start(chunk)
	universe := ch.Size(chunk) * (p.N - 1)
	r := prng.New(p.Seed, core.TagGNMChunk, chunk)
	sampling.SampleSorted(&r, universe, k, func(idx uint64) {
		u := rowStart + idx/(p.N-1)
		rem := idx % (p.N - 1)
		v := rem
		if rem >= u {
			v = rem + 1 // skip the self-loop column
		}
		e.Append(u, v)
	})
}

// --- Undirected case (§4.2) ---

// StreamChunk emits one logical PE's local edges into e without
// materializing them, dispatching on Directed (the memory-bounded
// generation mode of §8.2/§9): all sampled edges incident to the PE's
// vertex range, oriented away from local vertices (partitioned output
// convention). Undirected edges appear once per endpoint across the PEs.
func StreamChunk(p Params, chunk uint64, e *core.Emitter) {
	if p.Directed {
		streamDirected(p, chunk, e)
		return
	}
	streamUndirected(p, chunk, e)
}

// streamUndirected emits all edges incident to chunk i without
// buffering: it walks chunk i's triangular row in order — the rectangular
// pairs (i,j), j < i, the diagonal pair (i,i), then the column pairs (j,i),
// j > i — and emits the locally oriented copy of each pair's edges straight
// from the per-pair sample stream. Each pair's edge count is derived on
// demand by an O(log P) root-to-pair descent of the quadrant recursion
// (pairEdgeCount), so the chunk needs no per-pair count map: the working
// set is the descent path plus the sampler state, independent of P and m.
// Each chunk pair is regenerated redundantly by both owners from the same
// seed, which is what removes communication.
func streamUndirected(p Params, chunk uint64, e *core.Emitter) {
	P := p.chunks()
	ch := core.Chunking{N: p.N, Chunks: P}
	for other := uint64(0); other < P; other++ {
		i, j := chunk, other // chunk pair (max, min)
		if other > chunk {
			i, j = other, chunk
		}
		k := pairEdgeCount(p, ch, i, j)
		if k == 0 {
			continue
		}
		r := prng.New(p.Seed, core.TagGNMChunk, i, j)
		if i == j {
			sampleTriangular(&r, ch.Start(i), ch.Size(i), k, func(u, v uint64) {
				// Both endpoints local: emit both orientations.
				e.Append(u, v)
				e.Append(v, u)
			})
			continue
		}
		rowStart, colStart := ch.Start(i), ch.Start(j)
		cols := ch.Size(j)
		local := chunk == i
		sampleRectangular(&r, rowStart, colStart, ch.Size(i), cols, k, func(u, v uint64) {
			// u is in chunk i, v in chunk j: emit the locally oriented copy.
			if local {
				e.Append(u, v)
			} else {
				e.Append(v, u)
			}
		})
	}
}

// triUniverse is the number of distinct unordered non-loop pairs inside the
// vertex range of chunks [lo, hi).
func triUniverse(ch core.Chunking, lo, hi uint64) uint64 {
	v := ch.RangeSize(lo, hi)
	return v * (v - 1) / 2
}

// rectUniverse is the number of pairs with one endpoint in the row range
// and one in the column range (the ranges are disjoint).
func rectUniverse(ch core.Chunking, rlo, rhi, clo, chi uint64) uint64 {
	return ch.RangeSize(rlo, rhi) * ch.RangeSize(clo, chi)
}

// pairEdgeCount returns the number of edges of triangular chunk pair
// (i, j), i >= j, by walking the root-to-pair path of the quadrant
// recursion of §4.2: the triangle T(lo,hi) = { (i,j) : lo <= j <= i < hi }
// splits into a low triangle, a rectangle and a high triangle, and the
// descent keeps whichever part contains the target pair. Every node's
// hypergeometric variates are seeded by the subtree identity alone, so the
// draws along the path are bit-identical for every PE — and bit-identical
// to the former full-recursion splitting, keeping the instance definition
// unchanged — while a single pair query costs O(log P) variates and no
// allocation.
func pairEdgeCount(p Params, ch core.Chunking, i, j uint64) uint64 {
	lo, hi := uint64(0), p.chunks()
	k := p.M
	for k > 0 && hi-lo > 1 {
		mid := lo + (hi-lo)/2
		lowTri := triUniverse(ch, lo, mid)
		rect := rectUniverse(ch, mid, hi, lo, mid)
		highTri := triUniverse(ch, mid, hi)
		total := lowTri + rect + highTri

		r := prng.New(p.Seed, core.TagGNMUndirected, lo, hi)
		inLow := dist.Hypergeometric(&r, total, lowTri, k)
		rest := k - inLow
		inRect := dist.Hypergeometric(&r, total-lowTri, rect, rest)

		switch {
		case i < mid: // both endpoints in the low triangle
			hi, k = mid, inLow
		case j >= mid: // both endpoints in the high triangle
			lo, k = mid, rest-inRect
		default: // row in [mid,hi), column in [lo,mid): the rectangle
			return rectPairEdgeCount(p, ch, mid, hi, lo, mid, inRect, i, j)
		}
	}
	return k // hi-lo == 1: the diagonal pair (lo, lo)
}

// rectPairEdgeCount descends the rectangular part of the recursion — rows
// [rlo,rhi) x cols [clo,chi), halving the longer side, seeded by the block
// identity — down to the single chunk pair (i, j).
func rectPairEdgeCount(p Params, ch core.Chunking, rlo, rhi, clo, chi, k, i, j uint64) uint64 {
	for k > 0 && (rhi-rlo > 1 || chi-clo > 1) {
		r := prng.New(p.Seed, core.TagGNMUndirected, rlo<<32|rhi, clo<<32|chi)
		if rhi-rlo >= chi-clo {
			mid := rlo + (rhi-rlo)/2
			left := rectUniverse(ch, rlo, mid, clo, chi)
			total := left + rectUniverse(ch, mid, rhi, clo, chi)
			inLeft := dist.Hypergeometric(&r, total, left, k)
			if i < mid {
				rhi, k = mid, inLeft
			} else {
				rlo, k = mid, k-inLeft
			}
		} else {
			mid := clo + (chi-clo)/2
			left := rectUniverse(ch, rlo, rhi, clo, mid)
			total := left + rectUniverse(ch, rlo, rhi, mid, chi)
			inLeft := dist.Hypergeometric(&r, total, left, k)
			if j < mid {
				chi, k = mid, inLeft
			} else {
				clo, k = mid, k-inLeft
			}
		}
	}
	return k
}

// sampleRectangular draws k distinct cells of a rows x cols matrix and
// reports them as vertex pairs offset by the range starts.
func sampleRectangular(r *prng.Random, rowStart, colStart, rows, cols, k uint64, emit func(u, v uint64)) {
	sampling.SampleSorted(r, rows*cols, k, func(idx uint64) {
		emit(rowStart+idx/cols, colStart+idx%cols)
	})
}

// sampleTriangular draws k distinct entries of the strict lower triangle of
// a size x size matrix and reports them as vertex pairs (u > v).
func sampleTriangular(r *prng.Random, start, size, k uint64, emit func(u, v uint64)) {
	universe := size * (size - 1) / 2
	sampling.SampleSorted(r, universe, k, func(idx uint64) {
		row, col := core.TriangularIndex(idx)
		emit(start+row, start+col)
	})
}

// triangularIndex is re-exported for the package tests.
func triangularIndex(idx uint64) (row, col uint64) { return core.TriangularIndex(idx) }
