// Package sbm implements a communication-free stochastic block model
// generator — the first extension the paper's conclusion names as future
// work ("we would like to extend our communication-free paradigm to
// various other network models such as the stochastic block-model", §9).
//
// The construction generalizes the undirected G(n,p) generator: vertices
// are partitioned into blocks; each unordered pair (u, v) is an edge
// independently with probability Prob[block(u)][block(v)]. The chunk-pair
// matrix of §4.2 is intersected with the block structure, giving
// rectangular (or triangular) sub-universes of constant probability, each
// sampled with a binomial count plus sorted sampling, seeded purely by
// the (chunk pair, block pair) identity — so both owning PEs regenerate
// identical edges, exactly like the ER generators.
package sbm

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/prng"
	"repro/internal/sampling"
)

// tagSBM namespaces the model's hash streams.
const tagSBM uint64 = 0x55 << 32

// Params configures a stochastic block model instance.
type Params struct {
	// BlockSizes lists the number of vertices per block; vertices are
	// numbered block by block.
	BlockSizes []uint64
	// Prob[i][j] is the edge probability between block i and block j.
	// The matrix must be symmetric (the model is undirected).
	Prob [][]float64
	Seed uint64
	// Chunks is the number of logical PEs. 0 means 1.
	Chunks uint64
}

// PlantedPartition returns Params for the classic planted-partition model:
// `blocks` equal blocks over n vertices, intra-block probability pIn and
// inter-block probability pOut.
func PlantedPartition(n uint64, blocks int, pIn, pOut float64, seed, chunks uint64) Params {
	sizes := make([]uint64, blocks)
	ch := core.Chunking{N: n, Chunks: uint64(blocks)}
	for i := range sizes {
		sizes[i] = ch.Size(uint64(i))
	}
	prob := make([][]float64, blocks)
	for i := range prob {
		prob[i] = make([]float64, blocks)
		for j := range prob[i] {
			if i == j {
				prob[i][j] = pIn
			} else {
				prob[i][j] = pOut
			}
		}
	}
	return Params{BlockSizes: sizes, Prob: prob, Seed: seed, Chunks: chunks}
}

func (p Params) chunks() uint64 {
	if p.Chunks == 0 {
		return 1
	}
	return p.Chunks
}

// N returns the total number of vertices.
func (p Params) N() uint64 {
	var n uint64
	for _, s := range p.BlockSizes {
		n += s
	}
	return n
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if len(p.BlockSizes) == 0 {
		return fmt.Errorf("sbm: no blocks")
	}
	if len(p.Prob) != len(p.BlockSizes) {
		return fmt.Errorf("sbm: probability matrix has %d rows for %d blocks", len(p.Prob), len(p.BlockSizes))
	}
	for i, row := range p.Prob {
		if len(row) != len(p.BlockSizes) {
			return fmt.Errorf("sbm: probability row %d has %d entries", i, len(row))
		}
		for j, v := range row {
			if v < 0 || v > 1 {
				return fmt.Errorf("sbm: probability [%d][%d] = %v outside [0,1]", i, j, v)
			}
			if p.Prob[j][i] != v {
				return fmt.Errorf("sbm: probability matrix not symmetric at (%d,%d)", i, j)
			}
		}
	}
	if p.chunks() > p.N() {
		return fmt.Errorf("sbm: more chunks (%d) than vertices (%d)", p.chunks(), p.N())
	}
	return nil
}

// blockStarts returns the first vertex of each block plus the total.
func (p Params) blockStarts() []uint64 {
	starts := make([]uint64, len(p.BlockSizes)+1)
	for i, s := range p.BlockSizes {
		starts[i+1] = starts[i] + s
	}
	return starts
}

// interval is a half-open vertex range.
type interval struct{ lo, hi uint64 }

func (iv interval) size() uint64 { return iv.hi - iv.lo }

// intersect clips the interval to [lo, hi).
func (iv interval) intersect(lo, hi uint64) interval {
	if lo > iv.lo {
		iv.lo = lo
	}
	if hi < iv.hi {
		iv.hi = hi
	}
	if iv.hi < iv.lo {
		iv.hi = iv.lo
	}
	return iv
}

// StreamChunk emits all edges incident to the chunk's vertex range into e,
// oriented away from local vertices, without materializing them;
// undirected edges appear once per endpoint across PEs. It composes the per-block-pair
// undirected streams along the chunk's triangular row exactly like the
// undirected G(n,p) streamer: for each chunk pair the constant-probability
// sub-rectangles (block pair intersections) are sampled in block order,
// seeded purely by the (chunk pair, block pair) identity, so both owning
// PEs regenerate identical edges and the working set is one sub-rectangle's
// sampler state.
func StreamChunk(p Params, chunk uint64, e *core.Emitter) {
	n := p.N()
	P := p.chunks()
	ch := core.Chunking{N: n, Chunks: P}
	starts := p.blockStarts()
	blocks := len(p.BlockSizes)

	for other := uint64(0); other < P; other++ {
		i, j := chunk, other
		if other > chunk {
			i, j = other, chunk
		}
		rows := interval{ch.Start(i), ch.End(i)}
		cols := interval{ch.Start(j), ch.End(j)}
		local := chunk == i

		// Sub-rectangles of constant probability: block pair (bi, bj).
		for bi := 0; bi < blocks; bi++ {
			rowPart := rows.intersect(starts[bi], starts[bi+1])
			if rowPart.size() == 0 {
				continue
			}
			for bj := 0; bj < blocks; bj++ {
				colPart := cols.intersect(starts[bj], starts[bj+1])
				if colPart.size() == 0 {
					continue
				}
				prob := p.Prob[bi][bj]
				r := prng.New(p.Seed, tagSBM, i<<32|j, uint64(bi)<<32|uint64(bj))
				if i == j {
					// Diagonal chunk: only the strict lower triangle of
					// the chunk counts; clip the rectangle accordingly.
					sampleLowerTriangleRect(&r, rowPart, colPart, prob, func(u, v uint64) {
						// Both endpoints local: emit both orientations.
						e.Append(u, v)
						e.Append(v, u)
					})
					continue
				}
				sampleRect(&r, rowPart, colPart, prob, func(u, v uint64) {
					if local {
						e.Append(u, v)
					} else {
						e.Append(v, u)
					}
				})
			}
		}
	}
}

// sampleRect Bernoulli-samples a full rectangle rows x cols.
func sampleRect(r *prng.Random, rows, cols interval, prob float64, emit func(u, v uint64)) {
	universe := rows.size() * cols.size()
	if universe == 0 || prob <= 0 {
		return
	}
	k := dist.Binomial(r, universe, prob)
	w := cols.size()
	sampling.SampleSorted(r, universe, k, func(idx uint64) {
		emit(rows.lo+idx/w, cols.lo+idx%w)
	})
}

// sampleLowerTriangleRect Bernoulli-samples the part of the rectangle that
// lies strictly below the diagonal (u > v). Both intervals are the same
// chunk range intersected with (contiguous) blocks, so only three shapes
// occur: rows entirely above cols (full rectangle below the diagonal),
// rows entirely below cols (nothing), or the identical square (bi == bj,
// strict lower triangle).
func sampleLowerTriangleRect(r *prng.Random, rows, cols interval, prob float64, emit func(u, v uint64)) {
	if prob <= 0 || rows.size() == 0 || cols.size() == 0 {
		return
	}
	switch {
	case rows.lo >= cols.hi:
		sampleRect(r, rows, cols, prob, emit)
	case rows == cols:
		size := rows.size()
		universe := size * (size - 1) / 2
		if universe == 0 {
			return
		}
		k := dist.Binomial(r, universe, prob)
		sampling.SampleSorted(r, universe, k, func(idx uint64) {
			row, col := core.TriangularIndex(idx)
			emit(rows.lo+row, rows.lo+col)
		})
	default:
		// rows entirely below the diagonal's column range: the mirrored
		// block pair (bj, bi) emits these pairs.
	}
}
