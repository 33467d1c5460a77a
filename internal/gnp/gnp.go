// Package gnp implements the communication-free Erdős–Rényi G(n,p)
// generators (§4.3 of the paper). Unlike G(n,m) no global total must be
// distributed: the edge count of every chunk is an independent binomial
// over the chunk's universe, seeded by the chunk identity, after which the
// same sorted-sampling procedure as in G(n,m) produces the edges.
//
// A direct geometric-skip sampler (Batagelj–Brandes style) over the chunk
// universe is provided as well; it draws the identical distribution and
// serves as the ablation baseline A3 of DESIGN.md.
package gnp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/prng"
	"repro/internal/sampling"
)

// Params configures a G(n,p) instance.
type Params struct {
	N        uint64  // number of vertices
	P        float64 // edge probability in [0,1]
	Directed bool
	Seed     uint64
	Chunks   uint64 // number of logical PEs; 0 means 1
	// SkipSampling selects the geometric-skip code path instead of the
	// binomial-count + Algorithm D path described in the paper.
	SkipSampling bool
}

func (p Params) chunks() uint64 {
	if p.Chunks == 0 {
		return 1
	}
	return p.Chunks
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.N == 0 {
		return fmt.Errorf("gnp: n must be positive")
	}
	if p.P < 0 || p.P > 1 {
		return fmt.Errorf("gnp: p = %v outside [0,1]", p.P)
	}
	if p.chunks() > p.N {
		return fmt.Errorf("gnp: more chunks (%d) than vertices (%d)", p.chunks(), p.N)
	}
	return nil
}

// streamDirected emits the edges whose source vertex lies in the chunk.
func streamDirected(p Params, chunk uint64, e *core.Emitter) {
	ch := core.Chunking{N: p.N, Chunks: p.chunks()}
	rowStart := ch.Start(chunk)
	universe := ch.Size(chunk) * (p.N - 1)
	sampleUniverse(p, chunk, chunk, universe, func(idx uint64) {
		u := rowStart + idx/(p.N-1)
		rem := idx % (p.N - 1)
		v := rem
		if rem >= u {
			v = rem + 1
		}
		e.Append(u, v)
	})
}

// StreamChunk emits one logical PE's local edges into e without
// materializing them, dispatching on Directed (the memory-bounded
// generation mode of §8.2/§9). Undirected edges appear once per endpoint
// across the PEs.
func StreamChunk(p Params, chunk uint64, e *core.Emitter) {
	if p.Directed {
		streamDirected(p, chunk, e)
		return
	}
	streamUndirected(p, chunk, e)
}

// streamUndirected walks the triangular chunk matrix of the G(n,m)
// generator in row order — rectangular pairs (i,j), j < i, the diagonal
// pair (i,i), then the column pairs (j,i), j > i — and emits the locally
// oriented copy of each pair's edges straight from the per-pair sample
// stream. Chunk pair (i,j) is generated by both owners from the same
// per-pair seed; because the pair counts are independent binomials there
// is no splitting recursion at all, and the working set is just the
// sampler state of one pair.
func streamUndirected(p Params, chunk uint64, e *core.Emitter) {
	P := p.chunks()
	ch := core.Chunking{N: p.N, Chunks: P}
	for other := uint64(0); other < P; other++ {
		i, j := chunk, other
		if other > chunk {
			i, j = other, chunk
		}
		if i == j {
			size := ch.Size(i)
			start := ch.Start(i)
			universe := size * (size - 1) / 2
			sampleUniverse(p, i, j, universe, func(idx uint64) {
				row, col := triangularIndex(idx)
				// Both endpoints local: emit both orientations.
				e.Append(start+row, start+col)
				e.Append(start+col, start+row)
			})
			continue
		}
		rowStart, colStart := ch.Start(i), ch.Start(j)
		cols := ch.Size(j)
		universe := ch.Size(i) * cols
		local := chunk == i
		sampleUniverse(p, i, j, universe, func(idx uint64) {
			u := rowStart + idx/cols
			v := colStart + idx%cols
			if local {
				e.Append(u, v)
			} else {
				e.Append(v, u)
			}
		})
	}
}

// sampleUniverse emits the indices of the Bernoulli(p) subset of
// [0, universe), either via a binomial count plus Algorithm D (the paper's
// formulation) or via direct geometric skips. Both draw the same
// distribution; both are seeded purely by the chunk pair identity.
func sampleUniverse(p Params, i, j, universe uint64, emit func(uint64)) {
	if universe == 0 || p.P <= 0 {
		return
	}
	r := prng.New(p.Seed, core.TagGNP, i, j)
	if p.P >= 1 {
		for idx := uint64(0); idx < universe; idx++ {
			emit(idx)
		}
		return
	}
	if p.SkipSampling {
		idx := dist.GeometricSkip(&r, p.P)
		for idx < universe {
			emit(idx)
			idx += 1 + dist.GeometricSkip(&r, p.P)
		}
		return
	}
	k := dist.Binomial(&r, universe, p.P)
	sampling.SampleSorted(&r, universe, k, emit)
}

// triangularIndex maps a linear index of the strict lower triangle to
// (row, col); see core.TriangularIndex for the derivation.
func triangularIndex(idx uint64) (row, col uint64) {
	return core.TriangularIndex(idx)
}
