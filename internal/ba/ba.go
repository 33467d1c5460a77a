// Package ba implements the communication-free Barabási–Albert
// preferential-attachment generator (paper §3.5.1) using the algorithm of
// Sanders and Schulz [4], which parallelizes the linear-time sequential
// algorithm of Batagelj and Brandes.
//
// The sequential algorithm fills an array M of length 2nd: M[2k] = k/d
// (the source of edge k) and M[2k+1] = M[r] for r drawn uniformly from
// [0, 2k] — copying an earlier entry implements preferential attachment
// because vertex v appears in M proportionally to its current degree.
// Sanders–Schulz observe that M[r] can be recomputed on demand: an even r
// resolves immediately to vertex r/(2d); an odd r recurses into the draw
// of slot (r-1)/2, which is reproducible because every slot's draw is
// seeded by a hash of the slot index. The expected recursion depth is
// constant, so any PE generates any edge in O(1) without communication.
package ba

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/prng"
)

// Params configures a Barabási–Albert instance.
type Params struct {
	N    uint64 // number of vertices
	D    uint64 // edges added per vertex
	Seed uint64
	// Chunks is the number of logical PEs (vertex ranges). 0 means 1.
	Chunks uint64
}

func (p Params) chunks() uint64 {
	if p.Chunks == 0 {
		return 1
	}
	return p.Chunks
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.N == 0 || p.D == 0 {
		return fmt.Errorf("ba: n and d must be positive")
	}
	if p.chunks() > p.N {
		return fmt.Errorf("ba: more chunks (%d) than vertices (%d)", p.chunks(), p.N)
	}
	return nil
}

// draw returns the random value of slot k: uniform in [0, 2k].
func draw(seed, k uint64) uint64 {
	r := prng.New(seed, core.TagBA, k)
	return r.UintN(2*k + 1)
}

// Target resolves the endpoint M[2k+1] of edge k by retracing the
// pseudorandom copy chain (the core of the Sanders–Schulz algorithm).
func Target(seed, k, d uint64) uint64 {
	r := draw(seed, k)
	for r%2 == 1 {
		r = draw(seed, (r-1)/2)
	}
	return (r / 2) / d
}

// StreamChunk emits the edges of the chunk's vertex range into e without
// materializing them: d directed edges (v, target) per vertex, where
// self-loops occur with the same (vanishing) frequency as in the
// sequential Batagelj–Brandes algorithm.
func StreamChunk(p Params, chunk uint64, e *core.Emitter) {
	ch := core.Chunking{N: p.N, Chunks: p.chunks()}
	lo, hi := ch.Start(chunk), ch.End(chunk)
	for v := lo; v < hi; v++ {
		for i := uint64(0); i < p.D; i++ {
			k := v*p.D + i
			e.Append(v, Target(p.Seed, k, p.D))
		}
	}
}

// SequentialReference runs the classic Batagelj–Brandes array algorithm
// with the same per-slot draws; used by the tests to validate the
// chain-retracing resolution.
func SequentialReference(p Params) *graph.EdgeList {
	m := p.N * p.D
	arr := make([]uint64, 2*m)
	edges := make([]graph.Edge, 0, m)
	for k := uint64(0); k < m; k++ {
		arr[2*k] = k / p.D
		arr[2*k+1] = arr[draw(p.Seed, k)]
		edges = append(edges, graph.Edge{U: arr[2*k], V: arr[2*k+1]})
	}
	return &graph.EdgeList{N: p.N, Edges: edges}
}
