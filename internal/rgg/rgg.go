// Package rgg implements the communication-free random geometric graph
// generator of the paper (§5) for two and three dimensions.
//
// The unit cube is divided into a power-of-two grid of chunks assigned to
// logical PEs along a Morton (Z-order) curve. Each chunk is subdivided
// into cells of side length at least max(r, n^(-1/d)). Vertex counts are
// distributed over chunks and cells by recursive binomial splitting seeded
// with structural identifiers, and point coordinates are drawn from
// per-cell streams — so a PE can regenerate any border ("ghost") cell of a
// neighbouring chunk bit-identically without communication.
package rgg

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/geometry"
)

// Params configures a random geometric graph.
type Params struct {
	N    uint64  // number of vertices
	R    float64 // connection radius
	Dim  int     // 2 or 3
	Seed uint64
	// Chunks is the number of logical PEs. The chunk grid is the smallest
	// power-of-two grid with at least Chunks cells; chunks are distributed
	// to PEs in Morton order. 0 means 1.
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
	if p.N == 0 {
		return fmt.Errorf("rgg: n must be positive")
	}
	if p.Dim != 2 && p.Dim != 3 {
		return fmt.Errorf("rgg: dim must be 2 or 3, got %d", p.Dim)
	}
	if p.R <= 0 || p.R > 1 {
		return fmt.Errorf("rgg: radius %v outside (0,1]", p.R)
	}
	return nil
}

func (p Params) grid() *Grid {
	return NewGrid(p.N, p.Dim, RGGTarget(p.N, p.Dim, p.R), p.chunks(),
		p.Seed, core.TagRGGCounts, core.TagRGGCell, core.TagRGGPoints)
}

// ghostSet tracks which ghost chunks have been counted towards the
// redundancy statistic: a bitset over the bounded neighbour box of the
// PE's chunk range (own chunks dilated by the cell-stencil reach in
// chunks), replacing the former per-PE map[uint64]bool.
type ghostSet struct {
	g     *Grid
	base  [3]int64
	dims  [3]int64
	words []uint64
}

// reset empties the set and derives the neighbour box of the chunks
// [lo, hi) with a dilation of chunkHalo chunks per side, clamped to the
// chunk grid. The bitset's words are kept from use to use.
func (s *ghostSet) reset(g *Grid, lo, hi uint64, chunkHalo int64) {
	s.g = g
	var bmin, bmax [3]int64
	for i := range bmin {
		bmin[i], bmax[i] = int64(g.ChunkGridDim), -1
	}
	for chunk := lo; chunk < hi; chunk++ {
		cc := geometry.MortonDecode(g.Dim, chunk)
		for i := 0; i < g.Dim; i++ {
			if int64(cc[i]) < bmin[i] {
				bmin[i] = int64(cc[i])
			}
			if int64(cc[i]) > bmax[i] {
				bmax[i] = int64(cc[i])
			}
		}
	}
	for i := 0; i < g.Dim; i++ {
		bmin[i] -= chunkHalo
		bmax[i] += chunkHalo
		if bmin[i] < 0 {
			bmin[i] = 0
		}
		if bmax[i] >= int64(g.ChunkGridDim) {
			bmax[i] = int64(g.ChunkGridDim) - 1
		}
	}
	n := int64(1)
	for i := 0; i < 3; i++ {
		s.base[i] = bmin[i]
		s.dims[i] = 1
		if i < g.Dim {
			s.dims[i] = bmax[i] - bmin[i] + 1
			n *= s.dims[i]
		}
	}
	s.words = slices.Grow(s.words[:0], int((n+63)/64))[:(n+63)/64]
	clear(s.words)
}

// add marks a chunk and reports whether it was newly added.
func (s *ghostSet) add(chunk uint64) bool {
	cc := geometry.MortonDecode(s.g.Dim, chunk)
	idx := int64(0)
	for i := 0; i < s.g.Dim; i++ {
		idx = idx*s.dims[i] + int64(cc[i]) - s.base[i]
	}
	w, b := idx/64, uint64(1)<<(idx%64)
	if s.words[w]&b != 0 {
		return false
	}
	s.words[w] |= b
	return true
}

// scratch is what the package keeps in an Emitter between chunks: the
// grid of the instance last streamed, its cell access (point arena and
// chunk tables, Reset after every chunk) and the ghost set.
type scratch struct {
	p      Params
	g      *Grid
	acc    *CellAccess
	ghosts ghostSet
}

// scratchOf returns the Emitter's scratch for p, replacing whatever the
// Emitter held before if it was not this instance's.
func scratchOf(e *core.Emitter, p Params) *scratch {
	if s, ok := e.Scratch.(*scratch); ok && s.p == p {
		return s
	}
	g := p.grid()
	s := &scratch{p: p, g: g, acc: NewCellAccess(g)}
	e.Scratch = s
	return s
}

// StreamChunk runs one logical PE into e: it generates the vertices of its
// chunks plus the ghost cells of neighbouring chunks and emits every edge
// incident to its local vertices, cell by cell, without materializing the
// chunk edge list. Only the cell arena of the chunk in flight (plus its
// ghost halo) is held; the arena resets between the PE's chunks and is
// kept in e's Scratch for the next call. Undirected edges appear once per
// endpoint across the PEs. The redundant-vertex and comparison counts go
// to e's Work.
func StreamChunk(p Params, peID uint64, e *core.Emitter) {
	s := scratchOf(e, p)
	g, acc, ghosts := s.g, s.acc, &s.ghosts
	lo, hi := g.ChunkRange(peID)

	layers := int64(math.Ceil(p.R / g.CellSide))
	if layers < 1 {
		layers = 1
	}
	r2 := p.R * p.R
	chunkHalo := (layers + int64(g.CellsPerDim) - 1) / int64(g.CellsPerDim)
	ghosts.reset(g, lo, hi, chunkHalo)
	var redundantVertices, comparisons uint64

	for chunk := lo; chunk < hi; chunk++ {
		cellsInChunk := g.CellsPerChunk()
		for ci := uint64(0); ci < cellsInChunk; ci++ {
			cc := g.ChunkCellCoord(chunk, ci)
			own := acc.Cell(cc)
			if len(own) == 0 {
				continue
			}
			var off [3]int64
			visit := func() {
				var nc [3]uint32
				for i := 0; i < p.Dim; i++ {
					v := int64(cc[i]) + off[i]
					if v < 0 || v >= int64(g.GlobalDim) {
						return
					}
					nc[i] = uint32(v)
				}
				pts := acc.Cell(nc)
				neighChunk := g.OwnerChunkOfCell(nc)
				if (neighChunk < lo || neighChunk >= hi) && ghosts.add(neighChunk) {
					redundantVertices += acc.ChunkTotal(neighChunk)
				}
				same := nc == cc
				for i := range own {
					for j := range pts {
						if same && i == j {
							continue
						}
						comparisons++
						if geometry.Dist2(p.Dim, own[i].X, pts[j].X) <= r2 {
							e.Append(own[i].ID, pts[j].ID)
						}
					}
				}
			}
			for dx := -layers; dx <= layers; dx++ {
				off[0] = dx
				for dy := -layers; dy <= layers; dy++ {
					off[1] = dy
					if p.Dim == 2 {
						visit()
						continue
					}
					for dz := -layers; dz <= layers; dz++ {
						off[2] = dz
						visit()
					}
				}
			}
		}
		acc.Reset() // bound memory by one chunk + halo
	}
	e.RedundantVertices += redundantVertices
	e.Comparisons += comparisons
}

// Points returns all generated vertex positions in ID order. Used by
// reference checks.
func Points(p Params) []geometry.Point {
	return p.grid().AllPoints()
}

// ConnectivityRadius returns the radius 0.55 * (ln n / n)^(1/d) used by the
// paper's experiments (§8.4), which keeps the graph connected w.h.p.
func ConnectivityRadius(n uint64, dim int) float64 {
	nf := float64(n)
	return 0.55 * math.Pow(math.Log(nf)/nf, 1/float64(dim))
}
