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

// scratch is what the package keeps in an Emitter between chunks: the
// grid of the instance last streamed, its cell access (point arena and
// chunk tables, Reset at every chunk) and the cell stencil.
type scratch struct {
	p      Params
	g      *Grid
	acc    *CellAccess
	layers int64      // stencil reach in cells
	offs   [][3]int64 // stencil offsets, in emission order
	deltas []int64    // in-chunk cell-index step of each offset
}

// scratchOf returns the Emitter's scratch for p, replacing whatever the
// Emitter held before if it was not this instance's.
func scratchOf(e *core.Emitter, p Params) *scratch {
	if s, ok := e.Scratch.(*scratch); ok && s.p == p {
		return s
	}
	g := p.grid()
	s := &scratch{p: p, g: g, acc: NewCellAccess(g)}
	s.layers = int64(math.Ceil(p.R / g.CellSide))
	if s.layers < 1 {
		s.layers = 1
	}
	c := int64(g.CellsPerDim)
	for dx := -s.layers; dx <= s.layers; dx++ {
		for dy := -s.layers; dy <= s.layers; dy++ {
			if p.Dim == 2 {
				s.offs = append(s.offs, [3]int64{dx, dy})
				s.deltas = append(s.deltas, dx*c+dy)
				continue
			}
			for dz := -s.layers; dz <= s.layers; dz++ {
				s.offs = append(s.offs, [3]int64{dx, dy, dz})
				s.deltas = append(s.deltas, (dx*c+dy)*c+dz)
			}
		}
	}
	e.Scratch = s
	return s
}

// StreamChunk runs one logical PE into e: it generates the vertices of its
// chunks plus the ghost cells of neighbouring chunks and emits every edge
// incident to its local vertices, cell by cell, without materializing the
// chunk edge list. Only the cell arena of the chunk in flight (plus the
// ghost cells its stencil reads) is held; the arena resets as each of the
// PE's chunks starts and is kept in e's Scratch for the next call. An
// interior cell, whose stencil stays inside its chunk, finds its
// neighbours by in-chunk index arithmetic; only cells within the stencil
// reach of the chunk border look neighbours up by global coordinate.
// Undirected edges appear once per endpoint across the PEs. The redundant
// vertices (points of ghost cells outside the PE's chunks, each time one
// is generated) and the comparison count go to e's Work.
func StreamChunk(p Params, peID uint64, e *core.Emitter) {
	s := scratchOf(e, p)
	g, acc, layers := s.g, s.acc, s.layers
	lo, hi := g.ChunkRange(peID)
	r2 := p.R * p.R
	c := int64(g.CellsPerDim)
	gd := int64(g.GlobalDim)
	var redundantVertices, comparisons uint64

	// pairs emits the edges between the points of an own cell and a
	// neighbour cell.
	pairs := func(own, pts []geometry.Point, same bool) {
		n := uint64(len(own)) * uint64(len(pts))
		if same {
			n -= uint64(len(own))
		}
		comparisons += n
		if p.Dim == 2 {
			pairs2(e, own, pts, same, r2)
		} else {
			pairs3(e, own, pts, same, r2)
		}
	}

	for chunk := lo; chunk < hi; chunk++ {
		acc.Reset(chunk)
		ch := acc.chunkFor(chunk)
		dense, idBase := ch.dense, ch.idBase
		base := g.ChunkCellCoord(chunk, 0)
		for ci := uint64(0); ci < acc.cells; ci++ {
			var local [3]int64
			if p.Dim == 2 {
				local[0], local[1] = int64(ci)/c, int64(ci)%c
			} else {
				local[0], local[1], local[2] = int64(ci)/(c*c), int64(ci)/c%c, int64(ci)%c
			}
			var cc [3]uint32
			interior := true
			for i := 0; i < p.Dim; i++ {
				cc[i] = base[i] + uint32(local[i])
				interior = interior && local[i] >= layers && local[i] < c-layers
			}
			own, _ := acc.denseCell(dense, idBase, ci, cc)
			if len(own) == 0 {
				continue
			}
			if interior {
				for k, off := range s.offs {
					nc := [3]uint32{uint32(int64(cc[0]) + off[0]), uint32(int64(cc[1]) + off[1]), uint32(int64(cc[2]) + off[2])}
					pts, _ := acc.denseCell(dense, idBase, uint64(int64(ci)+s.deltas[k]), nc)
					pairs(own, pts, off == [3]int64{})
				}
				continue
			}
		stencil:
			for _, off := range s.offs {
				var nc [3]uint32
				for i := 0; i < p.Dim; i++ {
					v := int64(cc[i]) + off[i]
					if v < 0 || v >= gd {
						continue stencil
					}
					nc[i] = uint32(v)
				}
				pts, fresh := acc.cell(nc)
				if fresh {
					if oc := g.OwnerChunkOfCell(nc); oc < lo || oc >= hi {
						redundantVertices += uint64(len(pts))
					}
				}
				pairs(own, pts, off == [3]int64{})
			}
		}
	}
	e.RedundantVertices += redundantVertices
	e.Comparisons += comparisons
}

// pairs2 emits (own[i], pts[j]) for every pair of two-dimensional points
// at distance at most r (r2 = r*r), skipping i == j when own and pts are
// the same cell. Each squared term is rounded on its own — float64(d*d) —
// so no architecture fuses the sum into an FMA, and the sum is
// geometry.Dist2's bit for bit.
func pairs2(e *core.Emitter, own, pts []geometry.Point, same bool, r2 float64) {
	for i := range own {
		x, y, id := own[i].X[0], own[i].X[1], own[i].ID
		for j := range pts {
			q := &pts[j]
			dx, dy := x-q.X[0], y-q.X[1]
			if float64(dx*dx)+float64(dy*dy) <= r2 && (!same || i != j) {
				e.Append(id, q.ID)
			}
		}
	}
}

// pairs3 is pairs2 in three dimensions.
func pairs3(e *core.Emitter, own, pts []geometry.Point, same bool, r2 float64) {
	for i := range own {
		x, y, z, id := own[i].X[0], own[i].X[1], own[i].X[2], own[i].ID
		for j := range pts {
			q := &pts[j]
			dx, dy, dz := x-q.X[0], y-q.X[1], z-q.X[2]
			if float64(dx*dx)+float64(dy*dy)+float64(dz*dz) <= r2 && (!same || i != j) {
				e.Append(id, q.ID)
			}
		}
	}
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
