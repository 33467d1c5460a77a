// Package rdg implements the communication-free random Delaunay graph
// generator of the paper (§6) for two and three dimensions with periodic
// (torus) boundary conditions.
//
// Points are placed exactly like the RGG generator but with cell side
// target ((d+1)/n)^(1/d), the mean distance of the (d+1)-th nearest
// neighbour. Each PE triangulates its chunk plus a halo of neighbouring
// cells (regenerated from their seeds, wrapping around the torus with
// coordinate offsets in {-1,0,1}) and grows the halo until the
// circumsphere of every simplex incident to an interior point lies inside
// the generated region — the convergence criterion of §6.
package rdg

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/delaunay"
	"repro/internal/geometry"
	"repro/internal/rgg"
)

// Params configures a random Delaunay graph.
type Params struct {
	N    uint64 // number of vertices
	Dim  int    // 2 or 3
	Seed uint64
	// Chunks is the number of logical PEs (chunk grid as in the RGG
	// generator). 0 means 1.
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
	if p.N < uint64(p.Dim)+2 {
		return fmt.Errorf("rdg: need at least dim+2 points")
	}
	if p.Dim != 2 && p.Dim != 3 {
		return fmt.Errorf("rdg: dim must be 2 or 3, got %d", p.Dim)
	}
	return nil
}

func (p Params) grid() *rgg.Grid {
	return rgg.NewGrid(p.N, p.Dim, rgg.RDGTarget(p.N, p.Dim), p.chunks(),
		p.Seed, core.TagRDGCell+1, core.TagRDGCell+2, core.TagRDGCell+3)
}

// scratch is what the package keeps in an Emitter between chunks: the
// grid of the instance last streamed, its cell access (point arena and
// chunk tables, Reset at every chunk) and the triangulation scratch.
type scratch struct {
	p   Params
	g   *rgg.Grid
	acc *rgg.CellAccess
	tri triScratch
}

// scratchOf returns the Emitter's scratch for p, replacing whatever the
// Emitter held before if it was not this instance's.
func scratchOf(e *core.Emitter, p Params) *scratch {
	if s, ok := e.Scratch.(*scratch); ok && s.p == p {
		return s
	}
	g := p.grid()
	s := &scratch{p: p, g: g, acc: rgg.NewCellAccess(g)}
	e.Scratch = s
	return s
}

// StreamChunk runs one logical PE into e: for each of its chunks it
// computes the Delaunay triangulation of the chunk plus an adaptively
// grown halo and emits the triangulation edges incident to chunk-owned
// points, before the next chunk's triangulation is built — so at most one
// triangulation (chunk + converged halo) is alive at a time. The cell
// arena, the triangulation's stores and the emission dedup state live in
// e's Scratch and are reused from chunk to chunk. Undirected edges appear
// once per endpoint across the PEs. The redundant-vertex and
// halo-expansion counts go to e's Work.
func StreamChunk(p Params, peID uint64, e *core.Emitter) {
	s := scratchOf(e, p)
	lo, hi := s.g.ChunkRange(peID)
	for chunk := lo; chunk < hi; chunk++ {
		s.acc.Reset(chunk) // bound memory by one chunk + converged halo
		triangulateChunk(p, s.g, s.acc, chunk, &s.tri, e)
	}
}

// pair is one directed emission key of the per-chunk dedup.
type pair struct{ u, v uint64 }

// triScratch pools the Delaunay layer's per-chunk state across a PE's
// chunks: the simplex stores (via T2/T3 Reset), the triangulation-index
// to point-ID maps, and the emitted-pair dedup set. Reuse changes no
// observable behaviour — a Reset triangulation inserts bit-identically to
// a fresh one, and the dedup map is only ever queried point-wise.
type triScratch struct {
	t2    *delaunay.T2
	t3    *delaunay.T3
	idOf  []uint64
	isInt []bool
	seen  map[pair]bool
}

func triangulateChunk(p Params, g *rgg.Grid, acc *rgg.CellAccess, chunk uint64, scratch *triScratch, e *core.Emitter) {
	dim := p.Dim
	// Chunk cell bounding box in global cell coordinates.
	first := g.ChunkCellCoord(chunk, 0)
	var cellLo, cellHi [3]int64 // inclusive box of the chunk's cells
	for i := 0; i < dim; i++ {
		cellLo[i] = int64(first[i])
		cellHi[i] = int64(first[i]) + int64(g.CellsPerDim) - 1
	}

	// Insert boxes strictly nest as the halo grows, so "cell already
	// inserted" is exactly "inside the previously inserted box" — no
	// per-cell set needed.
	havePrev := false
	var prevLo, prevHi [3]int64

	// Expected chunk+halo point count (with one expansion of headroom):
	// sizes the cell arena, the simplex arenas, and the dedup scratch so
	// the steady state — and in the common converged-at-first-halo case
	// even the first chunk — allocates nothing beyond the initial arenas.
	expPts := acc.ChunkHaloTotal(chunk, 2)
	acc.Reserve(expPts)

	var t2 *delaunay.T2
	var t3 *delaunay.T3
	if dim == 2 {
		if scratch.t2 == nil {
			scratch.t2 = delaunay.NewT2(expPts)
		} else {
			scratch.t2.Reset()
		}
		t2 = scratch.t2
	} else {
		if scratch.t3 == nil {
			scratch.t3 = delaunay.NewT3(expPts)
		} else {
			scratch.t3.Reset()
		}
		t3 = scratch.t3
	}
	// idOf maps triangulation indices to original point IDs; isInt marks
	// the chunk-owned instances (a wrapped periodic copy of an interior
	// point is NOT interior — only the original position is).
	if cap(scratch.idOf) < expPts+4 {
		scratch.idOf = make([]uint64, 0, expPts+4)
		scratch.isInt = make([]bool, 0, expPts+4)
	}
	idOf := scratch.idOf[:0]
	isInt := scratch.isInt[:0]
	superCount := 3
	if dim == 3 {
		superCount = 4
	}
	for i := 0; i < superCount; i++ {
		idOf = append(idOf, ^uint64(0))
		isInt = append(isInt, false)
	}

	insertBox := func(blo, bhi [3]int64, isInterior func([3]int64) bool) {
		inPrev := func(c [3]int64) bool {
			if !havePrev {
				return false
			}
			for i := 0; i < dim; i++ {
				if c[i] < prevLo[i] || c[i] > prevHi[i] {
					return false
				}
			}
			return true
		}
		var it func(d int, c [3]int64)
		it = func(d int, c [3]int64) {
			if d == dim {
				if inPrev(c) {
					return
				}
				pts := acc.CellTorus(c)
				inCore := isInterior(c)
				if !inCore {
					e.RedundantVertices += uint64(len(pts))
				}
				for _, pt := range pts {
					if dim == 2 {
						t2.Insert([2]float64{pt.X[0], pt.X[1]})
					} else {
						t3.Insert(pt.X)
					}
					idOf = append(idOf, pt.ID)
					isInt = append(isInt, inCore)
				}
				return
			}
			for v := blo[d]; v <= bhi[d]; v++ {
				c[d] = v
				it(d+1, c)
			}
		}
		it(0, [3]int64{})
		prevLo, prevHi, havePrev = blo, bhi, true
	}

	inChunk := func(c [3]int64) bool {
		for i := 0; i < dim; i++ {
			if c[i] < cellLo[i] || c[i] > cellHi[i] {
				return false
			}
		}
		return true
	}

	// Start with the chunk plus one halo layer.
	halo := int64(1)
	var blo, bhi [3]int64
	for i := 0; i < dim; i++ {
		blo[i] = cellLo[i] - halo
		bhi[i] = cellHi[i] + halo
	}
	insertBox(blo, bhi, inChunk)

	// Maximum halo: one full wrap in every direction (offsets stay within
	// {-1, 0, 1}).
	maxHalo := int64(g.GlobalDim)

	var boxLo, boxHi [3]float64
	for {
		// Convergence: every simplex with an interior vertex must have its
		// circumsphere inside the generated box.
		for i := 0; i < dim; i++ {
			boxLo[i] = float64(blo[i]) * g.CellSide
			boxHi[i] = float64(bhi[i]+1) * g.CellSide
		}
		ok := true
		contains2 := func(cx, cy, r2 float64) bool {
			r := sqrt(r2)
			return cx-r >= boxLo[0] && cx+r <= boxHi[0] && cy-r >= boxLo[1] && cy+r <= boxHi[1]
		}
		isInterior := func(v int32) bool {
			return isInt[v]
		}
		if dim == 2 {
			// A triangle incident to an interior point must neither touch
			// the artificial bounding triangle (the paper's convex-hull
			// condition) nor have a circumcircle leaving the generated box.
			for ti := range t2.Tris {
				if !ok {
					break
				}
				if t2.Dead(ti) {
					continue
				}
				v := t2.Tris[ti].V
				if !isInterior(v[0]) && !isInterior(v[1]) && !isInterior(v[2]) {
					continue
				}
				if isSuperIdx(2, v[0]) || isSuperIdx(2, v[1]) || isSuperIdx(2, v[2]) {
					ok = false
					break
				}
				cx, cy, r2 := t2.Circumcircle(v[0], v[1], v[2])
				if !contains2(cx, cy, r2) {
					ok = false
				}
			}
		} else {
			for ti := range t3.Tets {
				if !ok {
					break
				}
				if t3.Dead(ti) {
					continue
				}
				v := t3.Tets[ti].V
				if !isInterior(v[0]) && !isInterior(v[1]) && !isInterior(v[2]) && !isInterior(v[3]) {
					continue
				}
				if isSuperIdx(3, v[0]) || isSuperIdx(3, v[1]) || isSuperIdx(3, v[2]) || isSuperIdx(3, v[3]) {
					ok = false
					break
				}
				c, r2 := t3.Circumsphere(v)
				r := sqrt(r2)
				for i := 0; i < dim; i++ {
					if c[i]-r < boxLo[i] || c[i]+r > boxHi[i] {
						ok = false
						break
					}
				}
			}
		}
		if ok || halo >= maxHalo {
			break
		}
		// Expand by one layer and insert the new ring of cells.
		halo++
		e.Comparisons++ // counts halo expansions for diagnostics
		var nlo, nhi [3]int64
		for i := 0; i < dim; i++ {
			nlo[i] = cellLo[i] - halo
			nhi[i] = cellHi[i] + halo
		}
		insertBox(nlo, nhi, inChunk) // the nested-box check skips the previous box's cells
		blo, bhi = nlo, nhi
	}

	// Emit edges incident to interior points (deduplicated per original
	// pair; periodic copies of the same pair collapse). Only edges of
	// fully real simplices count — simplices touching the artificial
	// bounding vertices are never part of the converged region.
	if scratch.seen == nil {
		// Both directed keys of every interior-incident edge land here:
		// ~2 * mean-degree * chunk points, sized up front so emission does
		// not regrow the table.
		deg := 6.0
		if dim == 3 {
			deg = 15.54
		}
		scratch.seen = make(map[pair]bool, int(2.4*deg*float64(acc.ChunkTotal(chunk)))+64)
	} else {
		clear(scratch.seen)
	}
	seen := scratch.seen
	emitPair := func(a, b int32) {
		u, v := idOf[a], idOf[b]
		if u == v {
			return // an edge between a point and its own periodic copy
		}
		if isInt[a] && !seen[pair{u, v}] {
			seen[pair{u, v}] = true
			e.Append(u, v)
		}
		if isInt[b] && !seen[pair{v, u}] {
			seen[pair{v, u}] = true
			e.Append(v, u)
		}
	}
	if dim == 2 {
		t2.Triangles(func(v0, v1, v2 int32) {
			emitPair(v0, v1)
			emitPair(v1, v2)
			emitPair(v0, v2)
		})
	} else {
		t3.Tetrahedra(func(v [4]int32) {
			for i := 0; i < 4; i++ {
				for j := i + 1; j < 4; j++ {
					emitPair(v[i], v[j])
				}
			}
		})
	}
	// Hand the (possibly regrown) index slices back for the next chunk.
	scratch.idOf, scratch.isInt = idOf, isInt
}

func isSuperIdx(dim int, v int32) bool {
	if dim == 2 {
		return v < 3
	}
	return v < 4
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}

// Points returns all generated vertex positions in ID order.
func Points(p Params) []geometry.Point {
	return p.grid().AllPoints()
}
