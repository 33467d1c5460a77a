package rgg

import (
	"testing"

	"repro/internal/core"
	"repro/internal/geometry"
)

// mapCellAccess is the former map-backed CellAccess, kept here as the
// reference the arena-backed implementation must match pointwise.
type mapCellAccess struct {
	g           *Grid
	chunkTotals []uint64
	idPrefix    []uint64
	splitCache  map[uint64][]uint64
	prefixCache map[uint64][]uint64
	cellCache   map[uint64][]geometry.Point
}

func newMapCellAccess(g *Grid) *mapCellAccess {
	a := &mapCellAccess{
		g:           g,
		chunkTotals: g.ChunkCounts(),
		splitCache:  map[uint64][]uint64{},
		prefixCache: map[uint64][]uint64{},
		cellCache:   map[uint64][]geometry.Point{},
	}
	a.idPrefix = make([]uint64, g.NumChunks+1)
	for i := uint64(0); i < g.NumChunks; i++ {
		a.idPrefix[i+1] = a.idPrefix[i] + a.chunkTotals[i]
	}
	return a
}

func (a *mapCellAccess) split(chunk uint64) []uint64 {
	if s, ok := a.splitCache[chunk]; ok {
		return s
	}
	s := a.g.CellCounts(chunk, a.chunkTotals[chunk])
	a.splitCache[chunk] = s
	return s
}

func (a *mapCellAccess) prefix(chunk uint64) []uint64 {
	if s, ok := a.prefixCache[chunk]; ok {
		return s
	}
	split := a.split(chunk)
	pre := make([]uint64, len(split)+1)
	for i, c := range split {
		pre[i+1] = pre[i] + c
	}
	a.prefixCache[chunk] = pre
	return pre
}

func (a *mapCellAccess) Cell(c [3]uint32) []geometry.Point {
	idx := a.g.GlobalCellIndex(c)
	if pts, ok := a.cellCache[idx]; ok {
		return pts
	}
	chunk := a.g.OwnerChunkOfCell(c)
	inIdx := a.g.InChunkCellIndex(c)
	count := a.split(chunk)[inIdx]
	idBase := a.idPrefix[chunk] + a.prefix(chunk)[inIdx]
	pts := a.g.CellPoints(idx, a.g.CellOrigin(c), count, idBase)
	a.cellCache[idx] = pts
	return pts
}

func testGrids() []*Grid {
	return []*Grid{
		NewGrid(2000, 2, RGGTarget(2000, 2, 0.05), 4, 1, core.TagRGGCounts, core.TagRGGCell, core.TagRGGPoints),
		NewGrid(1500, 2, RGGTarget(1500, 2, 0.02), 16, 7, core.TagRGGCounts, core.TagRGGCell, core.TagRGGPoints),
		NewGrid(900, 3, RGGTarget(900, 3, 0.15), 8, 3, core.TagRGGCounts, core.TagRGGCell, core.TagRGGPoints),
		NewGrid(1200, 2, RDGTarget(1200, 2), 9, 5, core.TagRDGCell+1, core.TagRDGCell+2, core.TagRDGCell+3),
	}
}

func samePoints(a, b []geometry.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].X != b[i].X {
			return false
		}
	}
	return true
}

// TestArenaMatchesMapAccess: the arena-backed CellAccess returns
// pointwise-identical cells (IDs and coordinates) to the map-backed
// reference, for every cell of every chunk.
func TestArenaMatchesMapAccess(t *testing.T) {
	for gi, g := range testGrids() {
		want := newMapCellAccess(g)
		got := NewCellAccess(g)
		for chunk := uint64(0); chunk < g.NumChunks; chunk++ {
			for ci := uint64(0); ci < g.CellsPerChunk(); ci++ {
				cc := g.ChunkCellCoord(chunk, ci)
				if !samePoints(want.Cell(cc), got.Cell(cc)) {
					t.Fatalf("grid %d chunk %d cell %d: arena cell differs from map cell", gi, chunk, ci)
				}
			}
			if got.ChunkTotal(chunk) != want.chunkTotals[chunk] {
				t.Fatalf("grid %d chunk %d: total %d, want %d", gi, chunk, got.ChunkTotal(chunk), want.chunkTotals[chunk])
			}
		}
	}
}

// TestArenaResetRegenerates: dropping the arena between chunks and
// re-querying a cell reproduces it bit-identically, and ChunkTotal stays
// available without materialized state.
func TestArenaResetRegenerates(t *testing.T) {
	g := testGrids()[1]
	acc := NewCellAccess(g)
	var snap [][]geometry.Point
	for chunk := uint64(0); chunk < g.NumChunks; chunk++ {
		cc := g.ChunkCellCoord(chunk, 0)
		pts := acc.Cell(cc)
		cp := make([]geometry.Point, len(pts))
		copy(cp, pts)
		snap = append(snap, cp)
	}
	totals := g.ChunkCounts()
	acc.Reset(g.NumChunks / 2)
	for chunk := uint64(0); chunk < g.NumChunks; chunk++ {
		if acc.ChunkTotal(chunk) != totals[chunk] {
			t.Fatalf("chunk %d: total after reset %d, want %d", chunk, acc.ChunkTotal(chunk), totals[chunk])
		}
	}
	for chunk := uint64(0); chunk < g.NumChunks; chunk++ {
		cc := g.ChunkCellCoord(chunk, 0)
		if !samePoints(acc.Cell(cc), snap[chunk]) {
			t.Fatalf("chunk %d: regenerated cell differs after Reset", chunk)
		}
	}
}

// TestCellTorusWrap: out-of-range coordinates wrap around the torus with
// the expected ±1 position shift and unchanged IDs; in-range coordinates
// return the canonical cell.
func TestCellTorusWrap(t *testing.T) {
	g := testGrids()[3]
	acc := NewCellAccess(g)
	gd := int64(g.GlobalDim)
	base := acc.Cell([3]uint32{0, 1, 0})
	wrapped := acc.CellTorus([3]int64{gd, 1, 0})
	if len(wrapped) != len(base) {
		t.Fatalf("wrapped cell has %d points, want %d", len(wrapped), len(base))
	}
	for i := range base {
		if wrapped[i].ID != base[i].ID {
			t.Fatalf("point %d: wrapped ID %d, want %d", i, wrapped[i].ID, base[i].ID)
		}
		if wrapped[i].X[0] != base[i].X[0]+1 || wrapped[i].X[1] != base[i].X[1] {
			t.Fatalf("point %d: wrapped position %v, base %v", i, wrapped[i].X, base[i].X)
		}
	}
	// In-range coordinates must alias the canonical cell verbatim.
	if !samePoints(acc.CellTorus([3]int64{0, 1, 0}), base) {
		t.Fatal("in-range CellTorus differs from Cell")
	}
}

// TestChunkRankMatchesCounts: the O(log P) rank query agrees with the
// full ChunkCounts prefix sums on every chunk.
func TestChunkRankMatchesCounts(t *testing.T) {
	for gi, g := range testGrids() {
		counts := g.ChunkCounts()
		var before uint64
		for chunk := uint64(0); chunk < g.NumChunks; chunk++ {
			idBase, count := g.ChunkRank(chunk)
			if idBase != before || count != counts[chunk] {
				t.Fatalf("grid %d chunk %d: rank (%d, %d), want (%d, %d)",
					gi, chunk, idBase, count, before, counts[chunk])
			}
			before += counts[chunk]
		}
	}
}

// TestSparseMatchesDense: a cell resolved by its own rank query holds the
// same points (count, coordinates and IDs) as the same cell read from its
// chunk's dense table, for every cell of several chunks. Touching every
// cell of a sparse chunk turns it dense without materializing any cell
// twice.
func TestSparseMatchesDense(t *testing.T) {
	for gi, g := range testGrids() {
		dense, sparse := NewCellAccess(g), NewCellAccess(g)
		for _, chunk := range []uint64{0, g.NumChunks / 2, g.NumChunks - 1} {
			other := (chunk + 1) % g.NumChunks
			dense.Reset(chunk)
			for ci := uint64(0); ci < g.CellsPerChunk(); ci++ {
				cc := g.ChunkCellCoord(chunk, ci)
				sparse.Reset(other)
				got, fresh := sparse.cell(cc)
				if e := sparse.chunks[chunk]; !fresh || e.resolved != 1 {
					t.Fatalf("grid %d chunk %d cell %d: not resolved by a rank query", gi, chunk, ci)
				}
				if want := dense.Cell(cc); !samePoints(got, want) {
					t.Fatalf("grid %d chunk %d cell %d: sparse cell %v, dense %v", gi, chunk, ci, got, want)
				}
			}

			sparse.Reset(other)
			first := make([][]geometry.Point, g.CellsPerChunk())
			for ci := range first {
				pts, fresh := sparse.cell(g.ChunkCellCoord(chunk, uint64(ci)))
				if !fresh {
					t.Fatalf("grid %d chunk %d cell %d: first touch not fresh", gi, chunk, ci)
				}
				first[ci] = pts
			}
			if sparse.chunks[chunk].dense == nil {
				t.Fatalf("grid %d chunk %d: all %d cells touched, chunk still sparse", gi, chunk, len(first))
			}
			for ci := range first {
				pts, fresh := sparse.cell(g.ChunkCellCoord(chunk, uint64(ci)))
				if fresh || !samePoints(pts, first[ci]) {
					t.Fatalf("grid %d chunk %d cell %d: second touch fresh=%v or points differ", gi, chunk, ci, fresh)
				}
			}
		}
	}
}
