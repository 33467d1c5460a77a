package rgg

import (
	"math"
	"slices"

	"repro/internal/flat"
	"repro/internal/geometry"
	"repro/internal/prng"
	"repro/internal/sampling"
)

// Grid is the communication-free point-placement machinery shared by the
// spatial generators (RGG §5 and RDG §6): a power-of-two grid of chunks
// assigned along a Morton curve, each subdivided into equal cells, with
// vertex counts distributed by recursive binomial splitting and point
// coordinates drawn from per-cell hash-seeded streams. Any PE can
// recompute any cell of any chunk bit-identically.
type Grid struct {
	N      uint64
	Dim    int
	Seed   uint64
	Chunks uint64 // logical PEs

	ChunkGridDim uint64  // chunks per dimension (power of two)
	NumChunks    uint64  // ChunkGridDim^Dim
	ChunkSide    float64 // 1 / ChunkGridDim
	CellsPerDim  uint64  // cells per chunk per dimension
	CellSide     float64
	GlobalDim    uint64 // ChunkGridDim * CellsPerDim

	tagCounts, tagCells, tagPoints uint64
}

// NewGrid derives the grid for n points in [0,1)^dim with a target cell
// side length, `chunks` logical PEs and a tag triple namespacing the
// random streams (so RGG and RDG point sets are independent).
func NewGrid(n uint64, dim int, target float64, chunks uint64, seed, tagCounts, tagCells, tagPoints uint64) *Grid {
	g := &Grid{N: n, Dim: dim, Seed: seed, Chunks: chunks,
		tagCounts: tagCounts, tagCells: tagCells, tagPoints: tagPoints}
	pow := func(base uint64) uint64 {
		t := base * base
		if dim == 3 {
			t *= base
		}
		return t
	}
	g.ChunkGridDim = 1
	for pow(g.ChunkGridDim) < chunks {
		g.ChunkGridDim *= 2
	}
	g.NumChunks = pow(g.ChunkGridDim)
	g.ChunkSide = 1 / float64(g.ChunkGridDim)

	g.CellsPerDim = uint64(g.ChunkSide / target)
	if g.CellsPerDim < 1 {
		g.CellsPerDim = 1
	}
	g.CellSide = g.ChunkSide / float64(g.CellsPerDim)
	g.GlobalDim = g.ChunkGridDim * g.CellsPerDim
	return g
}

// CellsPerChunk returns the number of cells of one chunk.
func (g *Grid) CellsPerChunk() uint64 {
	c := g.CellsPerDim * g.CellsPerDim
	if g.Dim == 3 {
		c *= g.CellsPerDim
	}
	return c
}

// ChunkRange returns the Morton chunk range [lo, hi) owned by a PE.
func (g *Grid) ChunkRange(pe uint64) (uint64, uint64) {
	return pe * g.NumChunks / g.Chunks, (pe + 1) * g.NumChunks / g.Chunks
}

// ChunkCounts returns the vertex counts of all chunks. O(NumChunks) —
// used only by the reference paths (AllPoints); per-PE code uses
// ChunkRank instead.
func (g *Grid) ChunkCounts() []uint64 {
	return sampling.RecursiveSplitEqual(g.Seed^g.tagCounts, g.N, g.NumChunks, 0, g.NumChunks)
}

// ChunkRank returns the global vertex-ID base (sum of the counts of all
// lower chunks) and the vertex count of one chunk in O(log NumChunks)
// binomial draws, bit-identical to prefix-summing ChunkCounts.
func (g *Grid) ChunkRank(chunk uint64) (idBase, count uint64) {
	return sampling.RecursiveSplitEqualRank(g.Seed^g.tagCounts, g.N, g.NumChunks, chunk)
}

// CellCounts splits a chunk's vertex count over its cells (row-major
// in-chunk order).
func (g *Grid) CellCounts(chunkMorton, count uint64) []uint64 {
	return sampling.RecursiveSplitEqual(g.cellSeed(chunkMorton), count, g.CellsPerChunk(), 0, g.CellsPerChunk())
}

// cellSeed is the seed of a chunk's cell split.
func (g *Grid) cellSeed(chunkMorton uint64) uint64 {
	return prng.HashWords64(g.Seed, g.tagCells, chunkMorton)
}

// ChunkCellCoord converts a chunk Morton index and a row-major in-chunk
// cell index into global cell coordinates.
func (g *Grid) ChunkCellCoord(chunkMorton, cellIdx uint64) [3]uint32 {
	cc := geometry.MortonDecode(g.Dim, chunkMorton)
	var local [3]uint32
	if g.Dim == 3 {
		local[2] = uint32(cellIdx % g.CellsPerDim)
		cellIdx /= g.CellsPerDim
	}
	local[1] = uint32(cellIdx % g.CellsPerDim)
	local[0] = uint32(cellIdx / g.CellsPerDim)
	var out [3]uint32
	for i := 0; i < g.Dim; i++ {
		out[i] = cc[i]*uint32(g.CellsPerDim) + local[i]
	}
	return out
}

// GlobalCellIndex flattens global cell coordinates row-major.
func (g *Grid) GlobalCellIndex(c [3]uint32) uint64 {
	idx := uint64(c[0])
	idx = idx*g.GlobalDim + uint64(c[1])
	if g.Dim == 3 {
		idx = idx*g.GlobalDim + uint64(c[2])
	}
	return idx
}

// CellOrigin returns the lower corner of a cell.
func (g *Grid) CellOrigin(c [3]uint32) [3]float64 {
	var o [3]float64
	for i := 0; i < g.Dim; i++ {
		o[i] = float64(c[i]) * g.CellSide
	}
	return o
}

// OwnerChunkOfCell returns the Morton index of the chunk containing a
// global cell.
func (g *Grid) OwnerChunkOfCell(c [3]uint32) uint64 {
	var cc [3]uint32
	for i := 0; i < g.Dim; i++ {
		cc[i] = c[i] / uint32(g.CellsPerDim)
	}
	return geometry.MortonEncode(g.Dim, cc)
}

// InChunkCellIndex returns the row-major in-chunk index of a global cell.
func (g *Grid) InChunkCellIndex(c [3]uint32) uint64 {
	var local [3]uint64
	for i := 0; i < g.Dim; i++ {
		local[i] = uint64(c[i] % uint32(g.CellsPerDim))
	}
	idx := local[0]*g.CellsPerDim + local[1]
	if g.Dim == 3 {
		idx = idx*g.CellsPerDim + local[2]
	}
	return idx
}

// CellPoints generates the points of one cell from its hash-seeded stream.
func (g *Grid) CellPoints(cellIdx uint64, origin [3]float64, count, idBase uint64) []geometry.Point {
	return g.AppendCellPoints(make([]geometry.Point, 0, count), cellIdx, origin, count, idBase)
}

// AppendCellPoints generates the points of one cell from its hash-seeded
// stream and appends them to dst — the in-place variant backing the cell
// arena. The random stream and the produced points are identical to
// CellPoints. The offset is rounded before the add, so no architecture
// fuses the coordinate into an FMA.
func (g *Grid) AppendCellPoints(dst []geometry.Point, cellIdx uint64, origin [3]float64, count, idBase uint64) []geometry.Point {
	r := prng.New(g.Seed, g.tagPoints, cellIdx)
	for i := uint64(0); i < count; i++ {
		var x [3]float64
		for d := 0; d < g.Dim; d++ {
			x[d] = origin[d] + float64(r.Float64()*g.CellSide)
		}
		dst = append(dst, geometry.Point{X: x, ID: idBase + i})
	}
	return dst
}

// AllPoints returns every point in ID order (chunk Morton order, then
// in-chunk cell order). Used by reference checks.
func (g *Grid) AllPoints() []geometry.Point {
	chunkTotals := g.ChunkCounts()
	var pts []geometry.Point
	var idBase uint64
	for chunk := uint64(0); chunk < g.NumChunks; chunk++ {
		split := g.CellCounts(chunk, chunkTotals[chunk])
		for ci, count := range split {
			cc := g.ChunkCellCoord(chunk, uint64(ci))
			idx := g.GlobalCellIndex(cc)
			pts = append(pts, g.CellPoints(idx, g.CellOrigin(cc), count, idBase)...)
			idBase += count
		}
	}
	return pts
}

// unmaterialized marks a cell whose points have not been written to the
// arena yet (a zero-count cell still gets a real, empty span).
const unmaterialized = ^uint64(0)

// chunkCells is what CellAccess knows of one touched chunk: its rank
// (global ID base and vertex count), the seed of its cell split and, once
// the chunk is dense, its cell table. Entries and tables are recycled
// across Reset cycles, so steady-state chunk materialization allocates
// nothing.
type chunkCells struct {
	chunk    uint64
	idBase   uint64     // global ID of the chunk's first point
	total    uint64     // vertex count of the chunk
	seed     uint64     // seed of the chunk's cell split
	resolved uint64     // cells resolved by rank queries since the chunk was touched
	dense    *cellTable // nil while the chunk is sparse
}

// cellTable is the dense cell table of a chunk: the per-cell ID prefix
// sums (prefix[i+1]-prefix[i] is cell i's count) and the arena span
// offset of every cell.
type cellTable struct {
	prefix []uint64 // len CellsPerChunk+1; in-chunk ID prefix sums
	spans  []uint64 // len CellsPerChunk; arena offsets, or unmaterialized
}

// cellSpan is the arena span of a cell of a sparse chunk.
type cellSpan struct{ off, n uint64 }

// CellAccess materializes cells with globally consistent IDs for the
// per-PE generation loops, paying only for the cells it is asked for.
// Reset(chunk) names the chunk being streamed; that chunk gets a dense
// cell table, built by one recursive split of its vertex count. A cell of
// any other chunk is resolved on first touch by a rank query down the
// same split (O(log cells) draws, memoized so nearby cells share the
// upper levels, and bit-identical to the dense table), so a chunk
// costs its own cells plus the ghost cells its stencil reads rather than a
// full split of every neighbour chunk. A chunk touched at half its cells
// or more turns dense. Chunk ranks are O(log NumChunks) lazy rank queries,
// and all points live in one contiguous arena indexed by cell spans — no
// per-cell slice headers. Reset drops the materialized state but keeps
// the buffers, bounding a streaming PE's memory by one chunk plus its
// halo. Returned point slices alias the arena; they stay valid (the arena
// only appends, and stale backing arrays keep their contents) until the
// next Reset, and must never be mutated.
type CellAccess struct {
	g      *Grid
	cells  uint64 // CellsPerChunk
	arena  []geometry.Point
	chunks map[uint64]*chunkCells
	last   *chunkCells        // most-recently-touched chunk, the hot-path hit
	free   []*chunkCells      // recycled entries for post-Reset reuse
	tables []*cellTable       // recycled dense tables
	sparse flat.Map[cellSpan] // spans of the cells of sparse chunks, by global cell index
	memo   sampling.SplitMemo // the drawn nodes of the sparse chunks' splits, by chunk
}

// NewCellAccess prepares lazy cell access in O(1): no per-chunk state is
// built until a cell of that chunk is requested.
func NewCellAccess(g *Grid) *CellAccess {
	return &CellAccess{g: g, cells: g.CellsPerChunk(), chunks: make(map[uint64]*chunkCells)}
}

// ChunkTotal returns the vertex count of a chunk — from its entry when
// touched, otherwise by a single O(log NumChunks) rank query.
func (a *CellAccess) ChunkTotal(chunk uint64) uint64 {
	if a.last != nil && a.last.chunk == chunk {
		return a.last.total
	}
	if e, ok := a.chunks[chunk]; ok {
		return e.total
	}
	_, count := a.g.ChunkRank(chunk)
	return count
}

// ChunkHaloTotal estimates how many points a chunk plus halo layers of
// neighbouring cells will materialize (torus copies included): the
// chunk's exact count scaled by the cell-box volume ratio, with headroom.
// Consumers use it to pre-size arenas; correctness never depends on it.
func (a *CellAccess) ChunkHaloTotal(chunk uint64, halo uint64) int {
	total := float64(a.ChunkTotal(chunk))
	c := float64(a.g.CellsPerDim)
	ratio := (c + 2*float64(halo)) / c
	f := ratio * ratio
	if a.g.Dim == 3 {
		f *= ratio
	}
	return int(1.1*total*f) + 64
}

// Reserve grows the point arena so the next n materialized points append
// without reallocation. Existing cell spans stay valid: they are offsets
// into the arena, which is copied, and previously returned slices keep
// aliasing the old backing array (same contract as append growth).
func (a *CellAccess) Reserve(n int) {
	if cap(a.arena)-len(a.arena) < n {
		next := make([]geometry.Point, len(a.arena), len(a.arena)+n)
		copy(next, a.arena)
		a.arena = next
	}
}

// chunkFor returns the entry of a chunk, touching it (rank query only, no
// cell table) on first use.
func (a *CellAccess) chunkFor(chunk uint64) *chunkCells {
	if a.last != nil && a.last.chunk == chunk {
		return a.last
	}
	if e, ok := a.chunks[chunk]; ok {
		a.last = e
		return e
	}
	var e *chunkCells
	if n := len(a.free); n > 0 {
		e = a.free[n-1]
		a.free = a.free[:n-1]
	} else {
		e = &chunkCells{}
		// Room to recycle every entry made so far (all are in chunks while
		// free is empty), so Reset never grows the list.
		a.free = slices.Grow(a.free, len(a.chunks)+1)
	}
	e.chunk, e.resolved = chunk, 0
	e.idBase, e.total = a.g.ChunkRank(chunk)
	e.seed = a.g.cellSeed(chunk)
	a.chunks[chunk] = e
	a.last = e
	return e
}

// densify builds the dense cell table of a chunk by one full split. Cells
// already resolved by rank queries keep their arena spans.
func (a *CellAccess) densify(e *chunkCells) {
	cells := a.cells
	var t *cellTable
	if n := len(a.tables); n > 0 {
		t = a.tables[n-1]
		a.tables = a.tables[:n-1]
	} else {
		t = &cellTable{prefix: make([]uint64, cells+1), spans: make([]uint64, cells)}
		// Every table made so far belongs to an entry in chunks.
		a.tables = slices.Grow(a.tables, len(a.chunks))
	}
	// Cell split into prefix[1:], then accumulate in place.
	sampling.RecursiveSplitEqualInto(e.seed, e.total, cells, 0, cells, t.prefix[1:])
	t.prefix[0] = 0
	for i := uint64(0); i < cells; i++ {
		t.prefix[i+1] += t.prefix[i]
		t.spans[i] = unmaterialized
	}
	if e.resolved > 0 {
		for i := uint64(0); i < cells; i++ {
			if s, ok := a.sparse.Get(a.g.GlobalCellIndex(a.g.ChunkCellCoord(e.chunk, i)), 0); ok {
				t.spans[i] = s.off
			}
		}
	}
	e.dense = t
}

// Cell returns the points of a global cell coordinate, materializing them
// into the arena on first access.
func (a *CellAccess) Cell(c [3]uint32) []geometry.Point {
	pts, _ := a.cell(c)
	return pts
}

// cell is Cell, also reporting whether this call materialized the points.
func (a *CellAccess) cell(c [3]uint32) ([]geometry.Point, bool) {
	e := a.chunkFor(a.g.OwnerChunkOfCell(c))
	inIdx := a.g.InChunkCellIndex(c)
	if e.dense != nil {
		return a.denseCell(e.dense, e.idBase, inIdx, c)
	}
	idx := a.g.GlobalCellIndex(c)
	if s, ok := a.sparse.Get(idx, 0); ok {
		return a.arena[s.off : s.off+s.n : s.off+s.n], false
	}
	before, count := a.memo.Rank(e.chunk, e.seed, e.total, a.cells, inIdx)
	off := uint64(len(a.arena))
	a.arena = a.g.AppendCellPoints(a.arena, idx, a.g.CellOrigin(c), count, e.idBase+before)
	a.sparse.Put(idx, 0, cellSpan{off, count})
	if e.resolved++; 2*e.resolved >= a.cells {
		a.densify(e)
	}
	return a.arena[off : off+count : off+count], true
}

// denseCell returns cell inIdx (global coordinate c) of the chunk whose
// dense table is t and whose first point has ID idBase, materializing it
// on first access, and reports whether it did.
func (a *CellAccess) denseCell(t *cellTable, idBase, inIdx uint64, c [3]uint32) ([]geometry.Point, bool) {
	count := t.prefix[inIdx+1] - t.prefix[inIdx]
	if off := t.spans[inIdx]; off != unmaterialized {
		return a.arena[off : off+count : off+count], false
	}
	off := uint64(len(a.arena))
	a.arena = a.g.AppendCellPoints(a.arena, a.g.GlobalCellIndex(c), a.g.CellOrigin(c), count, idBase+t.prefix[inIdx])
	t.spans[inIdx] = off
	return a.arena[off : off+count : off+count], true
}

// CellTorus returns the cell at possibly out-of-range global cell
// coordinates, wrapped around the torus: the points carry the original
// IDs but positions shifted by the wrap offset. Shifted copies are
// written to the arena (one append per visit, no fresh slice); unshifted
// coordinates return the canonical cell. Used by the RDG halo.
func (a *CellAccess) CellTorus(coord [3]int64) []geometry.Point {
	var cc [3]uint32
	var shift [3]float64
	gd := int64(a.g.GlobalDim)
	for i := 0; i < a.g.Dim; i++ {
		c := coord[i]
		switch {
		case c < 0:
			c += gd
			shift[i] = -1
		case c >= gd:
			c -= gd
			shift[i] = 1
		}
		cc[i] = uint32(c)
	}
	base := a.Cell(cc)
	if shift == [3]float64{} {
		return base
	}
	off := len(a.arena)
	a.arena = append(a.arena, base...)
	out := a.arena[off : off+len(base) : off+len(base)]
	for i := range out {
		for d := 0; d < a.g.Dim; d++ {
			out[i].X[d] += shift[d]
		}
	}
	return out
}

// Reset drops every materialized cell and touched chunk, empties the
// arena while keeping every buffer for reuse, and makes chunk the dense
// chunk: the one whose cells are about to be streamed. Called when a
// streaming PE starts each of its chunks, so its live memory stays
// bounded by one chunk plus halo; regenerating a previously dropped cell
// is bit-identical by construction.
func (a *CellAccess) Reset(chunk uint64) {
	for _, e := range a.chunks {
		if e.dense != nil {
			a.tables = append(a.tables, e.dense)
			e.dense = nil
		}
		a.free = append(a.free, e)
	}
	clear(a.chunks)
	a.sparse.Clear()
	a.memo.Reset()
	a.last = nil
	a.arena = a.arena[:0]
	a.densify(a.chunkFor(chunk))
}

// RGGTarget is the cell-side target of the RGG generator (§5):
// max(r, n^(-1/d)).
func RGGTarget(n uint64, dim int, r float64) float64 {
	return math.Max(r, math.Pow(float64(n), -1/float64(dim)))
}

// RDGTarget is the cell-side target of the RDG generator (§6): the mean
// distance of the (d+1)-th nearest neighbour, ((d+1)/n)^(1/d).
func RDGTarget(n uint64, dim int) float64 {
	return math.Pow(float64(dim+1)/float64(n), 1/float64(dim))
}
