package rgg

import (
	"math"

	"repro/internal/geometry"
	"repro/internal/graph"
)

// GenerateChunkBatched is the CPU realization of the three-phase GPGPU
// edge pipeline of §5.3: a first pass over all cell pairs only *counts*
// edges, a prefix sum over the counts allocates one exact-size edge array
// with per-pair offsets, and a second pass re-evaluates the comparisons
// and writes the edges into their slots. On a GPU the first and third
// phases are the data-parallel kernels and the prefix sum sizes the device
// allocation; on the CPU the benefit is a single exact allocation instead
// of append growth. The emitted edge multiset is identical to
// StreamChunk (TestBatchedMatchesStandard). It lives with the tests:
// nothing in production runs it.
func GenerateChunkBatched(p Params, peID uint64) chunkResult {
	g := p.grid()
	acc := NewCellAccess(g)
	var res chunkResult
	lo, hi := g.ChunkRange(peID)

	layers := int64(math.Ceil(p.R / g.CellSide))
	if layers < 1 {
		layers = 1
	}
	r2 := p.R * p.R

	type pairTask struct {
		own, neigh [3]uint32
		same       bool
	}
	var tasks []pairTask

	// Enumerate the cell-pair tasks (own cell x neighbour cell).
	for chunk := lo; chunk < hi; chunk++ {
		cellsInChunk := g.CellsPerChunk()
		for ci := uint64(0); ci < cellsInChunk; ci++ {
			cc := g.ChunkCellCoord(chunk, ci)
			if len(acc.Cell(cc)) == 0 {
				continue
			}
			var off [3]int64
			addTask := func() {
				var nc [3]uint32
				for i := 0; i < p.Dim; i++ {
					v := int64(cc[i]) + off[i]
					if v < 0 || v >= int64(g.GlobalDim) {
						return
					}
					nc[i] = uint32(v)
				}
				tasks = append(tasks, pairTask{own: cc, neigh: nc, same: nc == cc})
			}
			for dx := -layers; dx <= layers; dx++ {
				off[0] = dx
				for dy := -layers; dy <= layers; dy++ {
					off[1] = dy
					if p.Dim == 2 {
						addTask()
						continue
					}
					for dz := -layers; dz <= layers; dz++ {
						off[2] = dz
						addTask()
					}
				}
			}
		}
	}

	countPair := func(t pairTask, emit func(u, v geometry.Point)) uint64 {
		own := acc.Cell(t.own)
		pts := acc.Cell(t.neigh)
		var count uint64
		for i := range own {
			for j := range pts {
				if t.same && i == j {
					continue
				}
				if geometry.Dist2(p.Dim, own[i].X, pts[j].X) <= r2 {
					count++
					if emit != nil {
						emit(own[i], pts[j])
					}
				}
			}
		}
		res.Comparisons += uint64(len(own) * len(pts))
		return count
	}

	// Phase 1: count.
	counts := make([]uint64, len(tasks)+1)
	for i, t := range tasks {
		counts[i+1] = countPair(t, nil)
	}
	// Phase 2: prefix sum.
	for i := 1; i < len(counts); i++ {
		counts[i] += counts[i-1]
	}
	// Phase 3: fill.
	edges := make([]graph.Edge, counts[len(tasks)])
	for i, t := range tasks {
		cursor := counts[i]
		countPair(t, func(u, v geometry.Point) {
			edges[cursor] = graph.Edge{U: u.ID, V: v.ID}
			cursor++
		})
	}
	res.Edges = edges
	return res
}
