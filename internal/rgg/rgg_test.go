package rgg

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/geometry"
	"repro/internal/graph"
)

// generate and generateChunk collect chunks from StreamChunk, the way the
// root package's generator does.
func generate(p Params, workers int) (*graph.EdgeList, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return core.Generate(p.N, p.chunks(), workers, func(pe uint64, e *core.Emitter) { StreamChunk(p, pe, e) }), nil
}

// chunkResult is one collected chunk and the work it reported.
type chunkResult struct {
	Edges []graph.Edge
	core.Work
}

func generateChunk(p Params, pe uint64) chunkResult {
	edges, work := core.Collect(func(e *core.Emitter) { StreamChunk(p, pe, e) })
	return chunkResult{edges, work}
}

// bruteForce computes the exact RGG edge set (both orientations) of a
// point set.
func bruteForce(dim int, pts []geometry.Point, r float64) map[graph.Edge]bool {
	r2 := r * r
	set := make(map[graph.Edge]bool)
	for i := range pts {
		for j := range pts {
			if i == j {
				continue
			}
			if geometry.Dist2(dim, pts[i].X, pts[j].X) <= r2 {
				set[graph.Edge{U: pts[i].ID, V: pts[j].ID}] = true
			}
		}
	}
	return set
}

// TestMatchesBruteForce is invariant 3 of DESIGN.md: the parallel
// generator's edge set equals the brute-force reference on the same
// points, for several dimensions and chunk counts.
func TestMatchesBruteForce(t *testing.T) {
	cases := []Params{
		{N: 300, R: 0.12, Dim: 2, Seed: 1, Chunks: 1},
		{N: 300, R: 0.12, Dim: 2, Seed: 1, Chunks: 4},
		{N: 300, R: 0.12, Dim: 2, Seed: 1, Chunks: 9},
		{N: 250, R: 0.2, Dim: 3, Seed: 2, Chunks: 8},
		{N: 100, R: 0.45, Dim: 2, Seed: 3, Chunks: 4},  // radius > chunk side
		{N: 128, R: 0.06, Dim: 2, Seed: 4, Chunks: 16}, // sparse
	}
	for _, p := range cases {
		pts := Points(p)
		if uint64(len(pts)) != p.N {
			t.Fatalf("%+v: %d points, want %d", p, len(pts), p.N)
		}
		want := bruteForce(p.Dim, pts, p.R)
		el, err := generate(p, 4)
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[graph.Edge]bool)
		for _, e := range el.Edges {
			if got[e] {
				t.Fatalf("%+v: duplicate edge %v", p, e)
			}
			got[e] = true
		}
		if len(got) != len(want) {
			t.Errorf("%+v: %d edges, want %d", p, len(got), len(want))
		}
		for e := range want {
			if !got[e] {
				t.Errorf("%+v: missing edge %v", p, e)
				break
			}
		}
		for e := range got {
			if !want[e] {
				t.Errorf("%+v: spurious edge %v", p, e)
				break
			}
		}
	}
}

// TestPointsUniform: coordinates must be uniform over the unit cube.
func TestPointsUniform(t *testing.T) {
	p := Params{N: 40000, R: 0.01, Dim: 2, Seed: 7, Chunks: 16}
	pts := Points(p)
	var mean [2]float64
	gridCounts := make([]int, 16)
	for _, pt := range pts {
		for d := 0; d < 2; d++ {
			if pt.X[d] < 0 || pt.X[d] >= 1 {
				t.Fatalf("coordinate %v outside unit square", pt.X)
			}
			mean[d] += pt.X[d]
		}
		gx := int(pt.X[0] * 4)
		gy := int(pt.X[1] * 4)
		gridCounts[gx*4+gy]++
	}
	for d := 0; d < 2; d++ {
		m := mean[d] / float64(len(pts))
		if math.Abs(m-0.5) > 0.01 {
			t.Errorf("mean coordinate %d = %v, want ~0.5", d, m)
		}
	}
	want := float64(p.N) / 16
	for i, c := range gridCounts {
		if math.Abs(float64(c)-want)/want > 0.1 {
			t.Errorf("quadrant %d holds %d points, want ~%v", i, c, want)
		}
	}
}

// TestIDsContiguous: vertex IDs are a permutation of [0, n).
func TestIDsContiguous(t *testing.T) {
	p := Params{N: 5000, R: 0.02, Dim: 2, Seed: 9, Chunks: 8}
	pts := Points(p)
	seen := make([]bool, p.N)
	for _, pt := range pts {
		if pt.ID >= p.N {
			t.Fatalf("ID %d out of range", pt.ID)
		}
		if seen[pt.ID] {
			t.Fatalf("duplicate ID %d", pt.ID)
		}
		seen[pt.ID] = true
	}
}

func TestWorkerIndependence(t *testing.T) {
	p := Params{N: 2000, R: 0.05, Dim: 2, Seed: 11, Chunks: 16}
	base, err := generate(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	base.Sort()
	got, err := generate(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	got.Sort()
	if got.Len() != base.Len() {
		t.Fatalf("edge count depends on workers: %d vs %d", got.Len(), base.Len())
	}
	for i := range base.Edges {
		if base.Edges[i] != got.Edges[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
}

// TestExpectedDegree: for interior vertices the expected degree is
// n * pi * r^2 in 2D (paper §2.1.2).
func TestExpectedDegree2D(t *testing.T) {
	p := Params{N: 20000, R: 0.02, Dim: 2, Seed: 13, Chunks: 4}
	el, err := generate(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Average over all vertices; border effects shrink it slightly, so
	// compare within a tolerant band.
	stats := graph.ComputeStats(el)
	want := float64(p.N) * math.Pi * p.R * p.R
	if stats.AvgDegree < want*0.85 || stats.AvgDegree > want*1.05 {
		t.Errorf("avg degree %v, want ~%v", stats.AvgDegree, want)
	}
}

// TestSymmetry: every edge has its mirror in the merged output.
func TestSymmetry(t *testing.T) {
	p := Params{N: 1000, R: 0.07, Dim: 2, Seed: 15, Chunks: 9}
	el, err := generate(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	set := make(map[graph.Edge]bool, el.Len())
	for _, e := range el.Edges {
		set[e] = true
	}
	for _, e := range el.Edges {
		if !set[graph.Edge{U: e.V, V: e.U}] {
			t.Fatalf("edge %v has no mirror", e)
		}
	}
}

// TestGhostDeterminism: the points a PE regenerates for a neighbouring
// chunk are identical to the owner's points — verified indirectly by
// Points() vs per-PE generation already, and directly here by running two
// PEs and extracting the shared border edges.
func TestGhostDeterminism(t *testing.T) {
	p := Params{N: 800, R: 0.09, Dim: 2, Seed: 17, Chunks: 4}
	resA := generateChunk(p, 0)
	resB := generateChunk(p, 1)
	// Cross edges (u in A, v in B) from A must mirror (v,u) edges in B.
	edgesA := make(map[graph.Edge]bool)
	for _, e := range resA.Edges {
		edgesA[e] = true
	}
	for _, e := range resB.Edges {
		mirror := graph.Edge{U: e.V, V: e.U}
		// If B's edge ends in A's territory, A must have the mirror.
		if edgesA[mirror] {
			continue
		}
	}
	// Stronger check: merged graph has no duplicates.
	merged := graph.Merge(p.N, resA.Edges, resB.Edges,
		generateChunk(p, 2).Edges, generateChunk(p, 3).Edges)
	if d := merged.CountDuplicates(); d != 0 {
		t.Fatalf("%d duplicate edges across PEs", d)
	}
}

// TestRedundantVerticesCounted: RedundantVertices is exactly the number
// of points the PE generated that belong to another PE — the points of
// every ghost cell some non-empty own cell's stencil reaches, once per
// own chunk that reads it — counted here from the full cell split.
func TestRedundantVerticesCounted(t *testing.T) {
	for _, tc := range []struct {
		p  Params
		pe uint64
	}{
		{Params{N: 10000, R: 0.01, Dim: 2, Seed: 19, Chunks: 4}, 0},
		{Params{N: 20000, R: 0.02, Dim: 2, Seed: 20, Chunks: 7}, 3}, // two chunks
		{Params{N: 8000, R: 0.08, Dim: 3, Seed: 21, Chunks: 8}, 5},
		{Params{N: 1000, R: 0.15, Dim: 2, Seed: 22, Chunks: 64}, 27}, // two layers
	} {
		res := generateChunk(tc.p, tc.pe)
		want := ghostPoints(tc.p, tc.pe)
		if want == 0 || res.RedundantVertices != want {
			t.Errorf("%+v pe %d: %d redundant vertices, the ghost cells hold %d points",
				tc.p, tc.pe, res.RedundantVertices, want)
		}
	}
}

// ghostPoints counts, by brute force over every cell, the points of the
// cells outside pe's chunks that a non-empty cell of one of its chunks
// has within its stencil, once per such chunk.
func ghostPoints(p Params, pe uint64) uint64 {
	g := p.grid()
	layers := int64(math.Max(1, math.Ceil(p.R/g.CellSide)))
	count := map[[3]uint32]uint64{}
	for chunk, total := range g.ChunkCounts() {
		for ci, n := range g.CellCounts(uint64(chunk), total) {
			count[g.ChunkCellCoord(uint64(chunk), uint64(ci))] = n
		}
	}
	lo, hi := g.ChunkRange(pe)
	var ghosts uint64
	for chunk := lo; chunk < hi; chunk++ {
		seen := map[[3]uint32]bool{}
		for ci := uint64(0); ci < g.CellsPerChunk(); ci++ {
			cc := g.ChunkCellCoord(chunk, ci)
			if count[cc] == 0 {
				continue
			}
			for k := 0; k < int(math.Pow(float64(2*layers+1), float64(p.Dim))); k++ {
				nc, in := cc, true
				for i, rest := 0, k; i < p.Dim; i, rest = i+1, rest/int(2*layers+1) {
					v := int64(cc[i]) + int64(rest%int(2*layers+1)) - layers
					in = in && v >= 0 && v < int64(g.GlobalDim)
					nc[i] = uint32(v)
				}
				if owner := g.OwnerChunkOfCell(nc); in && !seen[nc] && (owner < lo || owner >= hi) {
					seen[nc] = true
					ghosts += count[nc]
				}
			}
		}
	}
	return ghosts
}

func TestValidate(t *testing.T) {
	if err := (Params{N: 0, R: 0.1, Dim: 2}).Validate(); err == nil {
		t.Error("n=0 accepted")
	}
	if err := (Params{N: 10, R: 0, Dim: 2}).Validate(); err == nil {
		t.Error("r=0 accepted")
	}
	if err := (Params{N: 10, R: 0.5, Dim: 4}).Validate(); err == nil {
		t.Error("dim=4 accepted")
	}
	if err := (Params{N: 10, R: 1.5, Dim: 2}).Validate(); err == nil {
		t.Error("r>1 accepted")
	}
}

func TestConnectivityRadius(t *testing.T) {
	r := ConnectivityRadius(1<<16, 2)
	if r <= 0 || r >= 1 {
		t.Errorf("radius %v out of range", r)
	}
	// Larger n gives smaller radius.
	if ConnectivityRadius(1<<20, 2) >= r {
		t.Error("radius should decrease with n")
	}
}

func BenchmarkChunk2D(b *testing.B) {
	p := Params{N: 1 << 16, Dim: 2, Seed: 1, Chunks: 16}
	p.R = ConnectivityRadius(p.N, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		generateChunk(p, 7)
	}
}

func BenchmarkChunk3D(b *testing.B) {
	p := Params{N: 1 << 14, Dim: 3, Seed: 1, Chunks: 8}
	p.R = ConnectivityRadius(p.N, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		generateChunk(p, 3)
	}
}

// TestBatchedMatchesStandard: the three-phase count/prefix/fill pipeline
// (§5.3) must produce the same edge multiset as the append-based path.
func TestBatchedMatchesStandard(t *testing.T) {
	for _, p := range []Params{
		{N: 1500, R: 0.05, Dim: 2, Seed: 21, Chunks: 4},
		{N: 900, R: 0.12, Dim: 3, Seed: 22, Chunks: 8},
	} {
		for pe := uint64(0); pe < p.Chunks; pe++ {
			a := generateChunk(p, pe)
			b := GenerateChunkBatched(p, pe)
			ea := graph.EdgeList{N: p.N, Edges: a.Edges}
			eb := graph.EdgeList{N: p.N, Edges: b.Edges}
			ea.Sort()
			eb.Sort()
			if len(ea.Edges) != len(eb.Edges) {
				t.Fatalf("%+v pe %d: %d vs %d edges", p, pe, len(ea.Edges), len(eb.Edges))
			}
			for i := range ea.Edges {
				if ea.Edges[i] != eb.Edges[i] {
					t.Fatalf("%+v pe %d: edge %d differs", p, pe, i)
				}
			}
		}
	}
}

func BenchmarkChunkBatched2D(b *testing.B) {
	p := Params{N: 1 << 16, Dim: 2, Seed: 1, Chunks: 16}
	p.R = ConnectivityRadius(p.N, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		GenerateChunkBatched(p, 7)
	}
}
