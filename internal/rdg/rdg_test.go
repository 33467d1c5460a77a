package rdg

import (
	"testing"

	"repro/internal/core"
	"repro/internal/delaunay"
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

func generateChunk(p Params, pe uint64) []graph.Edge {
	edges, _ := core.Collect(func(e *core.Emitter) { StreamChunk(p, pe, e) })
	return edges
}

// periodicReference computes the exact periodic Delaunay edge set by
// triangulating the points together with all 3^d - 1 shifted copies and
// keeping edges incident to at least one original point.
func periodicReference(p Params, pts []geometry.Point) map[graph.Edge]bool {
	dim := p.Dim
	offsets := [][3]float64{}
	var build func(d int, cur [3]float64)
	build = func(d int, cur [3]float64) {
		if d == dim {
			offsets = append(offsets, cur)
			return
		}
		for _, o := range []float64{-1, 0, 1} {
			cur[d] = o
			build(d+1, cur)
		}
	}
	build(0, [3]float64{})

	set := make(map[graph.Edge]bool)
	if dim == 2 {
		var coords [][2]float64
		var ids []uint64
		var real []bool
		for _, off := range offsets {
			isReal := off == [3]float64{}
			for _, pt := range pts {
				coords = append(coords, [2]float64{pt.X[0] + off[0], pt.X[1] + off[1]})
				ids = append(ids, pt.ID)
				real = append(real, isReal)
			}
		}
		t := delaunay.Triangulate2D(coords)
		t.Edges(func(a, b int32) {
			ia, ib := a-3, b-3
			u, v := ids[ia], ids[ib]
			if u == v {
				return
			}
			if real[ia] {
				set[graph.Edge{U: u, V: v}] = true
			}
			if real[ib] {
				set[graph.Edge{U: v, V: u}] = true
			}
		})
		return set
	}
	var coords [][3]float64
	var ids []uint64
	var real []bool
	for _, off := range offsets {
		isReal := off == [3]float64{}
		for _, pt := range pts {
			coords = append(coords, [3]float64{pt.X[0] + off[0], pt.X[1] + off[1], pt.X[2] + off[2]})
			ids = append(ids, pt.ID)
			real = append(real, isReal)
		}
	}
	t := delaunay.Triangulate3D(coords)
	t.Edges(func(a, b int32) {
		ia, ib := a-4, b-4
		u, v := ids[ia], ids[ib]
		if u == v {
			return
		}
		if real[ia] {
			set[graph.Edge{U: u, V: v}] = true
		}
		if real[ib] {
			set[graph.Edge{U: v, V: u}] = true
		}
	})
	return set
}

// TestMatchesPeriodicReference: the distributed chunk+halo triangulation
// reproduces the exact periodic Delaunay graph.
func TestMatchesPeriodicReference(t *testing.T) {
	cases := []Params{
		{N: 120, Dim: 2, Seed: 1, Chunks: 1},
		{N: 120, Dim: 2, Seed: 1, Chunks: 4},
		{N: 200, Dim: 2, Seed: 2, Chunks: 9},
		{N: 80, Dim: 3, Seed: 3, Chunks: 1},
		{N: 90, Dim: 3, Seed: 4, Chunks: 8},
	}
	for _, p := range cases {
		pts := Points(p)
		if uint64(len(pts)) != p.N {
			t.Fatalf("%+v: %d points, want %d", p, len(pts), p.N)
		}
		want := periodicReference(p, pts)
		el, err := generate(p, 4)
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[graph.Edge]bool)
		for _, e := range el.Edges {
			if got[e] {
				t.Errorf("%+v: duplicate edge %v", p, e)
			}
			got[e] = true
		}
		missing, spurious := 0, 0
		for e := range want {
			if !got[e] {
				missing++
			}
		}
		for e := range got {
			if !want[e] {
				spurious++
			}
		}
		if missing > 0 || spurious > 0 {
			t.Errorf("%+v: %d missing, %d spurious of %d expected", p, missing, spurious, len(want))
		}
	}
}

// TestDegreeBounds: periodic planar Delaunay in 2D has average degree
// exactly 6 (no convex hull); 3D random Delaunay about 15.5.
func TestAverageDegree2D(t *testing.T) {
	p := Params{N: 2000, Dim: 2, Seed: 5, Chunks: 4}
	el, err := generate(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	stats := graph.ComputeStats(el)
	if stats.AvgDegree < 5.9 || stats.AvgDegree > 6.1 {
		t.Errorf("2D periodic Delaunay avg degree %v, want ~6", stats.AvgDegree)
	}
	if stats.Components != 1 {
		t.Errorf("Delaunay graph should be connected, got %d components", stats.Components)
	}
}

func TestAverageDegree3D(t *testing.T) {
	p := Params{N: 500, Dim: 3, Seed: 6, Chunks: 2}
	el, err := generate(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	stats := graph.ComputeStats(el)
	// The asymptotic mean degree of 3D Poisson-Delaunay is 2 + 48*pi^2/35
	// ~ 15.54.
	if stats.AvgDegree < 14 || stats.AvgDegree > 17 {
		t.Errorf("3D periodic Delaunay avg degree %v, want ~15.5", stats.AvgDegree)
	}
}

func TestWorkerIndependence(t *testing.T) {
	p := Params{N: 600, Dim: 2, Seed: 7, Chunks: 4}
	base, err := generate(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	base.Sort()
	got, err := generate(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	got.Sort()
	if got.Len() != base.Len() {
		t.Fatal("edge count depends on workers")
	}
	for i := range base.Edges {
		if base.Edges[i] != got.Edges[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
}

func TestSymmetry(t *testing.T) {
	p := Params{N: 400, Dim: 2, Seed: 8, Chunks: 4}
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

func TestValidate(t *testing.T) {
	if err := (Params{N: 2, Dim: 2}).Validate(); err == nil {
		t.Error("tiny n accepted")
	}
	if err := (Params{N: 100, Dim: 4}).Validate(); err == nil {
		t.Error("dim=4 accepted")
	}
	if err := (Params{N: 100, Dim: 2}).Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
}

func BenchmarkChunk2D(b *testing.B) {
	p := Params{N: 1 << 12, Dim: 2, Seed: 1, Chunks: 4}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		generateChunk(p, 1)
	}
}

func BenchmarkChunk3D(b *testing.B) {
	p := Params{N: 1 << 10, Dim: 3, Seed: 1, Chunks: 8}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		generateChunk(p, 3)
	}
}
