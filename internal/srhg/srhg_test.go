package srhg

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hyperbolic"
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

func bruteForce(p Params, pts []hyperbolic.Point) map[graph.Edge]bool {
	alpha := hyperbolic.AlphaFromGamma(p.Gamma)
	geo := hyperbolic.NewGeo(hyperbolic.DiskRadius(p.N, p.AvgDeg, alpha), alpha)
	set := make(map[graph.Edge]bool)
	for i := range pts {
		for j := range pts {
			if i == j {
				continue
			}
			if geo.IsNeighbor(pts[i], pts[j]) {
				set[graph.Edge{U: pts[i].ID, V: pts[j].ID}] = true
			}
		}
	}
	return set
}

// TestMatchesBruteForce: the sweep-line with requests, causality inversion
// and the final phase finds exactly the edges of the all-pairs reference on
// the same point set — for a single PE (pure streaming + wrap-around) and
// for several PE counts (global phase + chunk hand-off).
func TestMatchesBruteForce(t *testing.T) {
	cases := []Params{
		{N: 300, AvgDeg: 8, Gamma: 3.0, Seed: 1, Chunks: 1},
		{N: 300, AvgDeg: 8, Gamma: 3.0, Seed: 1, Chunks: 4},
		{N: 400, AvgDeg: 10, Gamma: 2.4, Seed: 2, Chunks: 8},
		{N: 250, AvgDeg: 16, Gamma: 2.2, Seed: 3, Chunks: 2},
		{N: 500, AvgDeg: 6, Gamma: 4.5, Seed: 4, Chunks: 6},
		{N: 350, AvgDeg: 12, Gamma: 2.8, Seed: 5, Chunks: 16},
	}
	for _, p := range cases {
		pts := Points(p)
		if uint64(len(pts)) != p.N {
			t.Fatalf("%+v: %d points, want %d", p, len(pts), p.N)
		}
		want := bruteForce(p, pts)
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

func TestIDsContiguous(t *testing.T) {
	p := Params{N: 2000, AvgDeg: 8, Gamma: 2.9, Seed: 6, Chunks: 8}
	seen := make([]bool, p.N)
	for _, pt := range Points(p) {
		if pt.ID >= p.N || seen[pt.ID] {
			t.Fatalf("bad or duplicate ID %d", pt.ID)
		}
		seen[pt.ID] = true
	}
}

func TestWorkerIndependence(t *testing.T) {
	p := Params{N: 900, AvgDeg: 8, Gamma: 3.0, Seed: 7, Chunks: 8}
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
		t.Fatal("edge count depends on workers")
	}
	for i := range base.Edges {
		if base.Edges[i] != got.Edges[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
}

// TestGlobalStreamingSplit: the classification must put wide-request annuli
// below narrow ones, and more PEs must push the boundary outward.
func TestGlobalStreamingSplit(t *testing.T) {
	base := Params{N: 1 << 14, AvgDeg: 16, Gamma: 2.5, Seed: 8}
	p1 := base
	p1.Chunks = 1
	p16 := base
	p16.Chunks = 16
	s1 := FirstStreamingAnnulus(p1)
	s16 := FirstStreamingAnnulus(p16)
	if s1 != 0 {
		t.Errorf("P=1: first streaming annulus %d, want 0 (every annulus fits one chunk)", s1)
	}
	if s16 < s1 {
		t.Errorf("more PEs should not shrink the global region: %d < %d", s16, s1)
	}
}

// TestAverageDegree: realized average degree within a generous band of the
// target (asymptotic calibration).
func TestAverageDegree(t *testing.T) {
	p := Params{N: 1 << 14, AvgDeg: 12, Gamma: 3.0, Seed: 9, Chunks: 8}
	el, err := generate(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	stats := graph.ComputeStats(el)
	if stats.AvgDegree < p.AvgDeg*0.5 || stats.AvgDegree > p.AvgDeg*1.6 {
		t.Errorf("avg degree %v, want near %v", stats.AvgDegree, p.AvgDeg)
	}
}

// TestPowerLawTail as for the in-memory generator.
func TestPowerLawTail(t *testing.T) {
	p := Params{N: 1 << 15, AvgDeg: 10, Gamma: 2.6, Seed: 10, Chunks: 8}
	el, err := generate(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	gamma := graph.PowerLawExponentMLE(graph.OutDegrees(el), 20)
	if math.IsNaN(gamma) || gamma < p.Gamma-0.6 || gamma > p.Gamma+0.8 {
		t.Errorf("estimated gamma %v, want ~%v", gamma, p.Gamma)
	}
}

func TestSymmetry(t *testing.T) {
	p := Params{N: 700, AvgDeg: 8, Gamma: 3.1, Seed: 11, Chunks: 5}
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
	if err := (Params{N: 0, AvgDeg: 8, Gamma: 3}).Validate(); err == nil {
		t.Error("n=0 accepted")
	}
	if err := (Params{N: 100, AvgDeg: 8, Gamma: 1.9}).Validate(); err == nil {
		t.Error("gamma<2 accepted")
	}
}

func BenchmarkChunk(b *testing.B) {
	p := Params{N: 1 << 14, AvgDeg: 16, Gamma: 3.0, Seed: 1, Chunks: 8}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		generateChunk(p, 3)
	}
}
