package rhg

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

// chunkResult is one collected chunk and the work it reported.
type chunkResult struct {
	Edges []graph.Edge
	core.Work
}

func generateChunk(p Params, pe uint64) chunkResult {
	edges, work := core.Collect(func(e *core.Emitter) { StreamChunk(p, pe, e) })
	return chunkResult{edges, work}
}

// bruteForce computes the exact edge set (both orientations) using the
// same adjacency predicate on the full point set.
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

// TestMatchesBruteForce: the chunked generator with its window queries and
// foreign-chunk recomputation finds exactly the edges of the all-pairs
// reference on the same point set.
func TestMatchesBruteForce(t *testing.T) {
	cases := []Params{
		{N: 400, AvgDeg: 8, Gamma: 3.0, Seed: 1, Chunks: 1},
		{N: 400, AvgDeg: 8, Gamma: 3.0, Seed: 1, Chunks: 5},
		{N: 300, AvgDeg: 12, Gamma: 2.4, Seed: 2, Chunks: 8},
		{N: 500, AvgDeg: 6, Gamma: 4.0, Seed: 3, Chunks: 3},
		{N: 200, AvgDeg: 16, Gamma: 2.2, Seed: 4, Chunks: 4},
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
				t.Fatalf("%+v: duplicate edge %v", p, e)
			}
			got[e] = true
		}
		if len(got) != len(want) {
			t.Errorf("%+v: %d edges, want %d", p, len(got), len(want))
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
			t.Errorf("%+v: %d missing, %d spurious edges", p, missing, spurious)
		}
	}
}

// TestIDsContiguous: IDs are a permutation of [0, n).
func TestIDsContiguous(t *testing.T) {
	p := Params{N: 3000, AvgDeg: 10, Gamma: 2.7, Seed: 5, Chunks: 7}
	pts := Points(p)
	seen := make([]bool, p.N)
	for _, pt := range pts {
		if pt.ID >= p.N || seen[pt.ID] {
			t.Fatalf("bad or duplicate ID %d", pt.ID)
		}
		seen[pt.ID] = true
	}
}

// TestCoordinateRanges: radii within [0, R], angles within [0, 2pi).
func TestCoordinateRanges(t *testing.T) {
	p := Params{N: 2000, AvgDeg: 8, Gamma: 3.0, Seed: 6, Chunks: 4}
	bigR := Radius(p)
	for _, pt := range Points(p) {
		if pt.R < 0 || pt.R > bigR+1e-9 {
			t.Fatalf("radius %v outside [0, %v]", pt.R, bigR)
		}
		if pt.Theta < 0 || pt.Theta >= 2*math.Pi {
			t.Fatalf("angle %v outside [0, 2pi)", pt.Theta)
		}
	}
}

func TestWorkerIndependence(t *testing.T) {
	p := Params{N: 1000, AvgDeg: 8, Gamma: 2.8, Seed: 7, Chunks: 8}
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
		t.Fatalf("edge count depends on workers")
	}
	for i := range base.Edges {
		if base.Edges[i] != got.Edges[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
}

// TestAverageDegree: the realized average degree should approach the
// target (the paper's C calibration, Eq. 1-2). The asymptotic formula has
// 1+o(1) corrections, so the band is generous.
func TestAverageDegree(t *testing.T) {
	p := Params{N: 1 << 14, AvgDeg: 12, Gamma: 3.0, Seed: 8, Chunks: 8}
	el, err := generate(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	stats := graph.ComputeStats(el)
	if stats.AvgDegree < p.AvgDeg*0.5 || stats.AvgDegree > p.AvgDeg*1.6 {
		t.Errorf("avg degree %v, want within [%v, %v]", stats.AvgDegree, p.AvgDeg*0.5, p.AvgDeg*1.6)
	}
}

// TestPowerLawTail: the degree distribution should have a power-law tail
// with exponent ~gamma.
func TestPowerLawTail(t *testing.T) {
	p := Params{N: 1 << 15, AvgDeg: 10, Gamma: 2.6, Seed: 9, Chunks: 8}
	el, err := generate(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	degrees := graph.OutDegrees(el)
	gamma := graph.PowerLawExponentMLE(degrees, 20)
	if math.IsNaN(gamma) || gamma < p.Gamma-0.6 || gamma > p.Gamma+0.8 {
		t.Errorf("estimated gamma %v, want ~%v", gamma, p.Gamma)
	}
}

// TestSymmetry: each edge appears with both orientations in the merged
// output.
func TestSymmetry(t *testing.T) {
	p := Params{N: 800, AvgDeg: 8, Gamma: 3.2, Seed: 10, Chunks: 6}
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

// TestCoreIsClique: all pairs of core points (r < R/2) must be adjacent.
func TestCoreIsClique(t *testing.T) {
	p := Params{N: 4000, AvgDeg: 16, Gamma: 2.5, Seed: 11, Chunks: 4}
	bigR := Radius(p)
	pts := Points(p)
	var corePts []hyperbolic.Point
	for _, pt := range pts {
		if pt.R < bigR/2 {
			corePts = append(corePts, pt)
		}
	}
	if len(corePts) < 2 {
		t.Skip("core too small for this instance")
	}
	el, err := generate(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	present := make(map[graph.Edge]bool, el.Len())
	for _, e := range el.Edges {
		present[e] = true
	}
	for i := range corePts {
		for j := range corePts {
			if i == j {
				continue
			}
			e := graph.Edge{U: corePts[i].ID, V: corePts[j].ID}
			if !present[e] {
				t.Fatalf("core pair %v missing (r=%v, r=%v)", e, corePts[i].R, corePts[j].R)
			}
		}
	}
}

func TestValidate(t *testing.T) {
	if err := (Params{N: 0, AvgDeg: 8, Gamma: 3}).Validate(); err == nil {
		t.Error("n=0 accepted")
	}
	if err := (Params{N: 100, AvgDeg: 8, Gamma: 2}).Validate(); err == nil {
		t.Error("gamma=2 accepted")
	}
	if err := (Params{N: 100, AvgDeg: 0, Gamma: 3}).Validate(); err == nil {
		t.Error("deg=0 accepted")
	}
	if err := (Params{N: 100, AvgDeg: 200, Gamma: 3}).Validate(); err == nil {
		t.Error("deg>n accepted")
	}
}

func BenchmarkChunk(b *testing.B) {
	p := Params{N: 1 << 14, AvgDeg: 16, Gamma: 3.0, Seed: 1, Chunks: 8}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		generateChunk(p, 3)
	}
}

// TestOutwardOnlyMatchesFull: the outward-only mode (§8.6) must produce
// every edge exactly once, and the undirected edge set must equal the
// full partitioned mode's.
func TestOutwardOnlyMatchesFull(t *testing.T) {
	for _, chunks := range []uint64{1, 4, 7} {
		p := Params{N: 600, AvgDeg: 10, Gamma: 2.7, Seed: 21, Chunks: chunks}
		full, err := generate(p, 4)
		if err != nil {
			t.Fatal(err)
		}
		p.OutwardOnly = true
		out, err := generate(p, 4)
		if err != nil {
			t.Fatal(err)
		}
		if out.CountDuplicates() != 0 {
			t.Fatalf("chunks=%d: outward mode produced duplicates", chunks)
		}
		// Each edge exactly once: count = m = half the full mode's entries.
		if 2*out.Len() != full.Len() {
			t.Fatalf("chunks=%d: outward %d edges, full %d directed copies", chunks, out.Len(), full.Len())
		}
		wantSet := full.UndirectedSet()
		gotSet := out.UndirectedSet()
		if len(wantSet) != len(gotSet) {
			t.Fatalf("chunks=%d: undirected sets differ in size: %d vs %d", chunks, len(gotSet), len(wantSet))
		}
		for i := range wantSet {
			if wantSet[i] != gotSet[i] {
				t.Fatalf("chunks=%d: undirected edge %d differs", chunks, i)
			}
		}
	}
}

// TestOutwardOnlyCheaper: outward-only performs fewer candidate
// comparisons than the partitioned mode (the speedup the paper reports).
func TestOutwardOnlyCheaper(t *testing.T) {
	p := Params{N: 4000, AvgDeg: 12, Gamma: 2.5, Seed: 23, Chunks: 8}
	fullCmp := uint64(0)
	outCmp := uint64(0)
	for pe := uint64(0); pe < 8; pe++ {
		fullCmp += generateChunk(p, pe).Comparisons
	}
	p.OutwardOnly = true
	for pe := uint64(0); pe < 8; pe++ {
		outCmp += generateChunk(p, pe).Comparisons
	}
	if outCmp*3/2 > fullCmp {
		t.Errorf("outward-only comparisons %d not well below full mode %d", outCmp, fullCmp)
	}
}
