package ba

import (
	"math"
	"testing"

	"repro/internal/core"
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

// TestMatchesSequentialReference: the chain-retracing resolution must
// reproduce the Batagelj–Brandes array algorithm edge for edge.
func TestMatchesSequentialReference(t *testing.T) {
	for _, p := range []Params{
		{N: 500, D: 3, Seed: 1, Chunks: 1},
		{N: 500, D: 3, Seed: 1, Chunks: 7},
		{N: 1000, D: 1, Seed: 2, Chunks: 4},
		{N: 200, D: 8, Seed: 3, Chunks: 16},
	} {
		want := SequentialReference(p)
		got, err := generate(p, 4)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != want.Len() {
			t.Fatalf("%+v: %d edges, want %d", p, got.Len(), want.Len())
		}
		// Both emit in global edge-index order per chunk; sort to compare.
		got.Sort()
		want.Sort()
		for i := range want.Edges {
			if got.Edges[i] != want.Edges[i] {
				t.Fatalf("%+v: edge %d differs: %v vs %v", p, i, got.Edges[i], want.Edges[i])
			}
		}
	}
}

func TestEdgeCountAndSources(t *testing.T) {
	p := Params{N: 2000, D: 4, Seed: 5, Chunks: 8}
	el, err := generate(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(el.Len()) != p.N*p.D {
		t.Fatalf("%d edges, want %d", el.Len(), p.N*p.D)
	}
	// Every vertex is the source of exactly d edges.
	counts := make([]uint64, p.N)
	for _, e := range el.Edges {
		counts[e.U]++
		if e.V > e.U {
			t.Fatalf("edge %v attaches to a future vertex", e)
		}
	}
	for v, c := range counts {
		if c != p.D {
			t.Fatalf("vertex %d has %d out-edges, want %d", v, c, p.D)
		}
	}
}

// TestPowerLawInDegree: the in-degree distribution follows a power law
// with exponent ~3.
func TestPowerLawInDegree(t *testing.T) {
	p := Params{N: 1 << 16, D: 4, Seed: 7, Chunks: 8}
	el, err := generate(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	inDeg := make([]uint64, p.N)
	for _, e := range el.Edges {
		inDeg[e.V]++
	}
	gamma := graph.PowerLawExponentMLE(inDeg, 10)
	if math.IsNaN(gamma) || gamma < 2.4 || gamma > 3.6 {
		t.Errorf("estimated in-degree exponent %v, want ~3", gamma)
	}
}

// TestPreferentialAttachment: early vertices accumulate much higher degree
// than late ones.
func TestPreferentialAttachment(t *testing.T) {
	p := Params{N: 1 << 14, D: 4, Seed: 9, Chunks: 4}
	el, err := generate(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	inDeg := make([]uint64, p.N)
	for _, e := range el.Edges {
		inDeg[e.V]++
	}
	var earlySum, lateSum uint64
	tenth := p.N / 10
	for v := uint64(0); v < tenth; v++ {
		earlySum += inDeg[v]
	}
	for v := p.N - tenth; v < p.N; v++ {
		lateSum += inDeg[v]
	}
	if earlySum < 5*lateSum {
		t.Errorf("first decile in-degree %d not dominating last decile %d", earlySum, lateSum)
	}
}

func TestWorkerIndependence(t *testing.T) {
	p := Params{N: 3000, D: 2, Seed: 11, Chunks: 16}
	a, err := generate(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := generate(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	a.Sort()
	b.Sort()
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
}

func TestValidate(t *testing.T) {
	if err := (Params{N: 0, D: 1}).Validate(); err == nil {
		t.Error("n=0 accepted")
	}
	if err := (Params{N: 10, D: 0}).Validate(); err == nil {
		t.Error("d=0 accepted")
	}
	if err := (Params{N: 4, D: 1, Chunks: 8}).Validate(); err == nil {
		t.Error("chunks>n accepted")
	}
}

func BenchmarkChunk(b *testing.B) {
	p := Params{N: 1 << 18, D: 8, Seed: 1, Chunks: 16}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		generateChunk(p, 7)
	}
}
