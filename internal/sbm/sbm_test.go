package sbm

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
	return core.Generate(p.N(), p.chunks(), workers, func(pe uint64, e *core.Emitter) { StreamChunk(p, pe, e) }), nil
}

func generateChunk(p Params, pe uint64) []graph.Edge {
	edges, _ := core.Collect(func(e *core.Emitter) { StreamChunk(p, pe, e) })
	return edges
}

func TestPlantedPartitionDensities(t *testing.T) {
	const n = 3000
	const blocks = 3
	const pIn, pOut = 0.02, 0.002
	p := PlantedPartition(n, blocks, pIn, pOut, 7, 8)
	el, err := generate(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	starts := p.blockStarts()
	blockOf := func(v uint64) int {
		for b := 0; b < blocks; b++ {
			if v < starts[b+1] {
				return b
			}
		}
		return blocks - 1
	}
	// Count undirected edges per block pair.
	intra, inter := 0, 0
	for _, e := range el.UndirectedSet() {
		if blockOf(e.U) == blockOf(e.V) {
			intra++
		} else {
			inter++
		}
	}
	// Expected counts.
	perBlock := float64(n / blocks)
	wantIntra := float64(blocks) * perBlock * (perBlock - 1) / 2 * pIn
	wantInter := float64(blocks*(blocks-1)) / 2 * perBlock * perBlock * pOut
	if math.Abs(float64(intra)-wantIntra) > 6*math.Sqrt(wantIntra) {
		t.Errorf("intra edges %d, want ~%v", intra, wantIntra)
	}
	if math.Abs(float64(inter)-wantInter) > 6*math.Sqrt(wantInter) {
		t.Errorf("inter edges %d, want ~%v", inter, wantInter)
	}
}

func TestConventionAndConsistency(t *testing.T) {
	p := PlantedPartition(1200, 4, 0.05, 0.005, 3, 6)
	el, err := generate(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	if el.CountSelfLoops() != 0 {
		t.Error("self loops present")
	}
	if el.CountDuplicates() != 0 {
		t.Error("duplicates present")
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

func TestWorkerIndependence(t *testing.T) {
	p := PlantedPartition(900, 3, 0.04, 0.004, 11, 8)
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
	if a.Len() != b.Len() {
		t.Fatal("edge count depends on workers")
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
}

// TestUniformMatrixMatchesGNP: with a constant probability matrix the SBM
// is exactly G(n,p); compare densities across seeds.
func TestUniformMatrixMatchesGNP(t *testing.T) {
	const n = 1500
	const prob = 0.01
	var total int
	const trials = 10
	for s := uint64(0); s < trials; s++ {
		p := PlantedPartition(n, 4, prob, prob, s, 4)
		el, err := generate(p, 4)
		if err != nil {
			t.Fatal(err)
		}
		total += len(el.UndirectedSet())
	}
	mean := float64(total) / trials
	want := float64(n) * (n - 1) / 2 * prob
	if math.Abs(mean-want)/want > 0.05 {
		t.Errorf("mean undirected edges %v, want ~%v", mean, want)
	}
}

// TestCommunityStructure: with strong intra-block probability the blocks
// are denser than the cut — detectable by simple conductance.
func TestCommunityStructure(t *testing.T) {
	p := PlantedPartition(2000, 2, 0.05, 0.001, 5, 4)
	el, err := generate(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	half := p.N() / 2
	var cut, vol int
	for _, e := range el.Edges {
		vol++
		if (e.U < half) != (e.V < half) {
			cut++
		}
	}
	conductance := float64(cut) / float64(vol)
	if conductance > 0.1 {
		t.Errorf("conductance %v, want << 1 for planted partition", conductance)
	}
}

func TestValidate(t *testing.T) {
	if err := (Params{}).Validate(); err == nil {
		t.Error("empty params accepted")
	}
	bad := PlantedPartition(100, 2, 0.5, 0.1, 1, 1)
	bad.Prob[0][1] = 0.2 // break symmetry
	if err := bad.Validate(); err == nil {
		t.Error("asymmetric matrix accepted")
	}
	bad2 := PlantedPartition(100, 2, 1.5, 0.1, 1, 1)
	if err := bad2.Validate(); err == nil {
		t.Error("probability > 1 accepted")
	}
}

// TestBlockBoundariesRespectChunks: chunks that split a block mid-way must
// still produce consistent results (regression guard for the interval
// intersection logic).
func TestBlockBoundariesVsChunks(t *testing.T) {
	// 5 blocks of 101 vertices across 7 chunks: nothing aligns.
	p := Params{
		BlockSizes: []uint64{101, 101, 101, 101, 101},
		Seed:       13,
		Chunks:     7,
	}
	p.Prob = make([][]float64, 5)
	for i := range p.Prob {
		p.Prob[i] = make([]float64, 5)
		for j := range p.Prob[i] {
			p.Prob[i][j] = 0.01
			if i == j {
				p.Prob[i][j] = 0.08
			}
		}
	}
	el, err := generate(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	if el.CountDuplicates() != 0 || el.CountSelfLoops() != 0 {
		t.Fatal("duplicates or self loops with unaligned blocks")
	}
	und := el.UndirectedSet()
	if el.Len() != 2*len(und) {
		t.Fatalf("partitioned-output convention broken: %d vs %d", el.Len(), 2*len(und))
	}
}

// TestStreamChunkMatchesGenerate: concatenating the chunks streamed
// through a flushing batch must reproduce the collected graph edge for
// edge — the SBM streamer is the composition of its per-(chunk pair, block
// pair) undirected streams in chunk-row order.
func TestStreamChunkMatchesGenerate(t *testing.T) {
	p := PlantedPartition(400, 3, 0.05, 0.005, 11, 5)
	whole, err := generate(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	var streamed []graph.Edge
	for c := uint64(0); c < p.chunks(); c++ {
		e := core.NewEmitter(make([]graph.Edge, 0, 7), func(full []graph.Edge) ([]graph.Edge, bool) {
			streamed = append(streamed, full...)
			return full, true
		})
		StreamChunk(p, c, e)
		streamed = append(streamed, e.Edges()...)
	}
	if len(streamed) != whole.Len() {
		t.Fatalf("streamed %d edges, Generate has %d", len(streamed), whole.Len())
	}
	for i := range streamed {
		if streamed[i] != whole.Edges[i] {
			t.Fatalf("edge %d = %v, want %v", i, streamed[i], whole.Edges[i])
		}
	}
}

// TestStreamChunkAllocs: the streaming sweep allocates only per-call
// constants (block starts), never per chunk pair.
func TestStreamChunkAllocs(t *testing.T) {
	p := PlantedPartition(1<<12, 4, 0.01, 0.001, 1, 16)
	var sink uint64
	e := core.NewEmitter(make([]graph.Edge, 0, 256), func(full []graph.Edge) ([]graph.Edge, bool) {
		sink += full[0].U
		return full, true
	})
	allocs := testing.AllocsPerRun(5, func() { StreamChunk(p, 8, e) })
	if allocs > 8 {
		t.Errorf("StreamChunk allocates %.0f times per chunk, want O(1)", allocs)
	}
	_ = sink
}
