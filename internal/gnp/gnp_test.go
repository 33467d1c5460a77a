package gnp

import (
	"math"
	"testing"
	"testing/quick"

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

// streamBatched streams a chunk through a flushing Emitter of the given
// batch capacity and returns the edges in the order they were flushed.
func streamBatched(p Params, pe uint64, batch int) []graph.Edge {
	var got []graph.Edge
	e := core.NewEmitter(make([]graph.Edge, 0, batch), func(full []graph.Edge) ([]graph.Edge, bool) {
		got = append(got, full...)
		return full, true
	})
	StreamChunk(p, pe, e)
	return append(got, e.Edges()...)
}

func TestDirectedEdgeCountConcentration(t *testing.T) {
	const n = 2000
	const p = 0.005
	params := Params{N: n, P: p, Directed: true, Seed: 9, Chunks: 8}
	el, err := generate(params, 4)
	if err != nil {
		t.Fatal(err)
	}
	mean := float64(n) * (n - 1) * p
	sigma := math.Sqrt(mean * (1 - p))
	if math.Abs(float64(el.Len())-mean) > 6*sigma {
		t.Errorf("edge count %d, want %v +- %v", el.Len(), mean, 6*sigma)
	}
	if el.CountSelfLoops() != 0 || el.CountDuplicates() != 0 {
		t.Error("self loops or duplicates present")
	}
}

func TestUndirectedEdgeCountConcentration(t *testing.T) {
	const n = 2000
	const p = 0.005
	params := Params{N: n, P: p, Seed: 10, Chunks: 8}
	el, err := generate(params, 4)
	if err != nil {
		t.Fatal(err)
	}
	und := el.UndirectedSet()
	// Every undirected edge must appear exactly twice in the merged list.
	if el.Len() != 2*len(und) {
		t.Errorf("merged %d directed copies for %d undirected edges", el.Len(), len(und))
	}
	mean := float64(n) * (n - 1) / 2 * p
	sigma := math.Sqrt(mean * (1 - p))
	if math.Abs(float64(len(und))-mean) > 6*sigma {
		t.Errorf("undirected count %d, want %v +- %v", len(und), mean, 6*sigma)
	}
}

// TestSkipSamplingSameDistribution: both code paths must produce graphs of
// statistically identical density (they draw from the same model).
func TestSkipSamplingDistributionMatch(t *testing.T) {
	const n = 1200
	const p = 0.01
	var totalBinom, totalSkip int
	const trials = 20
	for s := uint64(0); s < trials; s++ {
		a, err := generate(Params{N: n, P: p, Directed: true, Seed: s, Chunks: 4}, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(Params{N: n, P: p, Directed: true, Seed: s + 1000, Chunks: 4, SkipSampling: true}, 2)
		if err != nil {
			t.Fatal(err)
		}
		totalBinom += a.Len()
		totalSkip += b.Len()
	}
	mean := float64(n) * (n - 1) * p * trials
	for name, total := range map[string]int{"binomial": totalBinom, "skip": totalSkip} {
		if math.Abs(float64(total)-mean)/mean > 0.02 {
			t.Errorf("%s path: total %d, want ~%v", name, total, mean)
		}
	}
}

// TestPerEdgeProbability: each specific edge appears with probability p.
func TestPerEdgeProbability(t *testing.T) {
	const n = 30
	const p = 0.2
	const trials = 4000
	counts := make(map[graph.Edge]int)
	for s := uint64(0); s < trials; s++ {
		el, err := generate(Params{N: n, P: p, Directed: true, Seed: s, Chunks: 3}, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range el.Edges {
			counts[e]++
		}
	}
	sigma := math.Sqrt(p * (1 - p) / trials)
	bad := 0
	for u := uint64(0); u < n; u++ {
		for v := uint64(0); v < n; v++ {
			if u == v {
				continue
			}
			frac := float64(counts[graph.Edge{U: u, V: v}]) / trials
			if math.Abs(frac-p) > 5*sigma {
				bad++
			}
		}
	}
	// With ~870 edges tested at 5 sigma, even a few outliers would signal
	// a real bias.
	if bad > 3 {
		t.Errorf("%d edges deviate by more than 5 sigma", bad)
	}
}

func TestWorkerIndependence(t *testing.T) {
	for _, skip := range []bool{false, true} {
		params := Params{N: 800, P: 0.01, Seed: 5, Chunks: 16, SkipSampling: skip}
		base, err := generate(params, 1)
		if err != nil {
			t.Fatal(err)
		}
		base.Sort()
		got, err := generate(params, 8)
		if err != nil {
			t.Fatal(err)
		}
		got.Sort()
		if got.Len() != base.Len() {
			t.Fatalf("skip=%v: edge count depends on workers", skip)
		}
		for i := range base.Edges {
			if base.Edges[i] != got.Edges[i] {
				t.Fatalf("skip=%v: edge %d differs", skip, i)
			}
		}
	}
}

// TestRedundancyConsistency: both owners of a chunk pair emit mirrored
// copies of exactly the same pairs.
func TestRedundancyConsistency(t *testing.T) {
	params := Params{N: 400, P: 0.02, Seed: 13, Chunks: 6}
	all, err := generate(params, 4)
	if err != nil {
		t.Fatal(err)
	}
	present := make(map[graph.Edge]int)
	for _, e := range all.Edges {
		present[e]++
	}
	for e, c := range present {
		if c != 1 {
			t.Fatalf("edge %v emitted %d times, want exactly once", e, c)
		}
		if present[graph.Edge{U: e.V, V: e.U}] != 1 {
			t.Fatalf("edge %v has no mirror", e)
		}
	}
}

func TestExtremes(t *testing.T) {
	// p = 0: empty graph.
	el, err := generate(Params{N: 100, P: 0, Seed: 1, Chunks: 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if el.Len() != 0 {
		t.Errorf("p=0 produced %d edges", el.Len())
	}
	// p = 1: complete graph.
	el, err = generate(Params{N: 50, P: 1, Directed: true, Seed: 1, Chunks: 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if el.Len() != 50*49 {
		t.Errorf("p=1 directed produced %d edges, want %d", el.Len(), 50*49)
	}
	el, err = generate(Params{N: 50, P: 1, Seed: 1, Chunks: 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(el.UndirectedSet()) != 50*49/2 {
		t.Errorf("p=1 undirected produced %d pairs, want %d", len(el.UndirectedSet()), 50*49/2)
	}
}

func TestValidate(t *testing.T) {
	if err := (Params{N: 0, P: 0.5}).Validate(); err == nil {
		t.Error("n=0 accepted")
	}
	if err := (Params{N: 10, P: -0.1}).Validate(); err == nil {
		t.Error("negative p accepted")
	}
	if err := (Params{N: 10, P: 1.1}).Validate(); err == nil {
		t.Error("p>1 accepted")
	}
	if err := (Params{N: 4, P: 0.5, Chunks: 5}).Validate(); err == nil {
		t.Error("chunks>n accepted")
	}
}

func TestPropertyNoLoopsNoDuplicates(t *testing.T) {
	f := func(seed uint16, nRaw uint16, pRaw uint16, cRaw uint8, directed, skip bool) bool {
		n := uint64(nRaw%300) + 2
		p := float64(pRaw) / 65536.0 * 0.2
		chunks := uint64(cRaw%6) + 1
		if chunks > n {
			chunks = n
		}
		params := Params{N: n, P: p, Directed: directed, Seed: uint64(seed), Chunks: chunks, SkipSampling: skip}
		el, err := generate(params, 2)
		if err != nil {
			return false
		}
		return el.CountSelfLoops() == 0 && el.CountDuplicates() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkDirectedChunkBinomial(b *testing.B) {
	p := Params{N: 1 << 18, P: 1.0 / (1 << 12), Directed: true, Seed: 1, Chunks: 16}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		generateChunk(p, 7)
	}
}

func BenchmarkDirectedChunkSkip(b *testing.B) {
	p := Params{N: 1 << 18, P: 1.0 / (1 << 12), Directed: true, Seed: 1, Chunks: 16, SkipSampling: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		generateChunk(p, 7)
	}
}

// TestStreamUndirectedMatchesChunk: the streaming sweep must emit exactly
// the collected chunk's edges in order through a small flushing batch, for
// both sampling code paths.
func TestStreamUndirectedMatchesChunk(t *testing.T) {
	for _, skip := range []bool{false, true} {
		for _, chunks := range []uint64{1, 2, 5, 13} {
			p := Params{N: 500, P: 0.02, Seed: 7, Chunks: chunks, SkipSampling: skip}
			for c := uint64(0); c < chunks; c++ {
				want := generateChunk(p, c)
				got := streamBatched(p, c, 7)
				if len(got) != len(want) {
					t.Fatalf("skip=%v chunks=%d pe=%d: streamed %d edges, want %d", skip, chunks, c, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("skip=%v chunks=%d pe=%d: edge %d = %v, want %v", skip, chunks, c, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestStreamUndirectedAllocs: the pair sweep holds only one pair's sampler
// state — no per-pair buffering.
func TestStreamUndirectedAllocs(t *testing.T) {
	p := Params{N: 1 << 12, P: 0.002, Seed: 1, Chunks: 16}
	var sink uint64
	e := core.NewEmitter(make([]graph.Edge, 0, 256), func(full []graph.Edge) ([]graph.Edge, bool) {
		sink += full[0].U
		return full, true
	})
	allocs := testing.AllocsPerRun(5, func() { StreamChunk(p, 8, e) })
	if allocs > 4 {
		t.Errorf("StreamChunk allocates %.0f times per undirected chunk, want O(1)", allocs)
	}
	_ = sink
}
