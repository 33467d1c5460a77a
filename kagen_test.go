package kagen

import (
	"bytes"
	"math"
	"testing"
)

// TestAllModelsSmoke: every registered model produces a valid non-trivial
// instance through the public registry API.
func TestAllModelsSmoke(t *testing.T) {
	params := ModelParams{
		N: 1 << 10, M: 1 << 12, P: 0.01, AvgDeg: 8, Gamma: 2.8, D: 4, Scale: 10,
	}
	opt := Options{Seed: 42, PEs: 4, Workers: 4}
	for _, model := range Models() {
		gen, err := New(model, params, opt)
		if err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		el, err := gen.Generate()
		if err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		if el.Len() == 0 {
			t.Errorf("%s: empty graph", model)
		}
		if el.N == 0 {
			t.Errorf("%s: zero vertices", model)
		}
		for _, e := range el.Edges[:min(100, el.Len())] {
			if e.U >= el.N || e.V >= el.N {
				t.Fatalf("%s: edge %v out of range", model, e)
			}
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestWorkerIndependenceAllModels is the global communication-free
// invariant at the API level: worker count never changes the output.
func TestWorkerIndependenceAllModels(t *testing.T) {
	params := ModelParams{
		N: 600, M: 2400, P: 0.02, AvgDeg: 8, Gamma: 3.0, D: 3, Scale: 9,
	}
	for _, model := range Models() {
		gen1, err := New(model, params, Options{Seed: 7, PEs: 8, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		gen8, err := New(model, params, Options{Seed: 7, PEs: 8, Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		a, err := gen1.Generate()
		if err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		b, err := gen8.Generate()
		if err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		a.Sort()
		b.Sort()
		if a.Len() != b.Len() {
			t.Fatalf("%s: edge counts differ between worker counts", model)
		}
		for i := range a.Edges {
			if a.Edges[i] != b.Edges[i] {
				t.Fatalf("%s: edge %d differs between worker counts", model, i)
			}
		}
	}
}

// TestSeedSensitivity: different seeds give different graphs.
func TestSeedSensitivity(t *testing.T) {
	a, err := GNM(200, 400, true, Options{Seed: 1, PEs: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := GNM(200, 400, true, Options{Seed: 2, PEs: 4})
	if err != nil {
		t.Fatal(err)
	}
	a.Sort()
	b.Sort()
	same := 0
	for i := range a.Edges {
		if a.Edges[i] == b.Edges[i] {
			same++
		}
	}
	if same == a.Len() {
		t.Error("different seeds produced identical graphs")
	}
}

// TestChunkConcatenationEqualsGenerate: Chunk(0..P-1) concatenated equals
// Generate for every model.
func TestChunkConcatenationEqualsGenerate(t *testing.T) {
	params := ModelParams{
		N: 500, M: 1500, P: 0.01, AvgDeg: 6, Gamma: 3.0, D: 2, Scale: 9,
	}
	opt := Options{Seed: 11, PEs: 4, Workers: 2}
	for _, model := range Models() {
		gen, err := New(model, params, opt)
		if err != nil {
			t.Fatal(err)
		}
		whole, err := gen.Generate()
		if err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		var concat EdgeList
		concat.N = whole.N
		for pe := uint64(0); pe < gen.PEs(); pe++ {
			part, err := gen.Chunk(pe)
			if err != nil {
				t.Fatalf("%s chunk %d: %v", model, pe, err)
			}
			concat.Edges = append(concat.Edges, part...)
		}
		whole.Sort()
		concat.Sort()
		if whole.Len() != concat.Len() {
			t.Fatalf("%s: chunk concatenation has %d edges, Generate %d", model, concat.Len(), whole.Len())
		}
		for i := range whole.Edges {
			if whole.Edges[i] != concat.Edges[i] {
				t.Fatalf("%s: edge %d differs", model, i)
			}
		}
	}
}

// TestDegreeExpectations: coarse model-level sanity for the main models.
func TestDegreeExpectations(t *testing.T) {
	opt := Options{Seed: 3, PEs: 8, Workers: 8}

	// G(n,m) undirected: avg degree = 2m/n.
	el, err := GNM(1<<12, 1<<14, false, opt)
	if err != nil {
		t.Fatal(err)
	}
	s := ComputeStats(el)
	want := 2.0 * float64(1<<14) / float64(1<<12)
	if math.Abs(s.AvgDegree-want) > 1e-9 {
		t.Errorf("gnm avg degree %v, want %v", s.AvgDegree, want)
	}

	// RGG 2D at the paper's radius (0.55 sqrt(ln n / n), slightly below
	// the exact threshold ~0.564): a giant component with at most a few
	// stragglers, and average degree ~ n*pi*r^2.
	n := uint64(1 << 11)
	r := RGGConnectivityRadius(n, 2)
	el, err = RGG2D(n, r, opt)
	if err != nil {
		t.Fatal(err)
	}
	s = ComputeStats(el)
	if s.Components > int(n/50) {
		t.Errorf("rgg at connectivity radius has %d components", s.Components)
	}
	wantDeg := float64(n) * math.Pi * r * r
	if s.AvgDegree < wantDeg*0.8 || s.AvgDegree > wantDeg*1.1 {
		t.Errorf("rgg avg degree %v, want ~%v", s.AvgDegree, wantDeg)
	}

	// RDG 2D periodic: avg degree exactly 6.
	el, err = RDG2D(1<<11, opt)
	if err != nil {
		t.Fatal(err)
	}
	s = ComputeStats(el)
	if math.Abs(s.AvgDegree-6) > 0.1 {
		t.Errorf("rdg2d avg degree %v, want 6", s.AvgDegree)
	}

	// BA: m = n*d edges.
	el, err = BA(1<<12, 5, opt)
	if err != nil {
		t.Fatal(err)
	}
	if el.Len() != (1<<12)*5 {
		t.Errorf("ba edge count %d", el.Len())
	}
}

// TestRHGAndSRHGSameModel: both hyperbolic generators target the same
// distribution — their average degrees should be close.
func TestRHGAndSRHGSameModel(t *testing.T) {
	opt := Options{Seed: 5, PEs: 4, Workers: 4}
	a, err := RHG(1<<13, 10, 2.9, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SRHG(1<<13, 10, 2.9, opt)
	if err != nil {
		t.Fatal(err)
	}
	da := ComputeStats(a).AvgDegree
	db := ComputeStats(b).AvgDegree
	if math.Abs(da-db)/da > 0.15 {
		t.Errorf("rhg avg degree %v vs srhg %v", da, db)
	}
}

// TestRoundTripIO: a header and edges from the one encoder,
// Format.AppendHeader and AppendEdges, read back through ReadEdgeList in
// every format.
func TestRoundTripIO(t *testing.T) {
	el, err := GNM(100, 300, true, Options{Seed: 1, PEs: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range Formats() {
		payload := f.AppendEdges(f.AppendHeader(nil, el.N), el.Edges)
		if f.Compressed() {
			var buf bytes.Buffer
			gz := f.NewGzipWriter(&buf)
			if _, err := gz.Write(payload); err != nil {
				t.Fatal(err)
			}
			if err := gz.Close(); err != nil {
				t.Fatal(err)
			}
			payload = buf.Bytes()
		}
		back, err := ReadEdgeList(bytes.NewReader(payload), f)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if back.N != el.N || back.Len() != el.Len() {
			t.Fatalf("%s: n=%d with %d edges, want n=%d with %d", f, back.N, back.Len(), el.N, el.Len())
		}
		for i := range el.Edges {
			if back.Edges[i] != el.Edges[i] {
				t.Fatalf("%s: edge %d = %v, want %v", f, i, back.Edges[i], el.Edges[i])
			}
		}
	}
}

func TestUnknownModel(t *testing.T) {
	if _, err := New("bogus", ModelParams{}, Options{}); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestInvalidParamsSurface(t *testing.T) {
	if _, err := GNM(10, 1000, false, Options{}); err == nil {
		t.Error("infeasible m accepted")
	}
	if _, err := GNP(10, 1.5, false, Options{}); err == nil {
		t.Error("p > 1 accepted")
	}
	if _, err := RHG(100, 8, 1.5, Options{}); err == nil {
		t.Error("gamma < 2 accepted")
	}
	if _, err := RGG2D(100, 0, Options{}); err == nil {
		t.Error("r = 0 accepted")
	}
}

// TestSBMBlockCountBounded: the planted partition's dense block matrix is
// built when the generator is, from an untrusted spec in a served job, so
// a negative or huge block count must surface as an error from the first
// chunk — not a panic or an allocation of blocks² probabilities at New.
func TestSBMBlockCountBounded(t *testing.T) {
	for _, blocks := range []int{-1, maxSBMBlocks + 1, 1 << 40} {
		gen, err := New(ModelSBM, ModelParams{N: 1 << 12, P: 0.01, Blocks: blocks}, Options{PEs: 2})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := gen.Chunk(0); err == nil {
			t.Errorf("%d blocks accepted", blocks)
		}
	}
}
