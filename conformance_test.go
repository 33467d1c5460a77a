package kagen

import (
	"runtime"
	"testing"
)

// conformanceParams are deliberately small: the suite runs every model
// several times over.
var conformanceParams = ModelParams{
	N: 400, M: 1600, P: 0.02, AvgDeg: 8, Gamma: 2.8, D: 3, Scale: 9,
}

func mustNew(t *testing.T, model Model, p ModelParams, opt Options) Generator {
	t.Helper()
	gen, err := New(model, p, opt)
	if err != nil {
		t.Fatalf("%s: %v", model, err)
	}
	return gen
}

func newConformanceGen(t *testing.T, model Model, workers int) Generator {
	t.Helper()
	return mustNew(t, model, conformanceParams, Options{Seed: 99, PEs: 5, Workers: workers})
}

func sameEdges(t *testing.T, model Model, label string, got, want []Edge) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %s has %d edges, want %d", model, label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: %s edge %d = %v, want %v", model, label, i, got[i], want[i])
		}
	}
}

// TestConformance is the cross-model contract suite: for every registry
// model it asserts that (a) Generate equals the concatenated Chunk
// outputs edge for edge, (b) the output is invariant under the worker
// count, and (c) StreamChunk emits exactly the Chunk edges — including
// through the parallel streaming runtime.
func TestConformance(t *testing.T) {
	for _, model := range Models() {
		model := model
		t.Run(string(model), func(t *testing.T) {
			t.Parallel()
			gen := newConformanceGen(t, model, 2)
			whole, err := gen.Generate()
			if err != nil {
				t.Fatal(err)
			}

			// (a) Chunk concatenation equals Generate, in order.
			var concat []Edge
			for pe := uint64(0); pe < gen.PEs(); pe++ {
				part, err := gen.Chunk(pe)
				if err != nil {
					t.Fatalf("chunk %d: %v", pe, err)
				}
				concat = append(concat, part...)
			}
			sameEdges(t, model, "chunk concatenation", concat, whole.Edges)

			// (b) Worker-count invariance, byte for byte (not just as sets).
			for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
				alt, err := newConformanceGen(t, model, workers).Generate()
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if alt.N != whole.N {
					t.Fatalf("workers=%d: n %d, want %d", workers, alt.N, whole.N)
				}
				sameEdges(t, model, "worker-invariance", alt.Edges, whole.Edges)
			}

			// (c) Streaming parity.
			if gen.N() != whole.N {
				t.Fatalf("streamer N %d, want %d", gen.N(), whole.N)
			}
			for pe := uint64(0); pe < gen.PEs(); pe++ {
				want, err := gen.Chunk(pe)
				if err != nil {
					t.Fatal(err)
				}
				var got []Edge
				if err := gen.StreamChunk(pe, func(e Edge) { got = append(got, e) }); err != nil {
					t.Fatalf("stream chunk %d: %v", pe, err)
				}
				sameEdges(t, model, "stream/chunk parity", got, want)
			}

			// The parallel streaming runtime delivers the same stream for
			// any worker count.
			for _, workers := range []int{1, 3} {
				sink := &collectSink{}
				if err := StreamChunksFrom(gen, 0, gen.PEs(), workers, 0, sink); err != nil {
					t.Fatalf("StreamChunksFrom workers=%d: %v", workers, err)
				}
				if sink.n != whole.N || sink.pes != gen.PEs() {
					t.Fatalf("sink header (%d, %d), want (%d, %d)",
						sink.n, sink.pes, whole.N, gen.PEs())
				}
				if !sink.closed {
					t.Fatal("sink not closed")
				}
				sameEdges(t, model, "pe.Stream delivery", sink.edges, whole.Edges)
			}
		})
	}
}

// collectSink gathers the stream in memory and asserts the sink protocol:
// per PE in increasing order, zero or more non-empty Batch calls followed
// by exactly one EndPE.
type collectSink struct {
	n, pes uint64
	lastPE int // last PE whose EndPE arrived
	edges  []Edge
	closed bool
}

func (c *collectSink) Begin(n, pes uint64) error {
	c.n, c.pes = n, pes
	c.lastPE = -1
	return nil
}

func (c *collectSink) Batch(pe uint64, edges []Edge) error {
	if int(pe) != c.lastPE+1 {
		panic("sink: batch for a PE other than the delivery head")
	}
	if len(edges) == 0 {
		panic("sink: empty batch delivered")
	}
	c.edges = append(c.edges, edges...)
	return nil
}

func (c *collectSink) EndPE(pe uint64) error {
	if int(pe) != c.lastPE+1 {
		panic("sink: EndPE out of order")
	}
	c.lastPE = int(pe)
	return nil
}

func (c *collectSink) Close() error {
	c.closed = true
	return nil
}

// TestStreamerConstructorsMatchRegistry: the one-shot helpers generate
// exactly what the registry's generators stream for the same parameters.
func TestStreamerConstructorsMatchRegistry(t *testing.T) {
	opt := Options{Seed: 4, PEs: 3}
	cases := []struct {
		model  Model
		p      ModelParams
		helper func() (*EdgeList, error)
	}{
		{ModelRGG2D, ModelParams{N: 300, R: 0.08}, func() (*EdgeList, error) { return RGG2D(300, 0.08, opt) }},
		{ModelRGG3D, ModelParams{N: 200, R: 0.2}, func() (*EdgeList, error) { return RGG3D(200, 0.2, opt) }},
		{ModelRDG2D, ModelParams{N: 250}, func() (*EdgeList, error) { return RDG2D(250, opt) }},
		{ModelRDG3D, ModelParams{N: 120}, func() (*EdgeList, error) { return RDG3D(120, opt) }},
		{ModelRHG, ModelParams{N: 300, AvgDeg: 8, Gamma: 2.8}, func() (*EdgeList, error) { return RHG(300, 8, 2.8, opt) }},
		{ModelSRHG, ModelParams{N: 300, AvgDeg: 8, Gamma: 2.8}, func() (*EdgeList, error) { return SRHG(300, 8, 2.8, opt) }},
		{ModelSBM, ModelParams{N: 300, Blocks: 3, PIn: 0.05, POut: 0.005}, func() (*EdgeList, error) { return SBM(300, 3, 0.05, 0.005, opt) }},
	}
	for _, c := range cases {
		want, err := c.helper()
		if err != nil {
			t.Fatalf("%s: %v", c.model, err)
		}
		sink := &collectSink{}
		if err := StreamChunksFrom(mustNew(t, c.model, c.p, opt), 0, opt.PEs, 2, 0, sink); err != nil {
			t.Fatalf("%s: %v", c.model, err)
		}
		sameEdges(t, c.model, "helper vs registry stream", sink.edges, want.Edges)
	}
}

func TestSpatialStreamerErrors(t *testing.T) {
	stream := func(model Model, p ModelParams, opt Options, pe uint64) error {
		return mustNew(t, model, p, opt).StreamChunk(pe, func(Edge) {})
	}
	if stream(ModelRGG2D, ModelParams{N: 100, R: 2.0}, Options{}, 0) == nil {
		t.Error("rgg: invalid radius accepted")
	}
	if stream(ModelRDG3D, ModelParams{N: 4}, Options{}, 0) == nil {
		t.Error("rdg: fewer than dim+2 points accepted")
	}
	if stream(ModelSRHG, ModelParams{N: 100, AvgDeg: 8, Gamma: 1.0}, Options{}, 0) == nil {
		t.Error("srhg: invalid gamma accepted")
	}
	if stream(ModelRGG2D, ModelParams{N: 100, R: 0.1}, Options{PEs: 2}, 7) == nil {
		t.Error("rgg: out-of-range PE accepted")
	}
	if stream(ModelRMAT, ModelParams{Scale: 8, M: 100}, Options{PEs: 2}, 2) == nil {
		t.Error("rmat: out-of-range PE accepted")
	}
}
