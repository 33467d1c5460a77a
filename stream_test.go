package kagen

import (
	"testing"
)

// TestStreamersMatchChunk: the streaming path must emit exactly the edges
// of the materializing path, in the same deterministic order.
func TestStreamersMatchChunk(t *testing.T) {
	opt := Options{Seed: 17, PEs: 4}
	cases := []struct {
		name string
		gen  Generator
	}{
		{"gnm", mustNew(t, ModelGNMDirected, ModelParams{N: 1000, M: 8000}, opt)},
		{"gnm_undirected", mustNew(t, ModelGNMUndirected, ModelParams{N: 1000, M: 8000}, opt)},
		{"gnp", mustNew(t, ModelGNPDirected, ModelParams{N: 1000, P: 0.01}, opt)},
		{"gnp_undirected", mustNew(t, ModelGNPUndirected, ModelParams{N: 1000, P: 0.01}, opt)},
		{"sbm", mustNew(t, ModelSBM, ModelParams{N: 1000, Blocks: 4, PIn: 0.04, POut: 0.004}, opt)},
		{"ba", mustNew(t, ModelBA, ModelParams{N: 1000, D: 3}, opt)},
		{"rmat", mustNew(t, ModelRMAT, ModelParams{Scale: 10, M: 5000}, opt)},
	}
	for _, c := range cases {
		for pe := uint64(0); pe < c.gen.PEs(); pe++ {
			want, err := c.gen.Chunk(pe)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			var got []Edge
			if err := c.gen.StreamChunk(pe, func(e Edge) { got = append(got, e) }); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s pe %d: %d streamed vs %d materialized", c.name, pe, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s pe %d: edge %d differs (%v vs %v)", c.name, pe, i, got[i], want[i])
				}
			}
		}
	}
}

// TestStreamBatchSizeInvariance: the sink must observe the identical edge
// sequence for every batch size — batch boundaries carry no meaning. This
// is the kagen-level referee for the batch pipeline; the pe package holds
// the generic counterpart. The undirected triangular streamers are
// included explicitly: their per-pair emission must survive arbitrary
// re-batching too.
func TestStreamBatchSizeInvariance(t *testing.T) {
	opt := Options{Seed: 9, PEs: 4}
	cases := []struct {
		name Model
		s    Streamer
	}{
		{"gnm", mustNew(t, ModelGNMDirected, ModelParams{N: 600, M: 4000}, opt)},
		{"gnm_undirected", mustNew(t, ModelGNMUndirected, ModelParams{N: 600, M: 4000}, opt)},
		{"gnp_undirected", mustNew(t, ModelGNPUndirected, ModelParams{N: 600, P: 0.02}, opt)},
		{"sbm", mustNew(t, ModelSBM, ModelParams{N: 600, Blocks: 3, PIn: 0.05, POut: 0.005}, opt)},
	}
	for _, c := range cases {
		want := &collectSink{}
		if err := StreamChunksFrom(c.s, 0, c.s.PEs(), 1, 0, want); err != nil {
			t.Fatal(err)
		}
		for _, batchSize := range []int{1, 7, 4096} {
			for _, workers := range []int{1, 3} {
				got := &collectSink{}
				if err := StreamChunksFrom(c.s, 0, c.s.PEs(), workers, batchSize, got); err != nil {
					t.Fatalf("%s batch=%d workers=%d: %v", c.name, batchSize, workers, err)
				}
				if !got.closed {
					t.Fatalf("%s batch=%d workers=%d: sink not closed", c.name, batchSize, workers)
				}
				sameEdges(t, c.name, "batch-size invariance", got.edges, want.edges)
			}
		}
	}
}

func TestStreamerErrors(t *testing.T) {
	s := mustNew(t, ModelGNMUndirected, ModelParams{N: 10, M: 1000}, Options{PEs: 2}) // m too large
	if err := s.StreamChunk(0, func(Edge) {}); err == nil {
		t.Error("invalid params accepted")
	}
	s = mustNew(t, ModelGNMDirected, ModelParams{N: 100, M: 50}, Options{PEs: 2})
	if err := s.StreamChunk(5, func(Edge) {}); err == nil {
		t.Error("out-of-range PE accepted")
	}
}

// TestStreamerConstantMemoryShape: streaming a large chunk must not retain
// edges — we can only check behaviourally that the callback count matches
// the expected count without building a slice.
func TestStreamerCounts(t *testing.T) {
	const n, m = 1 << 14, 1 << 18
	s := mustNew(t, ModelGNMDirected, ModelParams{N: n, M: m}, Options{Seed: 3, PEs: 8})
	total := 0
	for pe := uint64(0); pe < s.PEs(); pe++ {
		if err := s.StreamChunk(pe, func(Edge) { total++ }); err != nil {
			t.Fatal(err)
		}
	}
	if total != m {
		t.Fatalf("streamed %d edges, want %d", total, m)
	}
}

// TestUndirectedStreamerCounts: the undirected triangular decomposition
// must emit exactly 2m locally-oriented copies across all PEs — every
// sampled pair once per endpoint owner — without any PE holding per-pair
// state.
func TestUndirectedStreamerCounts(t *testing.T) {
	const n, m = 1 << 13, 1 << 16
	s := mustNew(t, ModelGNMUndirected, ModelParams{N: n, M: m}, Options{Seed: 3, PEs: 8})
	total := 0
	for pe := uint64(0); pe < s.PEs(); pe++ {
		if err := s.StreamChunk(pe, func(Edge) { total++ }); err != nil {
			t.Fatal(err)
		}
	}
	if total != 2*m {
		t.Fatalf("streamed %d locally-oriented copies, want %d", total, 2*m)
	}
}
