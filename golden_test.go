package kagen

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
)

// edgeHash returns an order-independent digest of an edge list: FNV-1a
// over the sorted edges.
func edgeHash(el *EdgeList) uint64 {
	el.Sort()
	h := fnv.New64a()
	var buf [16]byte
	for _, e := range el.Edges {
		binary.LittleEndian.PutUint64(buf[0:], e.U)
		binary.LittleEndian.PutUint64(buf[8:], e.V)
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestGoldenInstances pins the exact instance produced for each model at a
// fixed (seed, PEs). The instance definition — hash functions, stream
// derivation, splitting recursion, offset computations — is part of the
// library contract: a changed hash here means previously generated graphs
// can no longer be reproduced, which must be a conscious, documented
// decision.
//
// To re-pin after an intentional change: go test -run TestGoldenInstances
// -update-golden, then copy the printed values.
var updateGolden = false

// streamDigest runs every PE of a streamer in order and returns the edge
// count and the order-dependent FNV-1a hash of the emitted stream — unlike
// edgeHash it pins the exact emission order, not just the edge set.
func streamDigest(t *testing.T, s Streamer) (uint64, uint64) {
	t.Helper()
	h := fnv.New64a()
	var buf [16]byte
	var count uint64
	for pe := uint64(0); pe < s.PEs(); pe++ {
		if err := s.StreamChunk(pe, func(e Edge) {
			binary.LittleEndian.PutUint64(buf[0:], e.U)
			binary.LittleEndian.PutUint64(buf[8:], e.V)
			h.Write(buf[:])
			count++
		}); err != nil {
			t.Fatal(err)
		}
	}
	return count, h.Sum64()
}

// TestGoldenStreams pins the exact edge stream of the streamers (count
// and order-dependent hash) at a fixed (seed, PEs). The emission order —
// cell traversal for RGG, simplex traversal for RDG, sweep order for
// sRHG, triangular chunk-row order for the undirected ER variants and SBM
// — is part of the streaming contract: sinks observe it directly, so
// changing it silently changes every streamed file.
func TestGoldenStreams(t *testing.T) {
	opt := Options{Seed: 12345, PEs: 4}
	cases := []struct {
		name      string
		s         Streamer
		wantCount uint64
		wantHash  uint64
	}{
		{"rgg2d", mustNew(t, ModelRGG2D, ModelParams{N: 400, R: 0.08}, opt), 3042, 0xde0663fc97ffefcd},
		{"rgg3d", mustNew(t, ModelRGG3D, ModelParams{N: 300, R: 0.2}, opt), 2290, 0x6790dd562cdce521},
		{"rdg2d", mustNew(t, ModelRDG2D, ModelParams{N: 300}, opt), 1800, 0xf27bb576d30214fd},
		{"rdg3d", mustNew(t, ModelRDG3D, ModelParams{N: 150}, opt), 2354, 0x7aa5a7b658d90345},
		{"srhg", mustNew(t, ModelSRHG, ModelParams{N: 400, AvgDeg: 8, Gamma: 2.8}, opt), 2352, 0x1906675efad96fad},
		{"gnm_undirected", mustNew(t, ModelGNMUndirected, ModelParams{N: 500, M: 2000}, opt), 4000, 0x0ea16647178254c1},
		{"gnp_undirected", mustNew(t, ModelGNPUndirected, ModelParams{N: 500, P: 0.01}, opt), 2496, 0xf9a7284063168c29},
		{"sbm", mustNew(t, ModelSBM, ModelParams{N: 500, Blocks: 2, PIn: 0.05, POut: 0.005}, opt), 6872, 0x078072506fcc5f45},
		// Edge-index order; scale 14 = two full-table draws + a 2-level
		// remainder (rmat instance version 2).
		{"rmat", mustNew(t, ModelRMAT, ModelParams{Scale: 14, M: 3000}, opt), 3000, 0x5760282d05a95283},
	}
	for _, c := range cases {
		count, hash := streamDigest(t, c.s)
		if updateGolden {
			t.Logf("{%q, ..., %d, %#x},", c.name, count, hash)
			continue
		}
		if count != c.wantCount || hash != c.wantHash {
			t.Errorf("%s: stream (count %d, hash %#x), want (%d, %#x) — the streaming order changed",
				c.name, count, hash, c.wantCount, c.wantHash)
		}
	}
}

func TestGoldenInstances(t *testing.T) {
	opt := Options{Seed: 12345, PEs: 4, Workers: 2}
	cases := []struct {
		name string
		gen  func() (*EdgeList, error)
		want uint64
	}{
		{"gnm_directed", func() (*EdgeList, error) { return GNM(500, 2000, true, opt) }, 0xcda3f3199957656f},
		{"gnm_undirected", func() (*EdgeList, error) { return GNM(500, 2000, false, opt) }, 0x20251e4d98c65c09},
		{"gnp_directed", func() (*EdgeList, error) { return GNP(500, 0.01, true, opt) }, 0xdf438599e9c7b05c},
		{"rgg2d", func() (*EdgeList, error) { return RGG2D(400, 0.08, opt) }, 0xa8efe5a2333d7b79},
		{"rgg3d", func() (*EdgeList, error) { return RGG3D(300, 0.2, opt) }, 0x8e51739817f7198d},
		{"rdg2d", func() (*EdgeList, error) { return RDG2D(300, opt) }, 0x4944a7b066e44ea1},
		{"rhg", func() (*EdgeList, error) { return RHG(400, 8, 2.8, opt) }, 0xe49e4820becb8eed},
		{"srhg", func() (*EdgeList, error) { return SRHG(400, 8, 2.8, opt) }, 0x8122a4d747ef66cd},
		{"ba", func() (*EdgeList, error) { return BA(500, 3, opt) }, 0x713b03e34a83f171},
		// Re-pinned with rmat instance version 2: the multi-level alias-table
		// sampler draws one Uint64 per 6 levels where version 1 drew one
		// Float64 per level, so (seed, i) names a different edge of the same
		// distribution (internal/rmat's equivalence tests; DESIGN.md
		// "Linear-work R-MAT").
		{"rmat", func() (*EdgeList, error) { return RMAT(9, 2000, opt) }, 0x78418b87e6b31e39},
		{"sbm", func() (*EdgeList, error) { return SBM(500, 2, 0.05, 0.005, opt) }, 0x7aac482c42e28ecd},
	}
	for _, c := range cases {
		el, err := c.gen()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got := edgeHash(el)
		if updateGolden {
			t.Logf("{%q, ..., %#x},", c.name, got)
			continue
		}
		if got != c.want {
			t.Errorf("%s: instance hash %#x, want %#x — the instance definition changed", c.name, got, c.want)
		}
	}
}
