package rgg

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// TestInstancePinned pins, for instances large enough to have interior
// cells (which the golden instances barely have), a SHA-256 over every
// chunk's edges in emission order and the total comparison count. The
// pins were computed before interior cells took the in-chunk neighbour
// path and neighbour chunks went sparse; they must never move.
func TestInstancePinned(t *testing.T) {
	for _, tc := range []struct {
		name        string
		p           Params
		sha         string
		comparisons uint64
	}{
		// 4x4 chunks over 7 PEs (two or three chunks each), 20 cells per
		// chunk side.
		{"2d/chunks=7", Params{N: 20000, Dim: 2, Seed: 31, Chunks: 7},
			"10c4ba3da9eaa41fd85f0fca937454c1c205b8f3d50be23724c2514a979874b1", 553818},
		// 4x4x4 chunks over 27 PEs, 6 cells per chunk side.
		{"3d/chunks=27", Params{N: 30000, Dim: 3, Seed: 32, Chunks: 27},
			"f47dbb533c8d13a3b56adda3ff9c0e6ae48d7c2bb13ab43457d42a33982f35f5", 1614520},
		// 2x2x2 chunks, 10 cells per chunk side.
		{"3d/chunks=8", Params{N: 1 << 14, Dim: 3, Seed: 33, Chunks: 8},
			"3a3b8ca972b186d12ba7d761b675357dc36b53ed12929f72324983be8ddbc932", 814970},
		// The rgg_bin_s3 benchmark's shape (4x4 chunks, connectivity
		// radius) scaled to n = 2^16: 34 cells per chunk side.
		{"2d/chunks=16", Params{N: 1 << 16, Dim: 2, Seed: 34, Chunks: 16},
			"aeec7b506a776f1590b91cbd6b82fdd59611e8955b7e2af914f65167527ae844", 2068506},
		// r above the chunk side: one cell per chunk, two stencil layers.
		{"2d/chunks=64/layers=2", Params{N: 1000, R: 0.15, Dim: 2, Seed: 35, Chunks: 64},
			"18667b36a266d40db6171207ae2136e0941770cfc54e5ead32a58768a6cef03b", 285348},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.p
			if p.R == 0 {
				p.R = ConnectivityRadius(p.N, p.Dim)
			}
			h := sha256.New()
			var buf [16]byte
			var comparisons uint64
			for pe := uint64(0); pe < p.Chunks; pe++ {
				res := generateChunk(p, pe)
				for _, e := range res.Edges {
					binary.LittleEndian.PutUint64(buf[:8], e.U)
					binary.LittleEndian.PutUint64(buf[8:], e.V)
					h.Write(buf[:])
				}
				comparisons += res.Comparisons
			}
			sum := hex.EncodeToString(h.Sum(nil))
			if sum != tc.sha || comparisons != tc.comparisons {
				t.Errorf("sha %s comparisons %d, pinned %s %d", sum, comparisons, tc.sha, tc.comparisons)
			}
		})
	}
}
