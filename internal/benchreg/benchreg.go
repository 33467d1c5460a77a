// Package benchreg is the benchmark registry shared by the `go test`
// benchmarks (bench_test.go) and the cmd/benchsuite JSON runner: one leaf
// case per figure configuration of the paper's evaluation (§8, Figs. 6-18)
// plus the ablation benches of DESIGN.md §7. Keeping the bodies here, in a
// non-test package, lets cmd/benchsuite execute the exact same code with
// testing.Benchmark and record the per-benchmark ns/op, B/op and allocs/op
// trajectory in BENCH_kagen.json.
package benchreg

import (
	"context"
	"crypto/sha256"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	kagen "repro"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/delaunay"
	"repro/internal/dist"
	"repro/internal/gnm"
	"repro/internal/gnp"
	"repro/internal/graph"
	"repro/internal/hyperbolic"
	"repro/internal/job"
	"repro/internal/obs"
	"repro/internal/prng"
	"repro/internal/rdg"
	"repro/internal/rgg"
	"repro/internal/rhg"
	"repro/internal/rmat"
	"repro/internal/sbm"
	"repro/internal/srhg"
	"repro/internal/storage"
)

// Case is one leaf benchmark: Name is the full slash-separated benchmark
// name below the "Benchmark" prefix (e.g. "Fig06SeqGNM/kagen/directed").
type Case struct {
	Name string
	F    func(b *testing.B)
}

// Group runs every registered case under the given top-level group as
// sub-benchmarks of b, reconstructing the usual `go test -bench` naming.
func Group(b *testing.B, group string) {
	prefix := group + "/"
	found := false
	for _, c := range All() {
		if !strings.HasPrefix(c.Name, prefix) {
			continue
		}
		found = true
		b.Run(strings.TrimPrefix(c.Name, prefix), c.F)
	}
	if !found {
		b.Fatalf("benchreg: no cases registered under group %q", group)
	}
}

// All returns every leaf case in deterministic order.
func All() []Case {
	var cases []Case
	add := func(name string, f func(b *testing.B)) {
		cases = append(cases, Case{Name: name, F: f})
	}

	// --- Figure 6: sequential Erdős–Rényi, KaGen vs Batagelj–Brandes ---
	{
		const n = 1 << 16
		const m = 1 << 18
		for _, directed := range []bool{true, false} {
			directed := directed
			name := "undirected"
			if directed {
				name = "directed"
			}
			add("Fig06SeqGNM/kagen/"+name, func(b *testing.B) {
				p := gnm.Params{N: n, M: m, Directed: directed, Seed: 1, Chunks: 1}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					gnm.GenerateChunk(p, 0)
				}
			})
			add("Fig06SeqGNM/batagelj-brandes/"+name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					baseline.GNMBatageljBrandes(n, m, directed, uint64(i))
				}
			})
		}
	}

	// --- Figures 7/8: G(n,m) weak and strong scaling (per-PE chunk cost) ---
	{
		const perPE = 1 << 16 // m/P
		for _, P := range []uint64{1, 16, 256} {
			for _, directed := range []bool{true, false} {
				P, directed := P, directed
				add(fmt.Sprintf("Fig07WeakGNM/P=%d/directed=%v", P, directed), func(b *testing.B) {
					m := uint64(perPE) * P
					p := gnm.Params{N: m / 16, M: m, Directed: directed, Seed: 1, Chunks: P}
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						gnm.GenerateChunk(p, P/2)
					}
				})
			}
		}
	}
	{
		const m = 1 << 20
		for _, P := range []uint64{4, 16, 64, 256} {
			P := P
			add(fmt.Sprintf("Fig08StrongGNM/P=%d", P), func(b *testing.B) {
				p := gnm.Params{N: m / 16, M: m, Directed: true, Seed: 1, Chunks: P}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					gnm.GenerateChunk(p, P/2)
				}
			})
		}
	}

	// --- Figure 9: 2-D RGG, KaGen vs Holtgrewe et al. ---
	{
		const perPE = 1 << 12
		const P = 16
		n := uint64(perPE * P)
		r := rgg.ConnectivityRadius(n, 2) / 4 // sqrt(P) = 4
		add("Fig09RGG2DComparison/kagen-chunk", func(b *testing.B) {
			p := rgg.Params{N: n, R: r, Dim: 2, Seed: 1, Chunks: P}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rgg.GenerateChunk(p, P/2)
			}
		})
		add("Fig09RGG2DComparison/holtgrewe-perPE", func(b *testing.B) {
			// The baseline's computation per PE: its share of the sorted
			// generation (measured over the full instance and divided).
			pts := baseline.UniformPoints(n, 2, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				baseline.RGGHoltgrewe(pts, r)
			}
		})
	}

	// --- Figures 10/11: RGG weak and strong scaling ---
	{
		const perPE = 1 << 12
		for _, dim := range []int{2, 3} {
			for _, P := range []uint64{1, 16, 64} {
				dim, P := dim, P
				add(fmt.Sprintf("Fig10WeakRGG/dim=%d/P=%d", dim, P), func(b *testing.B) {
					n := uint64(perPE) * P
					p := rgg.Params{N: n, Dim: dim, Seed: 1, Chunks: P}
					p.R = rgg.ConnectivityRadius(n, dim)
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						rgg.GenerateChunk(p, P/2)
					}
				})
			}
		}
	}
	{
		const n = 1 << 16
		for _, dim := range []int{2, 3} {
			for _, P := range []uint64{4, 16, 64} {
				dim, P := dim, P
				add(fmt.Sprintf("Fig11StrongRGG/dim=%d/P=%d", dim, P), func(b *testing.B) {
					p := rgg.Params{N: n, Dim: dim, Seed: 1, Chunks: P}
					p.R = rgg.ConnectivityRadius(n, dim)
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						rgg.GenerateChunk(p, P/2)
					}
				})
			}
		}
	}

	// --- Figures 12/13: RDG weak and strong scaling ---
	{
		const perPE = 1 << 10
		for _, dim := range []int{2, 3} {
			for _, P := range []uint64{1, 4, 16} {
				dim, P := dim, P
				add(fmt.Sprintf("Fig12WeakRDG/dim=%d/P=%d", dim, P), func(b *testing.B) {
					p := rdg.Params{N: uint64(perPE) * P, Dim: dim, Seed: 1, Chunks: P}
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						rdg.GenerateChunk(p, P/2)
					}
				})
			}
		}
	}
	{
		const n = 1 << 14
		for _, dim := range []int{2, 3} {
			for _, P := range []uint64{4, 16, 64} {
				dim, P := dim, P
				add(fmt.Sprintf("Fig13StrongRDG/dim=%d/P=%d", dim, P), func(b *testing.B) {
					p := rdg.Params{N: n, Dim: dim, Seed: 1, Chunks: P}
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						rdg.GenerateChunk(p, P/2)
					}
				})
			}
		}
	}

	// --- Figure 14: shared-memory RHG race ---
	{
		const n = 1 << 14
		const deg = 16
		for _, gamma := range []float64{2.2, 3.0} {
			gamma := gamma
			add(fmt.Sprintf("Fig14RHGRace/nkgen/gamma=%v", gamma), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					baseline.RHGNkGen(n, deg, gamma, uint64(i))
				}
			})
			add(fmt.Sprintf("Fig14RHGRace/rhg/gamma=%v", gamma), func(b *testing.B) {
				p := rhg.Params{N: n, AvgDeg: deg, Gamma: gamma, Seed: 1, Chunks: 1}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					rhg.GenerateChunk(p, 0)
				}
			})
			add(fmt.Sprintf("Fig14RHGRace/srhg/gamma=%v", gamma), func(b *testing.B) {
				p := srhg.Params{N: n, AvgDeg: deg, Gamma: gamma, Seed: 1, Chunks: 1}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					srhg.GenerateChunk(p, 0)
				}
			})
		}
	}

	// --- Figures 15/16: RHG weak and strong scaling ---
	{
		const perPE = 1 << 11
		for _, P := range []uint64{1, 4, 16} {
			P := P
			add(fmt.Sprintf("Fig15WeakRHG/rhg/P=%d", P), func(b *testing.B) {
				p := rhg.Params{N: uint64(perPE) * P, AvgDeg: 16, Gamma: 3.0, Seed: 1, Chunks: P}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					rhg.GenerateChunk(p, P/2)
				}
			})
			add(fmt.Sprintf("Fig15WeakRHG/srhg/P=%d", P), func(b *testing.B) {
				p := srhg.Params{N: uint64(perPE) * P, AvgDeg: 16, Gamma: 3.0, Seed: 1, Chunks: P}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					srhg.GenerateChunk(p, P/2)
				}
			})
		}
	}
	{
		const n = 1 << 14
		for _, P := range []uint64{4, 16, 64} {
			P := P
			add(fmt.Sprintf("Fig16StrongRHG/rhg/P=%d", P), func(b *testing.B) {
				p := rhg.Params{N: n, AvgDeg: 16, Gamma: 3.0, Seed: 1, Chunks: P}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					rhg.GenerateChunk(p, P/2)
				}
			})
			add(fmt.Sprintf("Fig16StrongRHG/srhg/P=%d", P), func(b *testing.B) {
				p := srhg.Params{N: n, AvgDeg: 16, Gamma: 3.0, Seed: 1, Chunks: P}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					srhg.GenerateChunk(p, P/2)
				}
			})
		}
	}

	// --- Figures 17/18: R-MAT weak and strong scaling. The alias tables
	// belong to set-up (one build per streamer, shared by all its chunks),
	// so rmatWarm builds them before the timed loop. ---
	rmatWarm := func(b *testing.B, p rmat.Params) *rmat.Generator {
		g := rmat.NewGenerator(p)
		if _, err := g.Edge(0); err != nil {
			b.Fatal(err)
		}
		return g
	}
	rmatChunk := func(b *testing.B, p rmat.Params, chunk uint64) {
		g := rmatWarm(b, p)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := g.GenerateChunk(chunk); err != nil {
				b.Fatal(err)
			}
		}
	}
	{
		const perPE = 1 << 14
		for _, P := range []uint64{1, 16, 256} {
			P := P
			add(fmt.Sprintf("Fig17WeakRMAT/P=%d", P), func(b *testing.B) {
				m := uint64(perPE) * P
				scale := uint(14)
				for (uint64(1) << scale) < m/16 {
					scale++
				}
				rmatChunk(b, rmat.Params{Scale: scale, M: m, Seed: 1, Chunks: P}, P/2)
			})
		}
	}
	{
		const m = 1 << 20
		for _, P := range []uint64{4, 16, 64, 256} {
			P := P
			add(fmt.Sprintf("Fig18StrongRMAT/P=%d", P), func(b *testing.B) {
				rmatChunk(b, rmat.Params{Scale: 16, M: m, Seed: 1, Chunks: P}, P/2)
			})
		}
	}

	// The two costs the chunk rows above are made of: one edge at the
	// benchmark workload's scale (3 full-table draws + a 4-level remainder)
	// and the once-per-streamer table build.
	{
		p := rmat.Params{Scale: 22, M: 1 << 22, Seed: 1}
		add("RMAT/edge/scale=22", func(b *testing.B) {
			g := rmatWarm(b, p)
			b.ReportAllocs()
			b.ResetTimer()
			var sum uint64
			for i := 0; i < b.N; i++ {
				e, _ := g.Edge(uint64(i)) // cannot fail once warm
				sum += e.U ^ e.V
			}
			_ = sum
		})
		add("RMAT/table-build", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := rmat.NewGenerator(p).Edge(0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// --- Undirected triangular streamers (DESIGN.md "Triangular stream
	// decomposition"): steady-state allocations per streamed chunk must stay
	// O(1) — the per-pair count map these replaced grew with P. The CI
	// allocation gate enforces the bound against the committed baseline. ---
	{
		const P = 16
		const m = uint64(1<<16) * P
		const n = m / 16
		add("StreamUndirected/gnm/P=16", func(b *testing.B) {
			p := gnm.Params{N: n, M: m, Directed: false, Seed: 1, Chunks: P}
			b.ReportAllocs()
			var edges uint64
			for i := 0; i < b.N; i++ {
				gnm.StreamUndirectedChunk(p, P/2, func(graph.Edge) { edges++ })
			}
			_ = edges
		})
		add("StreamUndirected/gnp/P=16", func(b *testing.B) {
			// Edge probability chosen so the expected edge count matches the
			// G(n,m) case above.
			prob := float64(m) / (float64(n) * float64(n-1) / 2)
			p := gnp.Params{N: n, P: prob, Seed: 1, Chunks: P}
			b.ReportAllocs()
			var edges uint64
			for i := 0; i < b.N; i++ {
				gnp.StreamUndirectedChunk(p, P/2, func(graph.Edge) { edges++ })
			}
			_ = edges
		})
		add("StreamUndirected/sbm/P=16", func(b *testing.B) {
			prob := float64(m) / (float64(n) * float64(n-1) / 2)
			p := sbm.PlantedPartition(n, 4, 4*prob, prob/2, 1, P)
			var edges uint64
			// One warm call so the single-iteration CI quick run measures
			// steady state, not first-call setup allocations.
			sbm.StreamChunk(p, P/2, func(graph.Edge) { edges++ })
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sbm.StreamChunk(p, P/2, func(graph.Edge) { edges++ })
			}
			_ = edges
		})
	}

	// --- Cell-index optimization benches (DESIGN.md "Flat cell index") ---

	// Per-PE setup must not scale with NumChunks: NewCellAccess plus one
	// chunk rank query at P=4096 is O(log P) draws, where the former eager
	// implementation materialized all 4096 chunk counts.
	{
		const n = 1 << 22
		r := rgg.ConnectivityRadius(n, 2)
		add("CellIndex/setup/P=4096", func(b *testing.B) {
			g := rgg.NewGrid(n, 2, rgg.RGGTarget(n, 2, r), 4096, 1,
				core.TagRGGCounts, core.TagRGGCell, core.TagRGGPoints)
			b.ReportAllocs()
			b.ResetTimer()
			var total uint64
			for i := 0; i < b.N; i++ {
				acc := rgg.NewCellAccess(g)
				total += acc.ChunkTotal(g.NumChunks / 2)
			}
			_ = total
		})
	}

	// Steady-state streaming allocations of the spatial generators at
	// Fig09/Fig12 scale — the arena keeps these near-constant per chunk.
	{
		const perPE = 1 << 12
		const P = 16
		n := uint64(perPE * P)
		add("CellIndex/rgg-stream-fig09", func(b *testing.B) {
			p := rgg.Params{N: n, R: rgg.ConnectivityRadius(n, 2) / 4, Dim: 2, Seed: 1, Chunks: P}
			b.ReportAllocs()
			var edges uint64
			for i := 0; i < b.N; i++ {
				rgg.StreamChunk(p, P/2, func(graph.Edge) { edges++ })
			}
			_ = edges
		})
		add("CellIndex/rdg-stream", func(b *testing.B) {
			p := rdg.Params{N: 1 << 12, Dim: 2, Seed: 1, Chunks: 4}
			b.ReportAllocs()
			var edges uint64
			for i := 0; i < b.N; i++ {
				rdg.StreamChunk(p, 2, func(graph.Edge) { edges++ })
			}
			_ = edges
		})
	}

	// --- Ablations (DESIGN.md §7) ---

	// A1: binomial sampler inversion vs BTRS around the crossover.
	{
		binomials := []struct {
			name string
			n    uint64
			p    float64
		}{
			{"inversion/np=5", 1 << 16, 5.0 / (1 << 16)},
			{"btrs/np=50", 1 << 16, 50.0 / (1 << 16)},
			{"btrs/np=5000", 1 << 20, 5000.0 / (1 << 20)},
		}
		for _, c := range binomials {
			c := c
			add("AblationBinomial/"+c.name, func(b *testing.B) {
				r := prng.NewFromRaw(1)
				for i := 0; i < b.N; i++ {
					dist.Binomial(r, c.n, c.p)
				}
			})
		}
	}

	// A2: RHG adjacency test with precomputed constants (Eq. 9) vs direct
	// hyperbolic distance (Eq. 4) — the optimization of §7.2.1.
	{
		add("AblationRHGTrig/precomputed", func(b *testing.B) {
			geo, pts := ablationTrigSetup()
			acc := 0
			for i := 0; i < b.N; i++ {
				p := pts[i%256]
				q := pts[(i*7+1)%256]
				if geo.IsNeighbor(p, q) {
					acc++
				}
			}
			_ = acc
		})
		add("AblationRHGTrig/direct", func(b *testing.B) {
			_, pts := ablationTrigSetup()
			acc := 0
			for i := 0; i < b.N; i++ {
				p := pts[i%256]
				q := pts[(i*7+1)%256]
				if hyperbolic.Distance(p.R, p.Theta, q.R, q.Theta) < 20 {
					acc++
				}
			}
			_ = acc
		})
	}

	// A3: G(n,p) chunk sampling, binomial+Algorithm D vs geometric skips.
	{
		base := gnp.Params{N: 1 << 16, P: 1.0 / (1 << 10), Directed: true, Seed: 1, Chunks: 16}
		add("AblationGNPSkip/binomial+vitter", func(b *testing.B) {
			p := base
			for i := 0; i < b.N; i++ {
				gnp.GenerateChunk(p, 7)
			}
		})
		add("AblationGNPSkip/geometric-skip", func(b *testing.B) {
			p := base
			p.SkipSampling = true
			for i := 0; i < b.N; i++ {
				gnp.GenerateChunk(p, 7)
			}
		})
	}

	// A4: RGG cell side max(r, n^(-1/d)) vs always r — the clamp avoids
	// overly fine grids for sub-density radii.
	{
		const n = 1 << 14
		r := rgg.ConnectivityRadius(n, 2) / 8 // much smaller than n^-1/2
		add("AblationRGGCell/clamped-target", func(b *testing.B) {
			p := rgg.Params{N: n, R: r, Dim: 2, Seed: 1, Chunks: 4}
			for i := 0; i < b.N; i++ {
				rgg.GenerateChunk(p, 1)
			}
		})
		// The unclamped variant is emulated by the naive baseline on the same
		// density to show the cost of losing the grid bound entirely.
		add("AblationRGGCell/no-grid-naive", func(b *testing.B) {
			pts := baseline.UniformPoints(n/4, 2, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				baseline.RGGNaive(pts, 2, r)
			}
		})
	}

	// A5: sRHG single-chunk sweep cost across gamma (cell batching pressure).
	for _, gamma := range []float64{2.2, 2.6, 3.0, 4.0} {
		gamma := gamma
		add(fmt.Sprintf("AblationSRHGGamma/gamma=%v", gamma), func(b *testing.B) {
			p := srhg.Params{N: 1 << 13, AvgDeg: 16, Gamma: gamma, Seed: 1, Chunks: 4}
			for i := 0; i < b.N; i++ {
				srhg.GenerateChunk(p, 1)
			}
		})
	}

	// A6: Morton-ordered chunk ownership vs an (emulated) row-major one: the
	// Z-order keeps a PE's chunks adjacent, which shrinks the ghost surface.
	// We measure the ghost recomputation volume indirectly via chunk runtime
	// at equal parameters but different PE->chunk mappings.
	{
		const n = 1 << 14
		p := rgg.Params{N: n, Dim: 2, Seed: 1, Chunks: 16}
		p.R = rgg.ConnectivityRadius(n, 2)
		add("AblationMorton/morton-contiguous", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rgg.GenerateChunk(p, 5)
			}
		})
		// Emulated scattered ownership: the same number of chunks gathered
		// from the four corners of the Morton range (one chunk from each
		// quadrant), maximizing ghost surface.
		add("AblationMorton/scattered", func(b *testing.B) {
			q := p
			q.Chunks = 64
			for i := 0; i < b.N; i++ {
				rgg.GenerateChunk(q, 0)
				rgg.GenerateChunk(q, 21)
				rgg.GenerateChunk(q, 42)
				rgg.GenerateChunk(q, 63)
			}
		})
	}

	// A7: RHG partitioned (inward+outward queries) vs outward-only mode — the
	// speedup §8.6 attributes to skipping the inward recomputation.
	{
		base := rhg.Params{N: 1 << 14, AvgDeg: 16, Gamma: 2.5, Seed: 1, Chunks: 16}
		add("AblationRHGOutward/partitioned", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rhg.GenerateChunk(base, 7)
			}
		})
		add("AblationRHGOutward/outward-only", func(b *testing.B) {
			p := base
			p.OutwardOnly = true
			for i := 0; i < b.N; i++ {
				rhg.GenerateChunk(p, 7)
			}
		})
	}

	// A8: derived-stream setup cost — xoshiro256** (used) vs a full Mersenne
	// Twister seeding per structural stream (the naive fidelity choice).
	add("AblationStreamSetup/xoshiro", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := prng.New(42, uint64(i))
			r.Uint64()
		}
	})
	add("AblationStreamSetup/mt19937", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := prng.NewMTHashed(42, uint64(i))
			r.Uint64()
		}
	})

	// --- Delaunay insert hot path (adaptive predicates + arenas) ---
	{
		const n = 4096
		add("Delaunay/insert2d", func(b *testing.B) {
			r := prng.New(7, 1)
			pts := make([][2]float64, n)
			for i := range pts {
				pts[i] = [2]float64{r.Float64(), r.Float64()}
			}
			t := delaunay.NewT2(n)
			// Warm the arenas past any hint shortfall so even a 1-iteration
			// run measures the steady state.
			for _, p := range pts {
				t.Insert(p)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t.Reset()
				for _, p := range pts {
					t.Insert(p)
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "inserts/s")
		})
		add("Delaunay/insert3d", func(b *testing.B) {
			r := prng.New(7, 2)
			pts := make([][3]float64, n)
			for i := range pts {
				pts[i] = [3]float64{r.Float64(), r.Float64(), r.Float64()}
			}
			t := delaunay.NewT3(n)
			for _, p := range pts {
				t.Insert(p)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t.Reset()
				for _, p := range pts {
					t.Insert(p)
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "inserts/s")
		})
		// Filter hit-rate on the RDG-like workload: points plus torus-wrapped
		// copies, whose exactly coplanar quadruples force the exact fallback.
		add("Delaunay/filter3d", func(b *testing.B) {
			const half = 1024
			r := prng.New(7, 3)
			pts := make([][3]float64, 0, 2*half)
			for i := 0; i < half; i++ {
				p := [3]float64{r.Float64(), r.Float64(), r.Float64()}
				pts = append(pts, p, [3]float64{p[0] + 1, p[1], p[2]})
			}
			t := delaunay.NewT3(len(pts))
			for _, p := range pts {
				t.Insert(p)
			}
			var stats delaunay.FilterStats
			delaunay.CollectFilterStats(&stats)
			defer delaunay.CollectFilterStats(nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t.Reset()
				for _, p := range pts {
					t.Insert(p)
				}
			}
			b.StopTimer()
			if tot := stats.InSphereFast + stats.InSphereExact; tot > 0 {
				b.ReportMetric(float64(stats.InSphereExact)/float64(tot), "insphere-exact-frac")
			}
			if tot := stats.Orient3DFast + stats.Orient3DExact; tot > 0 {
				b.ReportMetric(float64(stats.Orient3DExact)/float64(tot), "orient3d-exact-frac")
			}
		})
	}

	// --- Observability hot-path cost (DESIGN.md "Observability") ---
	// The disabled paths are what every generation hot loop pays when
	// nothing is tracing or logging; the allocation gate pins them at
	// zero allocs/op so instrumentation can never tax an untraced run.
	{
		add("Obs/span-disabled", func(b *testing.B) {
			var tr *obs.Trace // nil = tracing off, the production default
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sp := tr.Start("job", "chunk-generate", obs.GenLane(uint64(i)), obs.Span{})
				sp.End()
			}
		})
		add("Obs/span-enabled", func(b *testing.B) {
			tr := obs.NewTrace(b.N + 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sp := tr.Start("job", "chunk-generate", obs.GenLane(uint64(i)), obs.Span{})
				sp.End()
			}
		})
		add("Obs/log-disabled", func(b *testing.B) {
			log := obs.Logger("bench")
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer() // the child-logger setup above is one-time cost
			for i := 0; i < b.N; i++ {
				// The guarded pattern the hot paths use: one leveled Enabled
				// probe, no argument boxing when the level is off.
				if log.Enabled(ctx, slog.LevelDebug) {
					log.Debug("checkpoint", "chunk", i)
				}
			}
		})
	}

	// --- Job sink: per-chunk encode on the producing goroutine, and whole
	// text.gz and binary runs on one and two pipeline goroutines ---
	{
		const chunkEdges = 1 << 16
		edges := make([]graph.Edge, 0, chunkEdges)
		gnm.StreamChunk(gnm.Params{N: 1 << 20, M: chunkEdges, Directed: true, Seed: 1, Chunks: 1}, 0,
			func(e graph.Edge) { edges = append(edges, e) })
		for _, format := range []kagen.Format{kagen.FormatText, kagen.FormatBinary, kagen.FormatTextGz} {
			format := format
			add("Job/chunk-encode/"+string(format), func(b *testing.B) {
				encode := job.ChunkEncodeFunc(format)
				encode(edges) // builds the encoder; the 1x CI run measures steady state
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					encode(edges)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(edges)), "ns/edge")
			})
		}
		for _, format := range []string{"text.gz", "binary"} {
			for _, goroutines := range []int{1, 2} {
				format, goroutines := format, goroutines
				add(fmt.Sprintf("Job/run-%s/G=%d", format, goroutines), func(b *testing.B) {
					spec := job.Spec{Model: "gnm_directed", N: 1 << 16, M: 1 << 17, Seed: 1,
						PEs: 2, ChunksPerPE: 8, Workers: 1, Format: format}
					root := b.TempDir()
					b.ReportAllocs()
					b.StopTimer() // only job.Run is timed
					for i := 0; i < b.N; i++ {
						dir := filepath.Join(root, strconv.Itoa(i))
						if err := job.Init(dir, spec); err != nil {
							b.Fatal(err)
						}
						b.StartTimer()
						err := job.Run(dir, 0, job.RunOptions{Goroutines: goroutines})
						b.StopTimer()
						if err != nil {
							b.Fatal(err)
						}
						if err := os.RemoveAll(dir); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(spec.M), "ns/edge")
				})
			}
		}
	}

	// --- Checkpoint path: what a generator pays per chunk boundary (a
	// commit mark: no allocation, no syscall) and what the checkpointer
	// pays per round beside it (one shard Sync and one manifest publish, at
	// the manifest size of the repository benchmark's rmat_bin_fs job) ---
	{
		// openShard starts a filesystem shard and returns its writer and one
		// 64 KiB block with its digest.
		openShard := func(b *testing.B, dir string) (storage.ShardWriter, []byte, [32]byte) {
			store, err := storage.Resolve(dir)
			if err != nil {
				b.Fatal(err)
			}
			sw, err := store.CreateShard(filepath.Join(dir, "shard.bin"))
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { sw.Close() })
			block := make([]byte, 64<<10)
			return sw, block, sha256.Sum256(block)
		}
		add("Storage/fs-shard/commit", func(b *testing.B) {
			sw, block, digest := openShard(b, b.TempDir())
			if _, err := sw.Write(block); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sw.Commit(digest); err != nil {
					b.Fatal(err)
				}
			}
		})
		add("Job/checkpoint-round/fs", func(b *testing.B) {
			// A finished job of rmat_bin_fs's shape — 4 PEs of 16 chunks —
			// supplies a manifest of its final size.
			spec := job.Spec{Model: "gnm_directed", N: 1 << 12, M: 1 << 12, Seed: 1,
				PEs: 4, ChunksPerPE: 16, Workers: 1, Format: "binary"}
			dir := b.TempDir()
			if err := job.Init(dir, spec); err != nil {
				b.Fatal(err)
			}
			if err := job.Run(dir, 0, job.RunOptions{Goroutines: 1}); err != nil {
				b.Fatal(err)
			}
			manifest, err := job.ReadManifest(job.ManifestPath(dir, 0), spec)
			if err != nil {
				b.Fatal(err)
			}
			sw, block, digest := openShard(b, dir)
			mpath := filepath.Join(dir, "round-manifest.json")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// One chunk arrives, then the round: sync, publish.
				if _, err := sw.Write(block); err != nil {
					b.Fatal(err)
				}
				if _, err := sw.Commit(digest); err != nil {
					b.Fatal(err)
				}
				if _, err := sw.Sync(); err != nil {
					b.Fatal(err)
				}
				if err := job.WriteManifest(mpath, manifest); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	return cases
}

// ablationTrigSetup builds the shared point set of the A2 ablation.
func ablationTrigSetup() (hyperbolic.Geo, []hyperbolic.Point) {
	geo := hyperbolic.NewGeo(20, 0.75)
	pts := make([]hyperbolic.Point, 256)
	r := prng.NewFromRaw(3)
	for i := range pts {
		pts[i] = hyperbolic.MakePoint(uint64(i), r.Float64()*6.28, r.Float64()*20)
	}
	return geo, pts
}
