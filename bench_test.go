package kagen_test

// One testing.B benchmark per figure of the paper's evaluation (§8),
// scaled to laptop sizes, plus the ablation benches of DESIGN.md §7.
// The benchmark bodies live in internal/benchreg so that cmd/benchsuite
// can execute the identical code with testing.Benchmark and record the
// ns/op, B/op and allocs/op trajectory in BENCH_kagen.json; the full
// parameter sweeps that regenerate each figure's series also live in
// cmd/benchsuite (internal/experiments).

import (
	"testing"

	"repro/internal/benchreg"
)

// --- Figure 6: sequential Erdős–Rényi, KaGen vs Batagelj–Brandes ---

func BenchmarkFig06SeqGNM(b *testing.B) { benchreg.Group(b, "Fig06SeqGNM") }

// --- Figures 7/8: G(n,m) weak and strong scaling (per-PE chunk cost) ---

func BenchmarkFig07WeakGNM(b *testing.B)   { benchreg.Group(b, "Fig07WeakGNM") }
func BenchmarkFig08StrongGNM(b *testing.B) { benchreg.Group(b, "Fig08StrongGNM") }

// --- Figure 9: 2-D RGG, KaGen vs Holtgrewe et al. ---

func BenchmarkFig09RGG2DComparison(b *testing.B) { benchreg.Group(b, "Fig09RGG2DComparison") }

// --- Figures 10/11: RGG weak and strong scaling ---

func BenchmarkFig10WeakRGG(b *testing.B)   { benchreg.Group(b, "Fig10WeakRGG") }
func BenchmarkFig11StrongRGG(b *testing.B) { benchreg.Group(b, "Fig11StrongRGG") }

// --- Figures 12/13: RDG weak and strong scaling ---

func BenchmarkFig12WeakRDG(b *testing.B)   { benchreg.Group(b, "Fig12WeakRDG") }
func BenchmarkFig13StrongRDG(b *testing.B) { benchreg.Group(b, "Fig13StrongRDG") }

// --- Figure 14: shared-memory RHG race ---

func BenchmarkFig14RHGRace(b *testing.B) { benchreg.Group(b, "Fig14RHGRace") }

// --- Figures 15/16: RHG weak and strong scaling ---

func BenchmarkFig15WeakRHG(b *testing.B)   { benchreg.Group(b, "Fig15WeakRHG") }
func BenchmarkFig16StrongRHG(b *testing.B) { benchreg.Group(b, "Fig16StrongRHG") }

// --- Figures 17/18: R-MAT weak and strong scaling ---

func BenchmarkFig17WeakRMAT(b *testing.B)   { benchreg.Group(b, "Fig17WeakRMAT") }
func BenchmarkFig18StrongRMAT(b *testing.B) { benchreg.Group(b, "Fig18StrongRMAT") }

// --- R-MAT alias-table sampler: per-edge draw and table build ---

func BenchmarkRMAT(b *testing.B) { benchreg.Group(b, "RMAT") }

// --- Undirected triangular streamers (no per-pair buffering) ---

func BenchmarkStreamUndirected(b *testing.B) { benchreg.Group(b, "StreamUndirected") }

// --- Cell-index optimization (flat cell index + O(log P) setup) ---

func BenchmarkCellIndex(b *testing.B) { benchreg.Group(b, "CellIndex") }

// --- Ablations (DESIGN.md §7) ---

func BenchmarkAblationBinomial(b *testing.B)    { benchreg.Group(b, "AblationBinomial") }
func BenchmarkAblationRHGTrig(b *testing.B)     { benchreg.Group(b, "AblationRHGTrig") }
func BenchmarkAblationGNPSkip(b *testing.B)     { benchreg.Group(b, "AblationGNPSkip") }
func BenchmarkAblationRGGCell(b *testing.B)     { benchreg.Group(b, "AblationRGGCell") }
func BenchmarkAblationSRHGGamma(b *testing.B)   { benchreg.Group(b, "AblationSRHGGamma") }
func BenchmarkAblationMorton(b *testing.B)      { benchreg.Group(b, "AblationMorton") }
func BenchmarkAblationRHGOutward(b *testing.B)  { benchreg.Group(b, "AblationRHGOutward") }
func BenchmarkAblationStreamSetup(b *testing.B) { benchreg.Group(b, "AblationStreamSetup") }

// --- Delaunay insert hot path (adaptive predicates + arenas) ---

func BenchmarkDelaunay(b *testing.B) { benchreg.Group(b, "Delaunay") }

// --- Observability hot-path cost (disabled paths must be alloc-free) ---

func BenchmarkObs(b *testing.B) { benchreg.Group(b, "Obs") }

// --- Job sink: chunk encode on the producing goroutine, whole text.gz and
// binary runs, one checkpoint round ---

func BenchmarkJob(b *testing.B) { benchreg.Group(b, "Job") }

// --- Storage: the chunk-boundary commit mark a generator pays ---

func BenchmarkStorage(b *testing.B) { benchreg.Group(b, "Storage") }
