// Package experiments regenerates every figure of the paper's evaluation
// (§8, Figs. 6-18) at laptop scale and prints the series as CSV-like
// tables. Absolute numbers differ from the paper (different hardware, PEs
// simulated by goroutines); the shapes — who wins, scaling slopes,
// crossovers — are the reproduction target.
//
// For the scaling figures the reported per-configuration time is the
// *simulated parallel time*: the maximum wall time over the logical PEs
// (each PE runs single-threaded, exactly like one MPI rank would). For
// P > 16 a spread sample of 16 PEs is timed and the maximum reported.
package experiments

import (
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/gnm"
	"repro/internal/graph"
	"repro/internal/pe"
	"repro/internal/rdg"
	"repro/internal/rgg"
	"repro/internal/rhg"
	"repro/internal/rmat"
	"repro/internal/srhg"
)

// Config selects sweep sizes and the instance seed.
type Config struct {
	Quick bool   // smaller sizes, fewer points per series
	Seed  uint64 // instance seed
	Out   io.Writer
}

type runner struct {
	Config
}

// Names lists the experiments in paper order.
func Names() []string {
	return []string{
		"fig06", "fig07", "fig08", "fig09", "fig10", "fig11", "fig12",
		"fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
	}
}

// Run executes one experiment (or all of them for name "all").
func Run(name string, cfg Config) error {
	r := runner{cfg}
	table := map[string]func(){
		"fig06": r.fig06, "fig07": r.fig07, "fig08": r.fig08,
		"fig09": r.fig09, "fig10": r.fig10, "fig11": r.fig11,
		"fig12": r.fig12, "fig13": r.fig13, "fig14": r.fig14,
		"fig15": r.fig15, "fig16": r.fig16, "fig17": r.fig17,
		"fig18": r.fig18,
	}
	if name == "all" {
		for _, n := range Names() {
			table[n]()
		}
		return nil
	}
	fn, ok := table[name]
	if !ok {
		return fmt.Errorf("experiments: unknown experiment %q", name)
	}
	fn()
	return nil
}

// timeIt returns the wall time of one call.
func timeIt(fn func()) float64 {
	start := time.Now()
	fn()
	return time.Since(start).Seconds()
}

// streamed runs one chunk down the stream path a job runs — into an
// Emitter whose batch is dropped as it fills — and returns how many edges
// it emitted.
func streamed(chunk func(*core.Emitter)) int {
	n := 0
	e := core.NewEmitter(make([]graph.Edge, 0, pe.DefaultBatchSize), func(full []graph.Edge) ([]graph.Edge, bool) {
		n += len(full)
		return full, true
	})
	chunk(e)
	return n + len(e.Edges())
}

// samplePEs returns up to k PE ids spread over [0, P).
func samplePEs(P uint64, k int) []uint64 {
	if P <= uint64(k) {
		out := make([]uint64, P)
		for i := range out {
			out[i] = uint64(i)
		}
		return out
	}
	out := make([]uint64, k)
	for i := 0; i < k; i++ {
		out[i] = uint64(i) * (P - 1) / uint64(k-1)
	}
	return out
}

// maxChunkSeconds times the given chunk function on a PE sample and
// returns the maximum (the simulated parallel makespan).
func maxChunkSeconds(P uint64, fn func(pe uint64)) float64 {
	var mx float64
	for _, pe := range samplePEs(P, 16) {
		s := timeIt(func() { fn(pe) })
		if s > mx {
			mx = s
		}
	}
	return mx
}

func (r runner) header(fig, desc, cols string) {
	fmt.Fprintf(r.Out, "\n# %s — %s\n%s\n", fig, desc, cols)
}

// --- Fig. 6: sequential ER, KaGen vs Batagelj-Brandes (Boost stand-in) ---

func (r runner) fig06() {
	ns := []uint64{1 << 14, 1 << 16}
	maxM := uint64(1 << 20)
	if r.Quick {
		ns = []uint64{1 << 14}
		maxM = 1 << 18
	}
	r.header("fig06", "sequential G(n,m): seconds vs m (KaGen vs Batagelj-Brandes)",
		"variant,n,m,kagen_s,bb_s")
	for _, directed := range []bool{true, false} {
		variant := "undirected"
		if directed {
			variant = "directed"
		}
		for _, n := range ns {
			for m := uint64(1 << 12); m <= maxM; m <<= 2 {
				p := gnm.Params{N: n, M: m, Directed: directed, Seed: r.Seed, Chunks: 1}
				tk := timeIt(func() { streamed(func(e *core.Emitter) { gnm.StreamChunk(p, 0, e) }) })
				tb := timeIt(func() { baseline.GNMBatageljBrandes(n, m, directed, r.Seed) })
				fmt.Fprintf(r.Out, "%s,%d,%d,%.4f,%.4f\n", variant, n, m, tk, tb)
			}
		}
	}
}

// --- Figs. 7/8: G(n,m) weak and strong scaling ---

func (r runner) fig07() {
	perPEs := []uint64{1 << 14, 1 << 16}
	maxP := uint64(256)
	if r.Quick {
		perPEs = []uint64{1 << 14}
		maxP = 64
	}
	r.header("fig07", "G(n,m) weak scaling: simulated parallel seconds vs P (m/P fixed)",
		"variant,m_per_pe,P,seconds")
	for _, directed := range []bool{true, false} {
		variant := "undirected"
		if directed {
			variant = "directed"
		}
		for _, perPE := range perPEs {
			for P := uint64(1); P <= maxP; P <<= 2 {
				m := perPE * P
				p := gnm.Params{N: m / 16, M: m, Directed: directed, Seed: r.Seed, Chunks: P}
				s := maxChunkSeconds(P, func(pe uint64) { streamed(func(e *core.Emitter) { gnm.StreamChunk(p, pe, e) }) })
				fmt.Fprintf(r.Out, "%s,%d,%d,%.4f\n", variant, perPE, P, s)
			}
		}
	}
}

func (r runner) fig08() {
	ms := []uint64{1 << 20, 1 << 22}
	if r.Quick {
		ms = []uint64{1 << 18}
	}
	r.header("fig08", "G(n,m) strong scaling: simulated parallel seconds vs P (m fixed)",
		"variant,m,P,seconds")
	for _, directed := range []bool{true, false} {
		variant := "undirected"
		if directed {
			variant = "directed"
		}
		for _, m := range ms {
			for P := uint64(4); P <= 256; P <<= 2 {
				p := gnm.Params{N: m / 16, M: m, Directed: directed, Seed: r.Seed, Chunks: P}
				s := maxChunkSeconds(P, func(pe uint64) { streamed(func(e *core.Emitter) { gnm.StreamChunk(p, pe, e) }) })
				fmt.Fprintf(r.Out, "%s,%d,%d,%.4f\n", variant, m, P, s)
			}
		}
	}
}

// --- Fig. 9: 2-D RGG, KaGen vs Holtgrewe ---

func (r runner) fig09() {
	perPE := uint64(1 << 12)
	maxP := uint64(64)
	if r.Quick {
		maxP = 16
	}
	cost := baseline.DefaultHoltgreweCost()
	r.header("fig09", "2-D RGG: simulated parallel seconds vs P (n/P fixed; Holtgrewe = compute/P + modeled exchange)",
		"P,n,kagen_s,holtgrewe_total_s,holtgrewe_compute_s,holtgrewe_comm_s")
	var lastKagen, lastCompute float64
	var maxSeen uint64
	for P := uint64(1); P <= maxP; P <<= 1 {
		n := perPE * P
		rad := rgg.ConnectivityRadius(n, 2) / math.Sqrt(float64(P))
		p := rgg.Params{N: n, R: rad, Dim: 2, Seed: r.Seed, Chunks: P}
		tk := maxChunkSeconds(P, func(pe uint64) { streamed(func(e *core.Emitter) { rgg.StreamChunk(p, pe, e) }) })
		pts := baseline.UniformPoints(n, 2, r.Seed)
		tcompute := timeIt(func() { baseline.RGGHoltgrewe(pts, rad) }) / float64(P)
		tcomm := cost.SimulatedExchangeSeconds(n, P)
		fmt.Fprintf(r.Out, "%d,%d,%.4f,%.4f,%.4f,%.4f\n", P, n, tk, tcompute+tcomm, tcompute, tcomm)
		lastKagen, lastCompute, maxSeen = tk, tcompute, P
	}
	// Extrapolate the modeled communication term to find the crossover the
	// paper observes at large P (both compute terms are flat in weak
	// scaling, only the latency term grows).
	for P := maxSeen * 2; P <= 1<<20; P <<= 1 {
		if lastCompute+cost.SimulatedExchangeSeconds(perPE*P, P) > lastKagen {
			fmt.Fprintf(r.Out, "modeled crossover (KaGen wins) at P = %d\n", P)
			return
		}
	}
	fmt.Fprintln(r.Out, "modeled crossover beyond P = 2^20")
}

// --- Figs. 10/11: RGG weak and strong scaling ---

func (r runner) fig10() {
	perPEs := []uint64{1 << 12, 1 << 14}
	maxP := uint64(64)
	if r.Quick {
		perPEs = []uint64{1 << 12}
		maxP = 16
	}
	r.header("fig10", "RGG weak scaling: simulated parallel seconds vs P (n/P fixed)",
		"dim,n_per_pe,P,seconds")
	for _, dim := range []int{2, 3} {
		for _, perPE := range perPEs {
			for P := uint64(1); P <= maxP; P <<= 2 {
				n := perPE * P
				p := rgg.Params{N: n, Dim: dim, Seed: r.Seed, Chunks: P}
				p.R = rgg.ConnectivityRadius(n, dim)
				s := maxChunkSeconds(P, func(pe uint64) { streamed(func(e *core.Emitter) { rgg.StreamChunk(p, pe, e) }) })
				fmt.Fprintf(r.Out, "%d,%d,%d,%.4f\n", dim, perPE, P, s)
			}
		}
	}
}

func (r runner) fig11() {
	ns := []uint64{1 << 16, 1 << 18}
	if r.Quick {
		ns = []uint64{1 << 14}
	}
	r.header("fig11", "RGG strong scaling: simulated parallel seconds vs P (n fixed)",
		"dim,n,P,seconds")
	for _, dim := range []int{2, 3} {
		for _, n := range ns {
			for P := uint64(4); P <= 64; P <<= 2 {
				p := rgg.Params{N: n, Dim: dim, Seed: r.Seed, Chunks: P}
				p.R = rgg.ConnectivityRadius(n, dim)
				s := maxChunkSeconds(P, func(pe uint64) { streamed(func(e *core.Emitter) { rgg.StreamChunk(p, pe, e) }) })
				fmt.Fprintf(r.Out, "%d,%d,%d,%.4f\n", dim, n, P, s)
			}
		}
	}
}

// --- Figs. 12/13: RDG weak and strong scaling ---

func (r runner) fig12() {
	perPEs2 := []uint64{1 << 10, 1 << 12}
	maxP := uint64(16)
	if r.Quick {
		perPEs2 = []uint64{1 << 10}
		maxP = 4
	}
	r.header("fig12", "RDG weak scaling: simulated parallel seconds vs P (n/P fixed)",
		"dim,n_per_pe,P,seconds")
	for _, dim := range []int{2, 3} {
		perPEs := perPEs2
		if dim == 3 {
			perPEs = []uint64{perPEs2[0] / 2}
		}
		for _, perPE := range perPEs {
			for P := uint64(1); P <= maxP; P <<= 2 {
				p := rdg.Params{N: perPE * P, Dim: dim, Seed: r.Seed, Chunks: P}
				s := maxChunkSeconds(P, func(pe uint64) { streamed(func(e *core.Emitter) { rdg.StreamChunk(p, pe, e) }) })
				fmt.Fprintf(r.Out, "%d,%d,%d,%.4f\n", dim, perPE, P, s)
			}
		}
	}
}

func (r runner) fig13() {
	ns := map[int][]uint64{2: {1 << 14}, 3: {1 << 12}}
	r.header("fig13", "RDG strong scaling: simulated parallel seconds vs P (n fixed)",
		"dim,n,P,seconds")
	for _, dim := range []int{2, 3} {
		for _, n := range ns[dim] {
			for P := uint64(4); P <= 64; P <<= 2 {
				p := rdg.Params{N: n, Dim: dim, Seed: r.Seed, Chunks: P}
				s := maxChunkSeconds(P, func(pe uint64) { streamed(func(e *core.Emitter) { rdg.StreamChunk(p, pe, e) }) })
				fmt.Fprintf(r.Out, "%d,%d,%d,%.4f\n", dim, n, P, s)
			}
		}
	}
}

// --- Fig. 14: shared-memory RHG race ---

func (r runner) fig14() {
	maxN := uint64(1 << 17)
	if r.Quick {
		maxN = 1 << 14
	}
	r.header("fig14", "RHG race (sequential): seconds and edges/s vs n",
		"gamma,avg_deg,n,algorithm,seconds,edges,edges_per_s")
	for _, gamma := range []float64{2.2, 3.0} {
		for _, deg := range []float64{16, 64} {
			for n := uint64(1 << 12); n <= maxN; n <<= 1 {
				run := func(name string, fn func() int) {
					var edges int
					s := timeIt(func() { edges = fn() })
					fmt.Fprintf(r.Out, "%.1f,%.0f,%d,%s,%.4f,%d,%.0f\n",
						gamma, deg, n, name, s, edges, float64(edges)/s)
				}
				run("nkgen", func() int {
					return baseline.RHGNkGen(n, deg, gamma, r.Seed).Len()
				})
				run("rhg", func() int {
					p := rhg.Params{N: n, AvgDeg: deg, Gamma: gamma, Seed: r.Seed, Chunks: 1}
					return streamed(func(e *core.Emitter) { rhg.StreamChunk(p, 0, e) })
				})
				run("srhg", func() int {
					p := srhg.Params{N: n, AvgDeg: deg, Gamma: gamma, Seed: r.Seed, Chunks: 1}
					return streamed(func(e *core.Emitter) { srhg.StreamChunk(p, 0, e) })
				})
			}
		}
	}
}

// --- Figs. 15/16: RHG weak and strong scaling ---

func (r runner) fig15() {
	perPEs := []uint64{1 << 10, 1 << 12}
	maxP := uint64(64)
	if r.Quick {
		perPEs = []uint64{1 << 10}
		maxP = 16
	}
	r.header("fig15", "RHG weak scaling (d=16, gamma=3): simulated parallel seconds vs P",
		"algorithm,n_per_pe,P,seconds")
	for _, perPE := range perPEs {
		for P := uint64(1); P <= maxP; P <<= 2 {
			n := perPE * P
			pr := rhg.Params{N: n, AvgDeg: 16, Gamma: 3.0, Seed: r.Seed, Chunks: P}
			s := maxChunkSeconds(P, func(pe uint64) { streamed(func(e *core.Emitter) { rhg.StreamChunk(pr, pe, e) }) })
			fmt.Fprintf(r.Out, "rhg,%d,%d,%.4f\n", perPE, P, s)
			ps := srhg.Params{N: n, AvgDeg: 16, Gamma: 3.0, Seed: r.Seed, Chunks: P}
			s = maxChunkSeconds(P, func(pe uint64) { streamed(func(e *core.Emitter) { srhg.StreamChunk(ps, pe, e) }) })
			fmt.Fprintf(r.Out, "srhg,%d,%d,%.4f\n", perPE, P, s)
		}
	}
}

func (r runner) fig16() {
	ns := []uint64{1 << 14, 1 << 16}
	if r.Quick {
		ns = []uint64{1 << 13}
	}
	r.header("fig16", "RHG strong scaling (d=16, gamma=3): simulated parallel seconds vs P",
		"algorithm,n,P,seconds")
	for _, n := range ns {
		for P := uint64(4); P <= 64; P <<= 2 {
			pr := rhg.Params{N: n, AvgDeg: 16, Gamma: 3.0, Seed: r.Seed, Chunks: P}
			s := maxChunkSeconds(P, func(pe uint64) { streamed(func(e *core.Emitter) { rhg.StreamChunk(pr, pe, e) }) })
			fmt.Fprintf(r.Out, "rhg,%d,%d,%.4f\n", n, P, s)
			ps := srhg.Params{N: n, AvgDeg: 16, Gamma: 3.0, Seed: r.Seed, Chunks: P}
			s = maxChunkSeconds(P, func(pe uint64) { streamed(func(e *core.Emitter) { srhg.StreamChunk(ps, pe, e) }) })
			fmt.Fprintf(r.Out, "srhg,%d,%d,%.4f\n", n, P, s)
		}
	}
}

// --- Figs. 17/18: R-MAT weak and strong scaling ---

func (r runner) fig17() {
	perPEs := []uint64{1 << 14, 1 << 16}
	maxP := uint64(256)
	if r.Quick {
		perPEs = []uint64{1 << 14}
		maxP = 64
	}
	r.header("fig17", "R-MAT weak scaling: simulated parallel seconds vs P (m/P fixed, n = m/16)",
		"m_per_pe,P,seconds")
	for _, perPE := range perPEs {
		for P := uint64(1); P <= maxP; P <<= 2 {
			m := perPE * P
			scale := uint(10)
			for (uint64(1) << scale) < m/16 {
				scale++
			}
			// The first sampled PE also builds the alias tables, as every
			// real PE would; the sweep's parameters are valid by construction.
			g := rmat.NewGenerator(rmat.Params{Scale: scale, M: m, Seed: r.Seed, Chunks: P})
			s := maxChunkSeconds(P, func(pe uint64) { streamed(func(e *core.Emitter) { g.StreamChunk(pe, e) }) })
			fmt.Fprintf(r.Out, "%d,%d,%.4f\n", perPE, P, s)
		}
	}
}

func (r runner) fig18() {
	ms := []uint64{1 << 20, 1 << 22}
	if r.Quick {
		ms = []uint64{1 << 18}
	}
	r.header("fig18", "R-MAT strong scaling: simulated parallel seconds vs P (m fixed)",
		"m,P,seconds")
	for _, m := range ms {
		for P := uint64(4); P <= 256; P <<= 2 {
			g := rmat.NewGenerator(rmat.Params{Scale: 16, M: m, Seed: r.Seed, Chunks: P})
			s := maxChunkSeconds(P, func(pe uint64) { streamed(func(e *core.Emitter) { g.StreamChunk(pe, e) }) })
			fmt.Fprintf(r.Out, "%d,%d,%.4f\n", m, P, s)
		}
	}
}
