// Package rmat implements the recursive matrix (R-MAT) generator of
// Chakrabarti et al. (paper §3.5.2), the Graph 500 reference model the
// paper benchmarks against in §8.6.1. Each of the m edges independently
// picks one quadrant (probabilities a, b, c, d) on each of the log2(n)
// levels of the adjacency matrix; each edge's randomness is seeded by its
// index, which makes the generator communication-free by construction.
//
// The paper's Figs. 17/18 attribute R-MAT's slowness to the O(m log n)
// level-by-level descent. This package instead samples levelsPerDraw
// levels per random word from precomputed path-probability alias tables
// (Hübschle-Schneider & Sanders, "Linear Work Generation of R-MAT
// Graphs"): an edge costs ⌈scale/levelsPerDraw⌉ table lookups and no
// data-dependent branch. See DESIGN.md "Linear-work R-MAT".
package rmat

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/prng"
)

// InstanceVersion numbers the instance definition — which edge (seed, i)
// maps to. Version 1 was the per-level Float64 descent; version 2 is the
// alias-table sampler. Bump it with every change that moves a draw:
// job.Spec.Hash mixes it in, so job directories written under another
// version refuse to resume instead of splicing two instances.
const InstanceVersion = 2

// Params configures an R-MAT instance.
type Params struct {
	Scale uint   // n = 2^Scale vertices
	M     uint64 // number of edges
	// Quadrant probabilities; if all zero, the Graph 500 defaults
	// (0.57, 0.19, 0.19, 0.05) are used.
	A, B, C, D float64
	Seed       uint64
	Chunks     uint64 // number of logical PEs; 0 means 1
}

func (p Params) chunks() uint64 {
	if p.Chunks == 0 {
		return 1
	}
	return p.Chunks
}

// unset reports that no quadrant probability was given: use the defaults.
func (p Params) unset() bool { return p.A == 0 && p.B == 0 && p.C == 0 && p.D == 0 }

// probs returns the quadrant probabilities the sampler uses. d is always
// derived as 1 - a - b - c (clamped at 0 against rounding), so D only
// serves Validate's sum check and (a, b, c) alone define the instance.
func (p Params) probs() [4]float64 {
	a, b, c := p.A, p.B, p.C
	if p.unset() {
		a, b, c = 0.57, 0.19, 0.19
	}
	return [4]float64{a, b, c, math.Max(0, 1-a-b-c)}
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.Scale == 0 || p.Scale > 62 {
		return fmt.Errorf("rmat: scale %d out of range", p.Scale)
	}
	for _, q := range [4]float64{p.A, p.B, p.C, p.D} {
		if !(q >= 0 && q <= 1) { // also catches NaN and ±Inf
			return fmt.Errorf("rmat: quadrant probability %v outside [0, 1]", q)
		}
	}
	if sum := p.A + p.B + p.C + p.D; !p.unset() && (sum < 0.999 || sum > 1.001) {
		return fmt.Errorf("rmat: quadrant probabilities sum to %v", sum)
	}
	return nil
}

// N returns the number of vertices.
func (p Params) N() uint64 { return 1 << p.Scale }

// edgeRange returns the edge-index range [lo, hi) of one chunk:
// floor(chunk*M/P) to floor((chunk+1)*M/P), with the product taken in 128
// bits — chunk*M passes 2^64 well inside the paper's scale (2^47 edges on
// 2^17 PEs). chunk must be below the chunk count.
func (p Params) edgeRange(chunk uint64) (lo, hi uint64) {
	P := p.chunks()
	bound := func(c uint64) uint64 {
		h, l := bits.Mul64(c, p.M)
		q, _ := bits.Div64(h, l, P) // h < P because c <= P
		return q
	}
	return bound(chunk), bound(chunk + 1)
}

const (
	// levelsPerDraw is k, the number of matrix levels one 64-bit draw
	// resolves: the top 2k bits index a 4^k-entry alias table, the low
	// threshBits decide between the entry and its alias. It is a constant
	// and not a parameter because it is part of the instance definition;
	// 6 (a 32 KiB table, 4 draws for a scale-22 edge) measured fastest of
	// 4..8 — DESIGN.md "Why k is a constant".
	levelsPerDraw = 6
	threshBits    = 64 - 2*levelsPerDraw
	threshMask    = 1<<threshBits - 1
)

// table is a Vose alias table over the 4^levels quadrant paths of
// `levels` consecutive matrix levels. Bucket j owns path j: the base-4
// digits of j, first level most significant, each digit a row bit above a
// column bit. Its entry packs the alias bucket's index into the top
// 2·levelsPerDraw bits and the threshold, in units of 2^-threshBits, into
// the low threshBits: a draw landing in bucket j takes path j when its low
// threshBits are below the threshold, the alias path otherwise. A bucket
// that always takes its own path is its own alias with threshold 0.
type table struct {
	entries []uint64
	levels  uint
}

// lookup maps one uniform 64-bit word to the path of t.levels matrix
// levels, branch-free.
func (t *table) lookup(u uint64) uint64 {
	j := u >> ((64 - 2*t.levels) & 63) // & 63: no shift-range check
	e := t.entries[j]
	// The threshold is below 2^threshBits, so the difference is negative
	// (top bit set) exactly when the low bits reach the threshold.
	alias := -((e&threshMask - 1 - u&threshMask) >> 63)
	return j ^ (j^e>>threshBits)&alias
}

// buildTable enumerates the 4^levels paths with their product
// probabilities and builds the alias table.
//
// The tables are part of the instance definition, so this must compute
// the same bits on every platform: no product here may be fused with an
// addition or subtraction, the shape the compiler may contract into an
// FMA with different rounding. Besides the sums of stored weights, that
// includes the subtraction of 2^63 hidden in a float-to-uint64
// conversion, so the threshold's product is rounded by an explicit
// float64 conversion first.
func buildTable(levels uint, q [4]float64) table {
	n := 1 << (2 * levels)
	entries := make([]uint64, n)
	// Scratch lives on the stack: the build's only allocation is the table.
	var weightBuf [1 << (2 * levelsPerDraw)]float64
	var workBuf [1 << (2 * levelsPerDraw)]uint16
	weight, work := weightBuf[:n], workBuf[:n]
	for j := range weight {
		w := 1.0
		for l := levels; l > 0; l-- {
			w *= q[j>>(2*(l-1))&3]
		}
		weight[j] = w
		// Until Vose pairs it: always its own path.
		entries[j] = uint64(j) << threshBits
	}
	total := 0.0
	for _, w := range weight {
		total += w
	}
	// Vose's method on weights scaled to mean 1 (n is a power of two, so
	// the scaling is exact): pair every under-full bucket with an
	// over-full one that donates the difference. A bucket is on at most
	// one of the two stacks, so they share work: small grows from the
	// left (work[:ns]), large from the right (work[nl:]).
	ns, nl := 0, n
	for j := range weight {
		weight[j] = weight[j] / total * float64(n)
		if weight[j] < 1 {
			work[ns] = uint16(j)
			ns++
		} else {
			nl--
			work[nl] = uint16(j)
		}
	}
	for ns > 0 && nl < n {
		s, l := work[ns-1], work[nl]
		ns--
		thresh := uint64(float64(weight[s] * (1 << threshBits)))
		entries[s] = uint64(l)<<threshBits | thresh // weight[s] < 1: thresh fits
		weight[l] = weight[l] + weight[s] - 1
		if weight[l] < 1 {
			nl++
			work[ns] = l
			ns++
		}
	}
	// Whatever is left on either stack is full up to rounding and keeps
	// its own path.
	return table{entries: entries, levels: levels}
}

// Generator samples the edges of one R-MAT instance. It is cheap to
// construct: parameters are validated and the alias tables built on the
// first draw, once, so specs that are only inspected never pay for them.
// A Generator is safe for concurrent use and must not be copied.
type Generator struct {
	p Params

	once sync.Once
	err  error
	// full resolves levelsPerDraw levels per draw, fullDraws times, from
	// the most significant level down; rem resolves the Scale mod
	// levelsPerDraw levels left over (levels == 0: none).
	full      table
	fullDraws uint
	rem       table
}

// NewGenerator returns the generator of the instance p defines.
func NewGenerator(p Params) *Generator { return &Generator{p: p} }

// Params returns the instance parameters.
func (g *Generator) Params() Params { return g.p }

func (g *Generator) init() error {
	g.once.Do(func() {
		if g.err = g.p.Validate(); g.err != nil {
			return
		}
		q := g.p.probs()
		g.fullDraws = g.p.Scale / levelsPerDraw
		if g.fullDraws > 0 {
			g.full = buildTable(levelsPerDraw, q)
		}
		if r := g.p.Scale % levelsPerDraw; r > 0 {
			g.rem = buildTable(r, q)
		}
	})
	return g.err
}

// StreamChunk emits the edges of one chunk of the edge-index range into e
// without materializing them. Duplicate edges and self-loops are
// permitted, as in the Graph 500 reference.
func (g *Generator) StreamChunk(chunk uint64, e *core.Emitter) error {
	lo, hi, err := g.chunkRange(chunk)
	if err != nil {
		return err
	}
	for i := lo; i < hi; i++ {
		u, v := g.edge(i)
		e.Append(u, v)
	}
	return nil
}

// chunkRange readies the generator and returns the chunk's edge-index
// range.
func (g *Generator) chunkRange(chunk uint64) (lo, hi uint64, err error) {
	if err := g.init(); err != nil {
		return 0, 0, err
	}
	if chunk >= g.p.chunks() {
		return 0, 0, fmt.Errorf("rmat: chunk %d out of range [0, %d)", chunk, g.p.chunks())
	}
	lo, hi = g.p.edgeRange(chunk)
	return lo, hi, nil
}

// Edge draws edge i. It depends on (Seed, i) and the tables alone —
// neither on Chunks nor on any other edge — so any PE can produce any
// edge without communication.
func (g *Generator) Edge(i uint64) (graph.Edge, error) {
	if err := g.init(); err != nil {
		return graph.Edge{}, err
	}
	u, v := g.edge(i)
	return graph.Edge{U: u, V: v}, nil
}

// edge is Edge after init: one per-edge seeded stream, one Uint64 and one
// table lookup per levelsPerDraw levels. The paths of the draws,
// concatenated, are the edge's Morton code — row and column bits
// interleaved, most significant level first — split into row and column
// once at the end. Up to scale 32 the code fits in lo; above, the draws
// shift their top bits into hi, which stays 0 below.
func (g *Generator) edge(i uint64) (u, v uint64) {
	r := prng.New(g.p.Seed, core.TagRMAT, i)
	var hi, lo uint64
	for d := uint(0); d < g.fullDraws; d++ {
		hi = hi<<(2*levelsPerDraw) | lo>>(64-2*levelsPerDraw)
		lo = lo<<(2*levelsPerDraw) | g.full.lookup(r.Uint64())
	}
	if k := 2 * g.rem.levels; k > 0 {
		hi = hi<<k | lo>>(64-k)
		lo = lo<<k | g.rem.lookup(r.Uint64())
	}
	u, v = evenBits(lo>>1), evenBits(lo)
	if g.p.Scale > 32 {
		u |= evenBits(hi>>1) << 32
		v |= evenBits(hi) << 32
	}
	return u, v
}

// evenBits gathers the bits of x at even positions into the low 32 bits:
// the column half of a Morton code, or with x shifted right once, the row
// half.
func evenBits(x uint64) uint64 {
	x &= 0x5555555555555555
	x = (x | x>>1) & 0x3333333333333333
	x = (x | x>>2) & 0x0f0f0f0f0f0f0f0f
	x = (x | x>>4) & 0x00ff00ff00ff00ff
	x = (x | x>>8) & 0x0000ffff0000ffff
	return (x | x>>16) & 0x00000000ffffffff
}
