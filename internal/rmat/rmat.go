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
	"repro/internal/pe"
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
	// 6 (a 64 KiB table, 4 draws for a scale-22 edge) measured fastest of
	// 4..8 — DESIGN.md "Why k is a constant".
	levelsPerDraw = 6
	threshBits    = 64 - 2*levelsPerDraw
	threshMask    = 1<<threshBits - 1
)

// entry is one alias-table bucket. A draw landing in it takes the bucket's
// own path when its low threshBits are below thresh, the alias path
// otherwise. A path packs the row bits above the column bits of the
// table's levels; own sits in the low 16 bits of paths, alias in the high.
type entry struct {
	thresh uint64 // in units of 2^-threshBits; 1<<threshBits = always own
	paths  uint32
}

// table is a Vose alias table over the 4^levels quadrant paths of
// `levels` consecutive matrix levels.
type table struct {
	entries []entry
	levels  uint
}

// lookup maps one uniform 64-bit word to the row and column bits of
// t.levels matrix levels, branch-free.
func (t *table) lookup(u uint64) (row, col uint64) {
	e := &t.entries[u>>(64-2*t.levels)]
	// thresh <= 2^threshBits, so the difference is negative (top bit set)
	// exactly when the low bits reach the threshold.
	alias := (e.thresh - 1 - u&threshMask) >> 63
	path := uint64(e.paths>>(alias<<4)) & 0xffff
	return path >> t.levels, path & (1<<t.levels - 1)
}

// buildTable enumerates the 4^levels paths (base-4 digits of the index,
// first level most significant; digit 0..3 = quadrant a..d) with their
// product probabilities and builds the alias table.
//
// The tables are part of the instance definition, so this must compute
// the same bits on every platform: no multiplication here feeds an
// addition or subtraction, the one shape the compiler may fuse into an
// FMA with different rounding.
func buildTable(levels uint, q [4]float64) table {
	n := 1 << (2 * levels)
	entries := make([]entry, n)
	// Scratch lives on the stack: the build's only allocation is the table.
	var weightBuf [1 << (2 * levelsPerDraw)]float64
	var workBuf [1 << (2 * levelsPerDraw)]uint16
	weight, work := weightBuf[:n], workBuf[:n]
	for j := range weight {
		w := 1.0
		var row, col uint32
		for l := levels; l > 0; l-- {
			digit := uint32(j>>(2*(l-1))) & 3
			w *= q[digit]
			row = row<<1 | digit>>1
			col = col<<1 | digit&1
		}
		weight[j] = w
		own := row<<levels | col
		entries[j].paths = own<<16 | own
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
		entries[s].thresh = uint64(weight[s] * (1 << threshBits))
		entries[s].paths = entries[l].paths<<16 | entries[s].paths&0xffff
		weight[l] = weight[l] + weight[s] - 1
		if weight[l] < 1 {
			nl++
			work[ns] = l
			ns++
		}
	}
	// Whatever is left on either stack is full up to rounding: always its
	// own path.
	for _, j := range work[:ns] {
		entries[j].thresh = 1 << threshBits
	}
	for _, j := range work[nl:] {
		entries[j].thresh = 1 << threshBits
	}
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

// Generate produces all m edges (duplicates and self-loops permitted, as
// in the Graph 500 reference).
func (g *Generator) Generate(workers int) (*graph.EdgeList, error) {
	if err := g.init(); err != nil {
		return nil, err
	}
	results := pe.ForEach(int(g.p.chunks()), workers, func(c int) []graph.Edge {
		edges, _ := g.GenerateChunk(uint64(c)) // init succeeded and c is in range
		return edges
	})
	return graph.Merge(g.p.N(), results...), nil
}

// GenerateChunk returns the edges of one chunk of the edge-index range.
func (g *Generator) GenerateChunk(chunk uint64) ([]graph.Edge, error) {
	lo, hi, err := g.chunkRange(chunk)
	if err != nil {
		return nil, err
	}
	edges := make([]graph.Edge, 0, hi-lo)
	for i := lo; i < hi; i++ {
		edges = append(edges, g.edge(i))
	}
	return edges, nil
}

// StreamChunk emits the chunk's edges through a callback without
// materializing them (memory-bounded generation).
func (g *Generator) StreamChunk(chunk uint64, emit func(graph.Edge)) error {
	lo, hi, err := g.chunkRange(chunk)
	if err != nil {
		return err
	}
	for i := lo; i < hi; i++ {
		emit(g.edge(i))
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
	return g.edge(i), nil
}

// edge is Edge after init: one per-edge seeded stream, one Uint64 and one
// table lookup per levelsPerDraw levels.
func (g *Generator) edge(i uint64) graph.Edge {
	r := prng.New(g.p.Seed, core.TagRMAT, i)
	var row, col uint64
	for d := uint(0); d < g.fullDraws; d++ {
		rb, cb := g.full.lookup(r.Uint64())
		row = row<<levelsPerDraw | rb
		col = col<<levelsPerDraw | cb
	}
	if g.rem.levels > 0 {
		rb, cb := g.rem.lookup(r.Uint64())
		row = row<<g.rem.levels | rb
		col = col<<g.rem.levels | cb
	}
	return graph.Edge{U: row, V: col}
}
