// Package rhg implements the in-memory communication-free random
// hyperbolic graph generator of the paper (§7.1).
//
// The hyperbolic disk of radius R is partitioned radially into a central
// "clique core" (radius < R/2, replicated on every PE as in the paper) and
// O(log n) concentric annuli of height ~ln(2)/alpha, and angularly into
// one chunk per logical PE. Vertex counts are distributed with a global
// multinomial over annuli and recursive binomial splits over chunks, all
// seeded by structural identifiers, so any PE can recompute any chunk of
// any annulus bit-identically — which is exactly what the inward/outward
// neighbourhood queries do.
package rhg

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/hyperbolic"
	"repro/internal/prng"
	"repro/internal/sampling"
)

// Params configures a random hyperbolic graph.
type Params struct {
	N      uint64  // number of vertices
	AvgDeg float64 // target average degree (sets C in R = 2 ln n + C)
	Gamma  float64 // power-law exponent (> 2); alpha = (gamma-1)/2
	Seed   uint64
	Chunks uint64 // number of logical PEs; 0 means 1
	// OutwardOnly omits the inward neighbourhood queries: every edge is
	// found exactly once, by its endpoint with the smaller radius, instead
	// of once per endpoint. The output is then no longer partitioned by
	// vertex ownership, but the expensive recomputation for high-degree
	// inner vertices disappears — the trade-off §8.6 of the paper
	// describes ("we can achieve a similar speedup for our first
	// generator by only performing outward queries").
	OutwardOnly bool
}

func (p Params) chunks() uint64 {
	if p.Chunks == 0 {
		return 1
	}
	return p.Chunks
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.N == 0 {
		return fmt.Errorf("rhg: n must be positive")
	}
	if p.Gamma <= 2 {
		return fmt.Errorf("rhg: gamma must exceed 2 (got %v)", p.Gamma)
	}
	if p.AvgDeg <= 0 || p.AvgDeg >= float64(p.N) {
		return fmt.Errorf("rhg: average degree %v out of range", p.AvgDeg)
	}
	return nil
}

// instance bundles the derived geometry shared by all PEs.
type instance struct {
	p      Params
	alpha  float64
	bigR   float64
	geo    hyperbolic.Geo
	bounds []float64 // annulus boundaries over [R/2, R]; len = annuli+1
	// Precomputed per-annulus lower boundary constants for Eq. 8.
	cothLo        []float64
	coshRInvSinLo []float64

	coreCount    uint64   // vertices in the replicated core (r < R/2)
	annulusCount []uint64 // vertices per annulus
	// id prefix: core ids first, then annulus-major, chunk-minor.
	annulusPrefix []uint64 // prefix sums of annulusCount, offset by coreCount
	annulusSeed   []uint64 // per-annulus chunk-split seeds
	chunkWidth    float64  // 2*pi / P
}

func newInstance(p Params) *instance {
	inst := &instance{p: p}
	inst.alpha = hyperbolic.AlphaFromGamma(p.Gamma)
	inst.bigR = hyperbolic.DiskRadius(p.N, p.AvgDeg, inst.alpha)
	inst.geo = hyperbolic.NewGeo(inst.bigR, inst.alpha)
	inst.bounds = hyperbolic.Annuli(inst.alpha, inst.bigR/2, inst.bigR)

	k := len(inst.bounds) - 1
	inst.cothLo = make([]float64, k)
	inst.coshRInvSinLo = make([]float64, k)
	for i := 0; i < k; i++ {
		lo := inst.bounds[i]
		sinh := math.Sinh(lo)
		inst.cothLo[i] = math.Cosh(lo) / sinh
		inst.coshRInvSinLo[i] = inst.geo.CoshR / sinh
	}

	// Split n over [core, annulus 0, ..., annulus k-1].
	masses := make([]float64, k+1)
	masses[0] = hyperbolic.RadialCDFMass(inst.alpha, inst.bigR, inst.bigR/2)
	for i := 0; i < k; i++ {
		masses[i+1] = hyperbolic.AnnulusMass(inst.alpha, inst.bigR, inst.bounds[i], inst.bounds[i+1])
	}
	r := prng.New(p.Seed, core.TagRHGAnnuli)
	counts := dist.Multinomial(&r, p.N, masses)
	inst.coreCount = counts[0]
	inst.annulusCount = counts[1:]

	inst.chunkWidth = 2 * math.Pi / float64(p.chunks())
	inst.annulusPrefix = make([]uint64, k+1)
	inst.annulusPrefix[0] = inst.coreCount
	inst.annulusSeed = make([]uint64, k)
	for i := 0; i < k; i++ {
		inst.annulusPrefix[i+1] = inst.annulusPrefix[i] + inst.annulusCount[i]
		inst.annulusSeed[i] = prng.HashWords64(p.Seed, core.TagRHGChunk, uint64(i))
	}
	return inst
}

// chunkRank derives the in-annulus ID offset and vertex count of chunk c
// of annulus i in O(log P) draws — setup no longer materializes the O(P)
// per-annulus chunk count and prefix arrays.
func (inst *instance) chunkRank(i int, c uint64) (before, count uint64) {
	return sampling.RecursiveSplitEqualRank(inst.annulusSeed[i], inst.annulusCount[i], inst.p.chunks(), c)
}

// corePoints generates the replicated core identically on every PE:
// angles ascending over [0, 2*pi), radii from the density restricted to
// [0, R/2). IDs are [0, coreCount).
func (inst *instance) corePoints() []hyperbolic.Point {
	r := prng.New(inst.p.Seed, core.TagRHGPoints, ^uint64(0))
	pts := make([]hyperbolic.Point, 0, inst.coreCount)
	id := uint64(0)
	sampling.SortedUniforms(&r, inst.coreCount, 0, 2*math.Pi, func(theta float64) {
		rad := hyperbolic.SampleRadius(&r, inst.alpha, 0, inst.bigR/2)
		pts = append(pts, hyperbolic.MakePoint(id, theta, rad))
		id++
	})
	return pts
}

// chunkPoints generates the points of (annulus i, chunk c), sorted by
// angle, with globally consistent IDs.
func (inst *instance) chunkPoints(i int, c uint64) []hyperbolic.Point {
	before, count := inst.chunkRank(i, c)
	idBase := inst.annulusPrefix[i] + before
	r := prng.New(inst.p.Seed, core.TagRHGPoints, uint64(i), c)
	pts := make([]hyperbolic.Point, 0, count)
	lo := float64(c) * inst.chunkWidth
	hi := lo + inst.chunkWidth
	id := idBase
	sampling.SortedUniforms(&r, count, lo, hi, func(theta float64) {
		rad := hyperbolic.SampleRadius(&r, inst.alpha, inst.bounds[i], inst.bounds[i+1])
		pts = append(pts, hyperbolic.MakePoint(id, theta, rad))
		id++
	})
	return pts
}

// ownerOf returns the PE owning an angle.
func (inst *instance) ownerOf(theta float64) uint64 {
	c := uint64(theta / inst.chunkWidth)
	if c >= inst.p.chunks() {
		c = inst.p.chunks() - 1
	}
	return c
}

// StreamChunk runs one logical PE into e: it owns the angular sector
// [2*pi*pe/P, 2*pi*(pe+1)/P) across the core and all annuli and emits all
// edges incident to its local vertices, recomputing foreign chunks as the
// neighbourhood queries reach them. The in-memory generator answers the
// queries against the whole sector, so it holds the sector's points while
// it emits; sRHG is the memory-bounded streaming variant. Undirected edges
// appear once per endpoint across the PEs (unless OutwardOnly). The
// replicated core and every foreign chunk count as redundant vertices,
// every candidate pair as a comparison.
func StreamChunk(p Params, peID uint64, e *core.Emitter) {
	inst := newInstance(p)
	k := len(inst.bounds) - 1

	corePts := inst.corePoints()
	e.RedundantVertices += inst.coreCount // replicated on every PE

	cache := make(map[[2]uint64][]hyperbolic.Point)
	chunkOf := func(i int, c uint64) []hyperbolic.Point {
		key := [2]uint64{uint64(i), c}
		if pts, ok := cache[key]; ok {
			return pts
		}
		pts := inst.chunkPoints(i, c)
		if c != peID {
			e.RedundantVertices += uint64(len(pts))
		}
		cache[key] = pts
		return pts
	}

	// Local vertices: own chunks of every annulus plus owned core points
	// (annulus index -1 marks the core).
	type local struct {
		pt  hyperbolic.Point
		ann int
	}
	var locals []local
	for _, cp := range corePts {
		if inst.ownerOf(cp.Theta) == peID {
			locals = append(locals, local{cp, -1})
		}
	}
	for i := 0; i < k; i++ {
		for _, pt := range chunkOf(i, peID) {
			locals = append(locals, local{pt, i})
		}
	}

	emit := func(v, u hyperbolic.Point) {
		e.Comparisons++
		if u.ID != v.ID && inst.geo.IsNeighbor(v, u) {
			e.Append(v.ID, u.ID)
		}
	}

	if p.OutwardOnly {
		// Every edge is found once, by the endpoint in the lower annulus
		// (ID tie-break within the same annulus / the core).
		for _, l := range locals {
			v := l.pt
			if l.ann < 0 {
				// Core vertex: core partners by ID order, every annulus
				// outward in full.
				for _, u := range corePts {
					if u.ID > v.ID {
						emit(v, u)
					}
				}
				for i := 0; i < k; i++ {
					dt := inst.geo.DeltaThetaPre(v, inst.cothLo[i], inst.coshRInvSinLo[i])
					inst.scanWindow(i, v, dt, chunkOf, emit)
				}
				continue
			}
			// Annulus vertex: skip the core (found by the core endpoint)
			// and all inner annuli; ID tie-break inside the own annulus.
			for i := l.ann; i < k; i++ {
				dt := inst.geo.DeltaThetaPre(v, inst.cothLo[i], inst.coshRInvSinLo[i])
				if i == l.ann {
					inst.scanWindow(i, v, dt, chunkOf, func(v, u hyperbolic.Point) {
						if u.ID > v.ID {
							emit(v, u)
						}
					})
					continue
				}
				inst.scanWindow(i, v, dt, chunkOf, emit)
			}
		}
		return
	}

	for _, l := range locals {
		v := l.pt
		// Core candidates: always checked, the core is replicated.
		for _, u := range corePts {
			emit(v, u)
		}
		// Annulus candidates via the angular deviation bound.
		for i := 0; i < k; i++ {
			dt := inst.geo.DeltaThetaPre(v, inst.cothLo[i], inst.coshRInvSinLo[i])
			inst.scanWindow(i, v, dt, chunkOf, emit)
		}
	}
}

// scanWindow visits every point of annulus i whose angle lies within
// [v.Theta-dt, v.Theta+dt] (mod 2*pi) exactly once.
func (inst *instance) scanWindow(i int, v hyperbolic.Point, dt float64,
	chunkOf func(int, uint64) []hyperbolic.Point, emit func(v, u hyperbolic.Point)) {
	if dt <= 0 {
		return
	}
	if dt >= math.Pi {
		inst.scanInterval(i, 0, 2*math.Pi, v, chunkOf, emit)
		return
	}
	lo := v.Theta - dt
	hi := v.Theta + dt
	switch {
	case lo < 0:
		inst.scanInterval(i, lo+2*math.Pi, 2*math.Pi, v, chunkOf, emit)
		inst.scanInterval(i, 0, hi, v, chunkOf, emit)
	case hi > 2*math.Pi:
		inst.scanInterval(i, lo, 2*math.Pi, v, chunkOf, emit)
		inst.scanInterval(i, 0, hi-2*math.Pi, v, chunkOf, emit)
	default:
		inst.scanInterval(i, lo, hi, v, chunkOf, emit)
	}
}

// scanInterval visits the points of annulus i with angles in [a, b].
func (inst *instance) scanInterval(i int, a, b float64, v hyperbolic.Point,
	chunkOf func(int, uint64) []hyperbolic.Point, emit func(v, u hyperbolic.Point)) {
	P := inst.p.chunks()
	cStart := uint64(a / inst.chunkWidth)
	if cStart >= P {
		cStart = P - 1
	}
	cEnd := uint64(b / inst.chunkWidth)
	if cEnd >= P {
		cEnd = P - 1
	}
	for c := cStart; c <= cEnd; c++ {
		pts := chunkOf(i, c)
		lo := sort.Search(len(pts), func(j int) bool { return pts[j].Theta >= a })
		for j := lo; j < len(pts) && pts[j].Theta <= b; j++ {
			emit(v, pts[j])
		}
	}
}

// Points returns all vertex coordinates in ID order (core first, then
// annulus-major chunk-minor), exactly as the PEs generate them. Used by
// the reference checks.
func Points(p Params) []hyperbolic.Point {
	inst := newInstance(p)
	pts := inst.corePoints()
	for i := 0; i < len(inst.bounds)-1; i++ {
		for c := uint64(0); c < p.chunks(); c++ {
			pts = append(pts, inst.chunkPoints(i, c)...)
		}
	}
	return pts
}

// Radius exposes the derived disk radius (for diagnostics and tests).
func Radius(p Params) float64 {
	return hyperbolic.DiskRadius(p.N, p.AvgDeg, hyperbolic.AlphaFromGamma(p.Gamma))
}
