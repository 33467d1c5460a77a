// Package srhg implements the streaming random hyperbolic graph generator
// sRHG of the paper (§7.2).
//
// The disk is split radially into the replicated clique core (r < R/2),
// the lower *global* annuli — whose points can issue requests wider than a
// chunk and are therefore recomputed redundantly on every PE — and the
// upper *streaming* annuli, processed by a sweep-line per annulus.
//
// Following the paper, streaming points are generated by causality
// inversion: the *begin of the request* is drawn from a monotone sequence
// of sorted uniforms and the point is placed at begin + Δθ, so the sweep
// can activate every request before its node token arrives. Requests
// propagate only towards higher annuli; each PE finishes dangling requests
// in a final phase that replicates the configuration of the next chunk
// (marked foreign so no edge is emitted twice).
package srhg

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

// Params configures a streaming random hyperbolic graph. The fields match
// the in-memory generator (package rhg).
type Params struct {
	N      uint64
	AvgDeg float64
	Gamma  float64
	Seed   uint64
	Chunks uint64
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
		return fmt.Errorf("srhg: n must be positive")
	}
	if p.Gamma <= 2 {
		return fmt.Errorf("srhg: gamma must exceed 2 (got %v)", p.Gamma)
	}
	if p.AvgDeg <= 0 || p.AvgDeg >= float64(p.N) {
		return fmt.Errorf("srhg: average degree %v out of range", p.AvgDeg)
	}
	return nil
}

// instance holds the derived decomposition, identical on every PE.
type instance struct {
	p      Params
	alpha  float64
	bigR   float64
	geo    hyperbolic.Geo
	bounds []float64 // annulus boundaries over [R/2, R]

	cothLo        []float64 // per annulus: coth(lower bound)
	coshRInvSinLo []float64 // per annulus: cosh(R)/sinh(lower bound)

	coreCount     uint64
	annulusCount  []uint64
	annulusPrefix []uint64
	annulusSeed   []uint64 // per-annulus chunk-split seeds
	chunkWidth    float64

	firstStreaming int // annuli below this index are global
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

	masses := make([]float64, k+1)
	masses[0] = hyperbolic.RadialCDFMass(inst.alpha, inst.bigR, inst.bigR/2)
	for i := 0; i < k; i++ {
		masses[i+1] = hyperbolic.AnnulusMass(inst.alpha, inst.bigR, inst.bounds[i], inst.bounds[i+1])
	}
	r := prng.New(p.Seed, core.TagSRHG, 0)
	counts := dist.Multinomial(&r, p.N, masses)
	inst.coreCount = counts[0]
	inst.annulusCount = counts[1:]

	inst.chunkWidth = 2 * math.Pi / float64(p.chunks())
	inst.annulusPrefix = make([]uint64, k+1)
	inst.annulusPrefix[0] = inst.coreCount
	inst.annulusSeed = make([]uint64, k)
	for i := 0; i < k; i++ {
		inst.annulusPrefix[i+1] = inst.annulusPrefix[i] + inst.annulusCount[i]
		inst.annulusSeed[i] = prng.HashWords64(p.Seed, core.TagSRHG, 1, uint64(i))
	}

	// An annulus is streaming when the widest possible request of one of
	// its points (a point on the lower boundary against its own annulus)
	// fits within one chunk.
	inst.firstStreaming = k // default: all global (never happens in practice)
	for i := 0; i < k; i++ {
		width := 2 * hyperbolic.DeltaTheta(inst.bounds[i], inst.bounds[i], inst.bigR)
		if width <= inst.chunkWidth {
			inst.firstStreaming = i
			break
		}
	}
	return inst
}

// deltaTheta returns the request half-width of point pt against annulus j.
func (inst *instance) deltaTheta(pt hyperbolic.Point, j int) float64 {
	return inst.geo.DeltaThetaPre(pt, inst.cothLo[j], inst.coshRInvSinLo[j])
}

// chunkRank derives the in-annulus ID offset and vertex count of chunk c
// of annulus i in O(log P) draws — setup no longer materializes the O(P)
// per-annulus chunk count and prefix arrays.
func (inst *instance) chunkRank(i int, c uint64) (before, count uint64) {
	return sampling.RecursiveSplitEqualRank(inst.annulusSeed[i], inst.annulusCount[i], inst.p.chunks(), c)
}

// corePoints replicates the clique core on every PE (IDs [0, coreCount)).
func (inst *instance) corePoints() []hyperbolic.Point {
	r := prng.New(inst.p.Seed, core.TagSRHG, 2)
	pts := make([]hyperbolic.Point, 0, inst.coreCount)
	id := uint64(0)
	sampling.SortedUniforms(&r, inst.coreCount, 0, 2*math.Pi, func(theta float64) {
		rad := hyperbolic.SampleRadius(&r, inst.alpha, 0, inst.bigR/2)
		pts = append(pts, hyperbolic.MakePoint(id, theta, rad))
		id++
	})
	return pts
}

// globalChunkPoints generates the points of a global annulus chunk (sorted
// by their actual angle, like the in-memory generator).
func (inst *instance) globalChunkPoints(i int, c uint64) []hyperbolic.Point {
	before, count := inst.chunkRank(i, c)
	idBase := inst.annulusPrefix[i] + before
	r := prng.New(inst.p.Seed, core.TagSRHG, 3, uint64(i), c)
	pts := make([]hyperbolic.Point, 0, count)
	lo := float64(c) * inst.chunkWidth
	id := idBase
	sampling.SortedUniforms(&r, count, lo, lo+inst.chunkWidth, func(theta float64) {
		rad := hyperbolic.SampleRadius(&r, inst.alpha, inst.bounds[i], inst.bounds[i+1])
		pts = append(pts, hyperbolic.MakePoint(id, theta, rad))
		id++
	})
	return pts
}

// streamPoint is a streaming point together with its unwrapped sweep
// coordinate (>= its chunk's lower boundary, possibly beyond 2*pi).
type streamPoint struct {
	pt      hyperbolic.Point
	coord   float64 // unwrapped node angle: begin + Δθ_own
	annulus int
}

// streamChunkPoints generates the points of a streaming annulus chunk by
// causality inversion: the begin-of-request angles are a sorted uniform
// sequence over the chunk; the node sits Δθ(r, ℓ_own) after its begin.
func (inst *instance) streamChunkPoints(i int, c uint64) []streamPoint {
	before, count := inst.chunkRank(i, c)
	idBase := inst.annulusPrefix[i] + before
	r := prng.New(inst.p.Seed, core.TagSRHG, 3, uint64(i), c)
	pts := make([]streamPoint, 0, count)
	lo := float64(c) * inst.chunkWidth
	id := idBase
	sampling.SortedUniforms(&r, count, lo, lo+inst.chunkWidth, func(begin float64) {
		rad := hyperbolic.SampleRadius(&r, inst.alpha, inst.bounds[i], inst.bounds[i+1])
		// Build a provisional point to evaluate Δθ with precomputation.
		tmp := hyperbolic.MakePoint(id, 0, rad)
		dt := inst.deltaTheta(tmp, i)
		coord := begin + dt
		theta := math.Mod(coord, 2*math.Pi)
		pts = append(pts, streamPoint{
			pt:      hyperbolic.MakePoint(id, theta, rad),
			coord:   coord,
			annulus: i,
		})
		id++
	})
	return pts
}

// event kinds, ordered so that at equal coordinates requests activate
// before node tokens and node tokens precede request ends.
const (
	evBegin = iota
	evToken
	evEnd
)

const (
	flagForeign = 1 << iota // from the final phase's replicated chunk
	flagGlobal              // request of a core / global-annulus point
)

// event is a sweep event of one annulus.
type event struct {
	coord   float64
	kind    int8
	flags   uint8
	annulus int     // requester's / token's own annulus; -1 for global
	ptCoord float64 // requester's node coordinate (for same-annulus dedup)
	end     float64 // request end (begin events)
	pt      hyperbolic.Point
}

// request is an active sweep-state entry.
type request struct {
	pt      hyperbolic.Point
	end     float64
	flags   uint8
	annulus int
	ptCoord float64
}

// StreamChunk runs one logical PE of sRHG into e: the global phase
// (replicated core + global annuli, distributed by angular ownership),
// then the main sweep over its chunk of every streaming annulus, then the
// final phase over the replicated next chunk. The annulus sweep is
// stream-shaped: edges leave the sweep as soon as a node token meets an
// active request, so only the sweep state (events of the PE's sector plus
// the replicated next chunk) is held in memory, never the edge list.
// Undirected edges appear once per endpoint across the PEs. The
// redundant-vertex and comparison counts go to e's Work.
func StreamChunk(p Params, peID uint64, e *core.Emitter) {
	inst := newInstance(p)
	res := &e.Work
	k := len(inst.bounds) - 1
	P := p.chunks()

	// ---- Global phase ----
	globals := inst.corePoints()
	for i := 0; i < inst.firstStreaming; i++ {
		for c := uint64(0); c < P; c++ {
			globals = append(globals, inst.globalChunkPoints(i, c)...)
		}
	}
	res.RedundantVertices += uint64(len(globals))

	sectorLo := float64(peID) * inst.chunkWidth
	owner := func(theta float64) uint64 {
		c := uint64(theta / inst.chunkWidth)
		if c >= P {
			c = P - 1
		}
		return c
	}
	// Edges among global points: each PE handles the global points whose
	// angle falls into its sector and emits one orientation per ordered
	// pair (the partner's owner emits the mirror).
	for gi := range globals {
		g := globals[gi]
		if owner(g.Theta) != peID {
			continue
		}
		for hi := range globals {
			if hi == gi {
				continue
			}
			res.Comparisons++
			if inst.geo.IsNeighbor(g, globals[hi]) {
				e.Append(g.ID, globals[hi].ID)
			}
		}
	}

	// ---- Build sweep events for the streaming annuli ----
	// Sweep domain: the PE's sector plus one chunk for the final phase.
	domainLo := sectorLo
	domainHi := sectorLo + 2*inst.chunkWidth

	events := make([][]event, k) // indexed by annulus; only streaming used

	addStreamChunk := func(c uint64, shift float64, foreign bool) {
		var fl uint8
		if foreign {
			fl = flagForeign
		}
		for i := inst.firstStreaming; i < k; i++ {
			for _, sp := range inst.streamChunkPoints(i, c) {
				if foreign {
					res.RedundantVertices++
				}
				tokenCoord := sp.coord + shift
				events[i] = append(events[i], event{
					coord: tokenCoord, kind: evToken, flags: fl,
					annulus: i, ptCoord: tokenCoord, pt: sp.pt,
				})
				// Requests in the own and all higher streaming annuli.
				for j := i; j < k; j++ {
					dt := inst.deltaTheta(sp.pt, j)
					begin := tokenCoord - dt
					end := tokenCoord + dt
					events[j] = append(events[j],
						event{coord: begin, kind: evBegin, flags: fl,
							annulus: i, ptCoord: tokenCoord, end: end, pt: sp.pt},
						event{coord: end, kind: evEnd, flags: fl, pt: sp.pt},
					)
				}
			}
		}
	}

	addStreamChunk(peID, 0, false)
	// Final phase: replicate the next chunk (which is the own chunk again,
	// shifted by a full turn, when P == 1 — this is how the sweep closes
	// the circle).
	next := (peID + 1) % P
	shift := 0.0
	if next <= peID {
		shift = 2 * math.Pi
	}
	addStreamChunk(next, shift, true)

	// Global requests: clipped arcs of each global point's window per
	// streaming annulus, unwrapped into the sweep domain.
	for gi := range globals {
		g := globals[gi]
		for j := inst.firstStreaming; j < k; j++ {
			dt := inst.deltaTheta(g, j)
			if dt <= 0 {
				continue
			}
			length := 2 * dt
			if length > 2*math.Pi {
				length = 2 * math.Pi
			}
			start := math.Mod(g.Theta-dt, 2*math.Pi)
			if start < 0 {
				start += 2 * math.Pi
			}
			// Copies of the half-open arc [start, start+length) shifted by
			// multiples of 2*pi; consecutive copies are disjoint because
			// length <= 2*pi.
			for t := -1.0; t <= 1.0; t++ {
				a := start + t*2*math.Pi
				b := a + length
				if b <= domainLo || a >= domainHi {
					continue
				}
				events[j] = append(events[j],
					event{coord: a, kind: evBegin, flags: flagGlobal,
						annulus: -1, ptCoord: a, end: b, pt: g},
					event{coord: b, kind: evEnd, flags: flagGlobal, pt: g},
				)
			}
		}
	}

	// ---- Sweep each streaming annulus ----
	for j := inst.firstStreaming; j < k; j++ {
		evs := events[j]
		sort.Slice(evs, func(a, b int) bool {
			if evs[a].coord != evs[b].coord {
				return evs[a].coord < evs[b].coord
			}
			return evs[a].kind < evs[b].kind
		})
		var active []request
		for _, ev := range evs {
			switch ev.kind {
			case evBegin:
				active = append(active, request{
					pt: ev.pt, end: ev.end, flags: ev.flags,
					annulus: ev.annulus, ptCoord: ev.ptCoord,
				})
			case evEnd:
				for idx := range active {
					if active[idx].pt.ID == ev.pt.ID && active[idx].end == ev.coord {
						active[idx] = active[len(active)-1]
						active = active[:len(active)-1]
						break
					}
				}
			case evToken:
				for idx := range active {
					rq := active[idx]
					if rq.pt.ID == ev.pt.ID {
						continue
					}
					if rq.flags&flagForeign != 0 && ev.flags&flagForeign != 0 {
						continue // both from the replicated chunk
					}
					if rq.flags&flagGlobal != 0 {
						if ev.flags&flagForeign != 0 {
							continue // the next PE owns this discovery
						}
						res.Comparisons++
						if inst.geo.IsNeighbor(rq.pt, ev.pt) {
							e.Append(rq.pt.ID, ev.pt.ID)
							e.Append(ev.pt.ID, rq.pt.ID)
						}
						continue
					}
					if rq.annulus == ev.annulus {
						// Same-annulus pairs are discovered twice (each
						// point's request covers the other's token); only
						// the discovery at the later token emits, with an
						// ID tie-break for exactly coincident angles.
						if ev.coord < rq.ptCoord ||
							(ev.coord == rq.ptCoord && ev.pt.ID < rq.pt.ID) {
							continue
						}
					}
					res.Comparisons++
					if inst.geo.IsNeighbor(rq.pt, ev.pt) {
						e.Append(rq.pt.ID, ev.pt.ID)
						e.Append(ev.pt.ID, rq.pt.ID)
					}
				}
			}
		}
	}
}

// Points returns all vertex coordinates in ID order (core, global annuli,
// then streaming annuli), with angles normalized to [0, 2*pi). Used by the
// reference checks.
func Points(p Params) []hyperbolic.Point {
	inst := newInstance(p)
	pts := inst.corePoints()
	k := len(inst.bounds) - 1
	for i := 0; i < k; i++ {
		for c := uint64(0); c < p.chunks(); c++ {
			if i < inst.firstStreaming {
				pts = append(pts, inst.globalChunkPoints(i, c)...)
				continue
			}
			for _, sp := range inst.streamChunkPoints(i, c) {
				pts = append(pts, sp.pt)
			}
		}
	}
	return pts
}

// FirstStreamingAnnulus exposes the global/streaming split for tests and
// diagnostics.
func FirstStreamingAnnulus(p Params) int {
	return newInstance(p).firstStreaming
}
