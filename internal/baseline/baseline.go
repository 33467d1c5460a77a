// Package baseline implements the competitor algorithms the paper
// benchmarks KaGen against: the sequential linear-time G(n,m) generator
// of Batagelj and Brandes (the algorithm family behind the Boost
// generator of Fig. 6), the naive and Holtgrewe-style random
// geometric graph generators (Fig. 9), and a query-centric random
// hyperbolic generator without precomputed trigonometry in the spirit of
// NkGen (Fig. 14). benchreg's Fig rows time them on one machine, so the
// Holtgrewe generator's all-to-all exchange is a local sort and its
// communication cost is not modelled.
package baseline

import (
	"math"
	"sort"

	"repro/internal/geometry"
	"repro/internal/graph"
	"repro/internal/hyperbolic"
	"repro/internal/prng"
)

// GNMBatageljBrandes draws a uniform G(n,m) with the virtual Fisher–Yates
// shuffle of Batagelj & Brandes (§3.1): m swaps over the implicit edge
// universe, tracked in a hash map, in O(n + m) time. Like the Boost
// generator it also materializes an adjacency structure, which is why its
// running time depends on n as well as m (the effect visible in Fig. 6).
func GNMBatageljBrandes(n, m uint64, directed bool, seed uint64) *graph.EdgeList {
	r := prng.NewFromRaw(seed)
	universe := n * (n - 1)
	if !directed {
		universe /= 2
	}
	replaced := make(map[uint64]uint64, m)
	edges := make([]graph.Edge, 0, m)
	pick := func(idx uint64) uint64 {
		if v, ok := replaced[idx]; ok {
			return v
		}
		return idx
	}
	for i := uint64(0); i < m; i++ {
		j := i + r.UintN(universe-i)
		vi, vj := pick(i), pick(j)
		replaced[j] = vi
		replaced[i] = vj // keeps the map total on [0, m)
		edges = append(edges, decodeEdge(vj, n, directed))
	}
	el := &graph.EdgeList{N: n, Edges: edges}
	// Build the adjacency structure the Boost generator would maintain.
	graph.BuildCSR(el)
	return el
}

func decodeEdge(idx, n uint64, directed bool) graph.Edge {
	if directed {
		u := idx / (n - 1)
		rem := idx % (n - 1)
		v := rem
		if rem >= u {
			v = rem + 1
		}
		return graph.Edge{U: u, V: v}
	}
	// Strict lower triangle.
	row := uint64((1 + math.Sqrt(1+8*float64(idx))) / 2)
	for row*(row-1)/2 > idx {
		row--
	}
	for (row+1)*row/2 <= idx {
		row++
	}
	return graph.Edge{U: row, V: idx - row*(row-1)/2}
}

// RGGNaive is the Θ(n²) all-pairs random geometric graph reference (§3.2).
func RGGNaive(pts []geometry.Point, dim int, radius float64) *graph.EdgeList {
	r2 := radius * radius
	el := &graph.EdgeList{N: uint64(len(pts))}
	for i := range pts {
		for j := range pts {
			if i == j {
				continue
			}
			if geometry.Dist2(dim, pts[i].X, pts[j].X) <= r2 {
				el.Edges = append(el.Edges, graph.Edge{U: pts[i].ID, V: pts[j].ID})
			}
		}
	}
	return el
}

// UniformPoints draws n points uniformly from the unit cube with a plain
// sequential stream (the way the baselines place vertices).
func UniformPoints(n uint64, dim int, seed uint64) []geometry.Point {
	r := prng.NewFromRaw(seed)
	pts := make([]geometry.Point, n)
	for i := range pts {
		var x [3]float64
		for d := 0; d < dim; d++ {
			x[d] = r.Float64()
		}
		pts[i] = geometry.Point{X: x, ID: uint64(i)}
	}
	return pts
}

// RGGHoltgrewe runs the computation phase of the Holtgrewe et al.
// generator for 2-D: sort the points into the global cell grid ("the
// exchange"), then generate edges cell-locally without any ghost
// recomputation. It returns the edge list; the exchange's communication
// is not modelled, so a timed call measures computation only. The pts
// slice is reordered in place.
func RGGHoltgrewe(pts []geometry.Point, radius float64) *graph.EdgeList {
	n := uint64(len(pts))
	gridDim := uint64(1 / radius)
	if gridDim < 1 {
		gridDim = 1
	}
	cellSide := 1 / float64(gridDim)
	cellOf := func(p geometry.Point) uint64 {
		cx := uint64(p.X[0] / cellSide)
		cy := uint64(p.X[1] / cellSide)
		if cx >= gridDim {
			cx = gridDim - 1
		}
		if cy >= gridDim {
			cy = gridDim - 1
		}
		return cx*gridDim + cy
	}
	// The "exchange": a global sort by cell.
	sort.Slice(pts, func(i, j int) bool { return cellOf(pts[i]) < cellOf(pts[j]) })
	// Cell index.
	starts := make(map[uint64][2]int)
	for i := 0; i < len(pts); {
		c := cellOf(pts[i])
		j := i
		for j < len(pts) && cellOf(pts[j]) == c {
			j++
		}
		starts[c] = [2]int{i, j}
		i = j
	}
	r2 := radius * radius
	el := &graph.EdgeList{N: n}
	for i := range pts {
		c := cellOf(pts[i])
		cx, cy := int64(c/gridDim), int64(c%gridDim)
		for dx := int64(-1); dx <= 1; dx++ {
			for dy := int64(-1); dy <= 1; dy++ {
				nx, ny := cx+dx, cy+dy
				if nx < 0 || ny < 0 || nx >= int64(gridDim) || ny >= int64(gridDim) {
					continue
				}
				rng, ok := starts[uint64(nx)*gridDim+uint64(ny)]
				if !ok {
					continue
				}
				for j := rng[0]; j < rng[1]; j++ {
					if i == j {
						continue
					}
					if geometry.Dist2(2, pts[i].X, pts[j].X) <= r2 {
						el.Edges = append(el.Edges, graph.Edge{U: pts[i].ID, V: pts[j].ID})
					}
				}
			}
		}
	}
	return el
}

// RHGNkGen is a query-centric random hyperbolic generator in the spirit of
// NkGen (§3.3): annulus buckets with per-query angular bounds, but — unlike
// the KaGen generators — every candidate check evaluates hyperbolic
// cosines directly instead of using precomputed per-point constants. Its
// per-edge cost is therefore dominated by trigonometric evaluations, the
// effect visible in Fig. 14.
func RHGNkGen(n uint64, avgDeg, gamma float64, seed uint64) *graph.EdgeList {
	alpha := hyperbolic.AlphaFromGamma(gamma)
	bigR := hyperbolic.DiskRadius(n, avgDeg, alpha)
	r := prng.NewFromRaw(seed)

	type pt struct {
		theta, rad float64
		id         uint64
	}
	bounds := hyperbolic.Annuli(alpha, 0, bigR)
	k := len(bounds) - 1
	buckets := make([][]pt, k)
	for i := uint64(0); i < n; i++ {
		theta := r.Float64() * 2 * math.Pi
		rad := hyperbolic.SampleRadius(r, alpha, 0, bigR)
		b := sort.SearchFloat64s(bounds, rad) - 1
		if b < 0 {
			b = 0
		}
		if b >= k {
			b = k - 1
		}
		buckets[b] = append(buckets[b], pt{theta, rad, i})
	}
	for b := range buckets {
		sort.Slice(buckets[b], func(i, j int) bool { return buckets[b][i].theta < buckets[b][j].theta })
	}

	el := &graph.EdgeList{N: n}
	for b := 0; b < k; b++ {
		for _, p := range buckets[b] {
			for j := 0; j < k; j++ {
				dt := hyperbolic.DeltaTheta(p.rad, bounds[j], bigR)
				scan := func(lo, hi float64) {
					bk := buckets[j]
					start := sort.Search(len(bk), func(x int) bool { return bk[x].theta >= lo })
					for x := start; x < len(bk) && bk[x].theta <= hi; x++ {
						q := bk[x]
						if q.id == p.id {
							continue
						}
						// Direct distance evaluation (no precomputation).
						if hyperbolic.Distance(p.rad, p.theta, q.rad, q.theta) < bigR {
							el.Edges = append(el.Edges, graph.Edge{U: p.id, V: q.id})
						}
					}
				}
				if dt >= math.Pi {
					scan(0, 2*math.Pi)
					continue
				}
				lo, hi := p.theta-dt, p.theta+dt
				switch {
				case lo < 0:
					scan(lo+2*math.Pi, 2*math.Pi)
					scan(0, hi)
				case hi > 2*math.Pi:
					scan(lo, 2*math.Pi)
					scan(0, hi-2*math.Pi)
				default:
					scan(lo, hi)
				}
			}
		}
	}
	return el
}
