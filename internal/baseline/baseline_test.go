package baseline

import (
	"math"
	"testing"

	"repro/internal/geometry"
	"repro/internal/graph"
	"repro/internal/hyperbolic"
)

func TestGNMBatageljBrandesCounts(t *testing.T) {
	for _, directed := range []bool{true, false} {
		el := GNMBatageljBrandes(500, 3000, directed, 1)
		if el.Len() != 3000 {
			t.Fatalf("directed=%v: %d edges", directed, el.Len())
		}
		if el.CountDuplicates() != 0 {
			t.Errorf("directed=%v: duplicates present", directed)
		}
		if el.CountSelfLoops() != 0 {
			t.Errorf("directed=%v: self loops present", directed)
		}
		for _, e := range el.Edges {
			if e.U >= 500 || e.V >= 500 {
				t.Fatalf("edge %v out of range", e)
			}
		}
	}
}

func TestGNMBatageljBrandesUniform(t *testing.T) {
	const n = 10
	const m = 5
	counts := make(map[graph.Edge]int)
	const trials = 20000
	for s := uint64(0); s < trials; s++ {
		el := GNMBatageljBrandes(n, m, false, s)
		for _, e := range el.Edges {
			counts[e]++
		}
	}
	want := float64(trials) * m / 45
	for u := uint64(1); u < n; u++ {
		for v := uint64(0); v < u; v++ {
			c := counts[graph.Edge{U: u, V: v}]
			if math.Abs(float64(c)-want)/want > 0.1 {
				t.Errorf("pair (%d,%d): %d, want ~%v", u, v, c, want)
			}
		}
	}
}

// TestHoltgreweMatchesNaive: the sort-and-exchange generator produces the
// exact RGG of its point set.
func TestHoltgreweMatchesNaive(t *testing.T) {
	pts := UniformPoints(400, 2, 3)
	const radius = 0.08
	want := RGGNaive(pts, 2, radius)
	got := RGGHoltgrewe(append([]geometry.Point(nil), pts...), radius)
	want.Sort()
	got.Sort()
	if want.Len() != got.Len() {
		t.Fatalf("naive %d edges, holtgrewe %d", want.Len(), got.Len())
	}
	for i := range want.Edges {
		if want.Edges[i] != got.Edges[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
}

// TestRHGNkGenStats: the baseline produces a hyperbolic graph with
// plausible degree statistics (its correctness backs Fig. 14).
func TestRHGNkGenStats(t *testing.T) {
	const n = 1 << 13
	el := RHGNkGen(n, 12, 3.0, 5)
	stats := graph.ComputeStats(el)
	if stats.AvgDegree < 6 || stats.AvgDegree > 20 {
		t.Errorf("avg degree %v, want near 12", stats.AvgDegree)
	}
	// Both orientations present.
	set := make(map[graph.Edge]bool, el.Len())
	for _, e := range el.Edges {
		set[e] = true
	}
	for _, e := range el.Edges {
		if !set[graph.Edge{U: e.V, V: e.U}] {
			t.Fatal("missing mirror orientation")
		}
	}
}

// TestRHGNkGenExact: against the all-pairs reference on its own points we
// cannot compare directly (points are internal), but a small instance must
// at least produce every edge twice and no self loops.
func TestRHGNkGenConsistency(t *testing.T) {
	el := RHGNkGen(500, 8, 2.5, 9)
	if el.CountSelfLoops() != 0 {
		t.Error("self loops present")
	}
	und := el.UndirectedSet()
	if el.Len() != 2*len(und) {
		t.Errorf("%d directed copies vs %d undirected edges", el.Len(), len(und))
	}
}

func TestDeltaThetaDegenerate(t *testing.T) {
	// Guard added for the NkGen baseline: b = 0 with r >= R.
	if dt := hyperbolic.DeltaTheta(10, 0, 10); dt != 0 {
		t.Errorf("DeltaTheta(r=R, b=0) = %v, want 0", dt)
	}
	if dt := hyperbolic.DeltaTheta(5, 0, 10); dt != math.Pi {
		t.Errorf("DeltaTheta inside = %v, want pi", dt)
	}
}
