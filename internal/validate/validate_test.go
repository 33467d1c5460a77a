package validate

import (
	"testing"

	"repro/internal/ba"
	"repro/internal/gnm"
	"repro/internal/gnp"
	"repro/internal/graph"
	"repro/internal/rdg"
	"repro/internal/rgg"
	"repro/internal/rhg"
	"repro/internal/rmat"
	"repro/internal/sbm"
)

func requireAllPassed(t *testing.T, name string, checks []Check) {
	t.Helper()
	for _, c := range Failed(checks) {
		t.Errorf("%s: check %q failed: %s", name, c.Name, c.Detail)
	}
}

// TestGeneratedInstancesValidate: every generator's output passes its own
// model validation.
func TestGeneratedInstancesValidate(t *testing.T) {
	{
		p := gnm.Params{N: 4000, M: 30000, Directed: false, Seed: 1, Chunks: 8}
		el, err := gnm.Generate(p, 4)
		if err != nil {
			t.Fatal(err)
		}
		requireAllPassed(t, "gnm", GNM(el, p.N, p.M, false))
	}
	{
		p := gnp.Params{N: 4000, P: 0.004, Directed: true, Seed: 2, Chunks: 8}
		el, err := gnp.Generate(p, 4)
		if err != nil {
			t.Fatal(err)
		}
		requireAllPassed(t, "gnp", GNP(el, p.N, p.P, true))
	}
	{
		p := rgg.Params{N: 8000, R: 0.03, Dim: 2, Seed: 3, Chunks: 4}
		el, err := rgg.Generate(p, 4)
		if err != nil {
			t.Fatal(err)
		}
		requireAllPassed(t, "rgg", RGG(el, p.N, p.R, 2))
	}
	{
		p := rdg.Params{N: 3000, Dim: 2, Seed: 4, Chunks: 4}
		el, err := rdg.Generate(p, 4)
		if err != nil {
			t.Fatal(err)
		}
		requireAllPassed(t, "rdg2", RDG(el, p.N, 2))
	}
	{
		p := rdg.Params{N: 800, Dim: 3, Seed: 5, Chunks: 2}
		el, err := rdg.Generate(p, 4)
		if err != nil {
			t.Fatal(err)
		}
		requireAllPassed(t, "rdg3", RDG(el, p.N, 3))
	}
	{
		p := rhg.Params{N: 1 << 14, AvgDeg: 12, Gamma: 2.7, Seed: 6, Chunks: 8}
		el, err := rhg.Generate(p, 8)
		if err != nil {
			t.Fatal(err)
		}
		requireAllPassed(t, "rhg", RHG(el, p.N, p.AvgDeg, p.Gamma))
	}
	{
		p := ba.Params{N: 1 << 14, D: 4, Seed: 7, Chunks: 8}
		el, err := ba.Generate(p, 8)
		if err != nil {
			t.Fatal(err)
		}
		requireAllPassed(t, "ba", BA(el, p.N, p.D))
	}
	{
		p := rmat.Params{Scale: 12, M: 1 << 16, Seed: 8, Chunks: 8}
		el, err := rmat.NewGenerator(p).Generate(8)
		if err != nil {
			t.Fatal(err)
		}
		requireAllPassed(t, "rmat", RMAT(el, p.Scale, p.M))
	}
	{
		p := sbm.PlantedPartition(3000, 3, 0.02, 0.002, 9, 6)
		el, err := sbm.Generate(p, 4)
		if err != nil {
			t.Fatal(err)
		}
		requireAllPassed(t, "sbm", SBM(el, p.BlockSizes, 0.02, 0.002))
	}
}

// TestFailureInjection: corrupted instances must be rejected — validation
// that cannot fail validates nothing.
func TestFailureInjection(t *testing.T) {
	p := gnm.Params{N: 1000, M: 5000, Directed: false, Seed: 10, Chunks: 4}
	el, err := gnm.Generate(p, 4)
	if err != nil {
		t.Fatal(err)
	}

	// Drop one orientation of one edge: symmetry must fail.
	broken := &graph.EdgeList{N: el.N, Edges: append([]graph.Edge(nil), el.Edges[1:]...)}
	if AllPassed(GNM(broken, p.N, p.M, false)) {
		t.Error("missing mirror orientation not detected")
	}

	// Add a self-loop.
	withLoop := &graph.EdgeList{N: el.N, Edges: append(append([]graph.Edge(nil), el.Edges...),
		graph.Edge{U: 5, V: 5})}
	if AllPassed(GNM(withLoop, p.N, p.M, false)) {
		t.Error("self loop not detected")
	}

	// Wrong edge count.
	if AllPassed(GNM(el, p.N, p.M+1, false)) {
		t.Error("wrong edge count not detected")
	}

	// Out-of-range vertex.
	outOfRange := &graph.EdgeList{N: 10, Edges: []graph.Edge{{U: 50, V: 1}, {U: 1, V: 50}}}
	if AllPassed(GNM(outOfRange, 10, 1, false)) {
		t.Error("out-of-range endpoint not detected")
	}

	// A uniform random graph must fail the BA checks.
	if AllPassed(BA(el, p.N, 10)) {
		t.Error("non-BA graph passed BA validation")
	}

	// A regular-degree graph must fail R-MAT skew.
	cycle := &graph.EdgeList{N: 64}
	for v := uint64(0); v < 64; v++ {
		cycle.Edges = append(cycle.Edges, graph.Edge{U: v, V: (v + 1) % 64})
	}
	if AllPassed(RMAT(cycle, 6, 64)) {
		t.Error("unskewed graph passed R-MAT validation")
	}

	// An ER graph must fail the RHG power-law check.
	erp := gnp.Params{N: 1 << 13, P: 12.0 / (1 << 13), Directed: false, Seed: 11, Chunks: 4}
	er, err := gnp.Generate(erp, 4)
	if err != nil {
		t.Fatal(err)
	}
	if AllPassed(RHG(er, erp.N, 12, 2.5)) {
		t.Error("ER graph passed RHG validation")
	}

	// Wrong block densities must fail the SBM checks.
	sp := sbm.PlantedPartition(2000, 2, 0.02, 0.002, 12, 4)
	sel, err := sbm.Generate(sp, 4)
	if err != nil {
		t.Fatal(err)
	}
	if AllPassed(SBM(sel, sp.BlockSizes, 0.002, 0.02)) { // swapped
		t.Error("swapped pIn/pOut passed SBM validation")
	}
}

func TestHelpers(t *testing.T) {
	checks := []Check{{Name: "a", Passed: true}, {Name: "b", Passed: false}}
	if AllPassed(checks) {
		t.Error("AllPassed wrong")
	}
	if len(Failed(checks)) != 1 || Failed(checks)[0].Name != "b" {
		t.Error("Failed wrong")
	}
	if !AllPassed(checks[:1]) {
		t.Error("AllPassed on passing subset wrong")
	}
}
