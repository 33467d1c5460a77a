package graph

import (
	"bytes"
	"encoding/binary"
	"sort"
	"testing"
	"testing/quick"
)

func TestEdgeListSortDedup(t *testing.T) {
	e := &EdgeList{N: 5, Edges: []Edge{{3, 1}, {0, 2}, {3, 1}, {0, 1}, {0, 2}}}
	e.Dedup()
	want := []Edge{{0, 1}, {0, 2}, {3, 1}}
	if len(e.Edges) != len(want) {
		t.Fatalf("got %v", e.Edges)
	}
	for i := range want {
		if e.Edges[i] != want[i] {
			t.Fatalf("got %v, want %v", e.Edges, want)
		}
	}
}

func TestUndirectedSet(t *testing.T) {
	e := &EdgeList{N: 4, Edges: []Edge{{1, 2}, {2, 1}, {0, 3}, {3, 3}}}
	set := e.UndirectedSet()
	want := []Edge{{0, 3}, {1, 2}, {3, 3}}
	if len(set) != len(want) {
		t.Fatalf("got %v", set)
	}
	for i := range want {
		if set[i] != want[i] {
			t.Fatalf("got %v, want %v", set, want)
		}
	}
}

func TestCSR(t *testing.T) {
	e := &EdgeList{N: 4, Edges: []Edge{{0, 1}, {0, 3}, {1, 0}, {2, 3}, {0, 2}}}
	csr := BuildCSR(e)
	if csr.Degree(0) != 3 || csr.Degree(1) != 1 || csr.Degree(2) != 1 || csr.Degree(3) != 0 {
		t.Fatalf("degrees wrong: %v", csr.Offsets)
	}
	adj := csr.Neighbors(0)
	if !sort.SliceIsSorted(adj, func(i, j int) bool { return adj[i] < adj[j] }) {
		t.Fatal("adjacency not sorted")
	}
	if !csr.HasEdge(0, 2) || csr.HasEdge(3, 0) || csr.HasEdge(0, 0) {
		t.Fatal("HasEdge wrong")
	}
}

func TestCSRPreservesEdgeCount(t *testing.T) {
	f := func(raw []uint16, nRaw uint8) bool {
		n := uint64(nRaw) + 1
		e := &EdgeList{N: n}
		for i := 0; i+1 < len(raw); i += 2 {
			e.Edges = append(e.Edges, Edge{uint64(raw[i]) % n, uint64(raw[i+1]) % n})
		}
		csr := BuildCSR(e)
		var total uint64
		for v := uint64(0); v < n; v++ {
			total += csr.Degree(v)
		}
		return total == uint64(len(e.Edges)) && len(csr.Targets) == len(e.Edges)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestUnionFind(t *testing.T) {
	uf := NewUnionFind(6)
	if uf.Components() != 6 {
		t.Fatal("initial components")
	}
	uf.Union(0, 1)
	uf.Union(1, 2)
	uf.Union(4, 5)
	if uf.Components() != 3 {
		t.Fatalf("components = %d, want 3", uf.Components())
	}
	if uf.Find(0) != uf.Find(2) {
		t.Fatal("0 and 2 should be connected")
	}
	if uf.Find(3) == uf.Find(0) {
		t.Fatal("3 should be isolated")
	}
	if uf.Union(0, 2) {
		t.Fatal("union of connected elements should return false")
	}
}

func TestComputeStats(t *testing.T) {
	// Undirected triangle stored with both orientations plus isolated vertex 3.
	e := &EdgeList{N: 4, Edges: []Edge{
		{0, 1}, {1, 0}, {1, 2}, {2, 1}, {0, 2}, {2, 0},
	}}
	s := ComputeStats(e)
	if s.AvgDegree != 1.5 {
		t.Errorf("avg degree %v, want 1.5", s.AvgDegree)
	}
	if s.MaxDegree != 2 || s.MinDegree != 0 {
		t.Errorf("min/max degree %d/%d", s.MinDegree, s.MaxDegree)
	}
	if s.Components != 2 {
		t.Errorf("components %d, want 2", s.Components)
	}
	if s.SelfLoops != 0 {
		t.Errorf("self loops %d", s.SelfLoops)
	}
}

func TestClusteringCoefficient(t *testing.T) {
	// Triangle: clustering 1.0.
	tri := &EdgeList{N: 3, Edges: []Edge{{0, 1}, {1, 2}, {0, 2}}}
	if c := GlobalClusteringCoefficient(tri); c != 1.0 {
		t.Errorf("triangle clustering %v, want 1", c)
	}
	// Path 0-1-2: one wedge, no triangle.
	path := &EdgeList{N: 3, Edges: []Edge{{0, 1}, {1, 2}}}
	if c := GlobalClusteringCoefficient(path); c != 0.0 {
		t.Errorf("path clustering %v, want 0", c)
	}
}

func TestPowerLawMLE(t *testing.T) {
	// Synthetic exact power law: counts proportional to d^-3.
	var degrees []uint64
	for d := uint64(1); d <= 100; d++ {
		count := int(1e7 / float64(d*d*d))
		for i := 0; i < count; i++ {
			degrees = append(degrees, d)
		}
	}
	gamma := PowerLawExponentMLE(degrees, 2)
	if gamma < 2.7 || gamma > 3.3 {
		t.Errorf("estimated gamma %v, want ~3", gamma)
	}
}

// binaryEdgeList builds the bytes of a binary edge list by hand: n and
// the header edge count m, then the edges, all little-endian u64.
func binaryEdgeList(n, m uint64, edges []Edge) []byte {
	b := binary.LittleEndian.AppendUint64(nil, n)
	b = binary.LittleEndian.AppendUint64(b, m)
	for _, e := range edges {
		b = binary.LittleEndian.AppendUint64(b, e.U)
		b = binary.LittleEndian.AppendUint64(b, e.V)
	}
	return b
}

func TestTextRoundTrip(t *testing.T) {
	e := &EdgeList{N: 5, Edges: []Edge{{0, 1}, {2, 3}, {4, 0}}}
	got, err := ReadEdgeListText(bytes.NewBufferString("# 5\n0 1\n2 3\n4 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got.N != e.N || len(got.Edges) != len(e.Edges) {
		t.Fatalf("round trip: got n=%d m=%d", got.N, len(got.Edges))
	}
	for i := range e.Edges {
		if got.Edges[i] != e.Edges[i] {
			t.Fatalf("edge %d: got %v want %v", i, got.Edges[i], e.Edges[i])
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	e := &EdgeList{N: 1 << 40, Edges: []Edge{{1 << 39, 7}, {0, 1<<40 - 1}}}
	for _, m := range []uint64{2, StreamingEdgeCount} {
		got, err := ReadEdgeListBinary(bytes.NewReader(binaryEdgeList(e.N, m, e.Edges)))
		if err != nil {
			t.Fatal(err)
		}
		if got.N != e.N || len(got.Edges) != 2 || got.Edges[0] != e.Edges[0] || got.Edges[1] != e.Edges[1] {
			t.Fatalf("header count %d: round trip mismatch: %+v", m, got)
		}
	}
}

func TestWriteMetis(t *testing.T) {
	e := &EdgeList{N: 3, Edges: []Edge{{0, 1}, {1, 0}, {1, 2}, {2, 1}}}
	var buf bytes.Buffer
	if err := WriteMetis(&buf, e); err != nil {
		t.Fatal(err)
	}
	want := "3 2\n2\n1 3\n2\n"
	if buf.String() != want {
		t.Errorf("metis output %q, want %q", buf.String(), want)
	}
}

func TestMergeAndCounts(t *testing.T) {
	merged := Merge(10, []Edge{{0, 1}}, []Edge{{1, 2}, {0, 1}}, nil)
	if merged.Len() != 3 {
		t.Fatalf("merged len %d", merged.Len())
	}
	if merged.CountDuplicates() != 1 {
		t.Errorf("duplicates %d, want 1", merged.CountDuplicates())
	}
	withLoop := &EdgeList{N: 3, Edges: []Edge{{1, 1}, {0, 2}}}
	if withLoop.CountSelfLoops() != 1 {
		t.Errorf("self loops %d, want 1", withLoop.CountSelfLoops())
	}
}

func TestDegreePercentile(t *testing.T) {
	degrees := []uint64{5, 1, 3, 2, 4}
	if p := DegreePercentile(degrees, 0); p != 1 {
		t.Errorf("p0 = %d", p)
	}
	if p := DegreePercentile(degrees, 100); p != 5 {
		t.Errorf("p100 = %d", p)
	}
	if p := DegreePercentile(degrees, 50); p != 3 {
		t.Errorf("p50 = %d", p)
	}
	if p := DegreePercentile(nil, 50); p != 0 {
		t.Errorf("empty percentile = %d", p)
	}
}

func TestReadEdgeListTextErrors(t *testing.T) {
	if _, err := ReadEdgeListText(bytes.NewBufferString("# notanumber\n1 2\n")); err == nil {
		t.Error("bad header accepted")
	}
	if _, err := ReadEdgeListText(bytes.NewBufferString("# 5\n1\n")); err == nil {
		t.Error("short edge line accepted")
	}
	if _, err := ReadEdgeListText(bytes.NewBufferString("# 5\na b\n")); err == nil {
		t.Error("non-numeric edge accepted")
	}
	// Vertices beyond the header grow n.
	el, err := ReadEdgeListText(bytes.NewBufferString("# 2\n0 7\n"))
	if err != nil {
		t.Fatal(err)
	}
	if el.N != 8 {
		t.Errorf("n = %d, want 8 (grown by edge endpoint)", el.N)
	}
}

func TestReadEdgeListBinaryTruncated(t *testing.T) {
	raw := binaryEdgeList(3, 2, []Edge{{0, 1}, {1, 2}})
	if _, err := ReadEdgeListBinary(bytes.NewReader(raw[:len(raw)-5])); err == nil {
		t.Error("truncated binary stream accepted")
	}
	if _, err := ReadEdgeListBinary(bytes.NewReader(raw[:4])); err == nil {
		t.Error("truncated header accepted")
	}
}
