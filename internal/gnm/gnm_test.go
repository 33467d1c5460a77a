package gnm

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/prng"
)

// generate and generateChunk collect chunks from StreamChunk, the way the
// root package's generator does.
func generate(p Params, workers int) (*graph.EdgeList, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return core.Generate(p.N, p.chunks(), workers, func(pe uint64, e *core.Emitter) { StreamChunk(p, pe, e) }), nil
}

func generateChunk(p Params, pe uint64) []graph.Edge {
	edges, _ := core.Collect(func(e *core.Emitter) { StreamChunk(p, pe, e) })
	return edges
}

func TestDirectedExactCount(t *testing.T) {
	for _, chunks := range []uint64{1, 2, 7, 16} {
		p := Params{N: 1000, M: 5000, Directed: true, Seed: 42, Chunks: chunks}
		el, err := generate(p, 4)
		if err != nil {
			t.Fatal(err)
		}
		if el.Len() != 5000 {
			t.Errorf("chunks=%d: %d edges, want 5000", chunks, el.Len())
		}
		if el.CountSelfLoops() != 0 {
			t.Errorf("chunks=%d: self loops present", chunks)
		}
		if el.CountDuplicates() != 0 {
			t.Errorf("chunks=%d: duplicate edges present", chunks)
		}
		for _, e := range el.Edges {
			if e.U >= p.N || e.V >= p.N {
				t.Fatalf("edge %v out of range", e)
			}
		}
	}
}

func TestDirectedCompleteGraph(t *testing.T) {
	p := Params{N: 40, M: 40 * 39, Directed: true, Seed: 1, Chunks: 4}
	el, err := generate(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if el.Len() != 40*39 {
		t.Fatalf("%d edges, want %d", el.Len(), 40*39)
	}
	el.Dedup()
	if el.Len() != 40*39 {
		t.Fatal("complete graph contains duplicates")
	}
}

func TestUndirectedCounts(t *testing.T) {
	for _, chunks := range []uint64{1, 2, 5, 13} {
		p := Params{N: 500, M: 3000, Seed: 7, Chunks: chunks}
		el, err := generate(p, 4)
		if err != nil {
			t.Fatal(err)
		}
		// Partitioned output: each undirected edge once per endpoint.
		if el.Len() != 6000 {
			t.Errorf("chunks=%d: %d directed copies, want 6000", chunks, el.Len())
		}
		und := el.UndirectedSet()
		if len(und) != 3000 {
			t.Errorf("chunks=%d: %d undirected edges, want 3000", chunks, len(und))
		}
		if el.CountSelfLoops() != 0 {
			t.Errorf("chunks=%d: self loops present", chunks)
		}
	}
}

// TestUndirectedBothOrientations: the merged output must contain (u,v) and
// (v,u) for every sampled pair — each endpoint's owner emits its copy.
func TestUndirectedBothOrientations(t *testing.T) {
	p := Params{N: 300, M: 2000, Seed: 3, Chunks: 8}
	el, err := generate(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	present := make(map[graph.Edge]bool, el.Len())
	for _, e := range el.Edges {
		present[e] = true
	}
	for _, e := range el.Edges {
		if !present[graph.Edge{U: e.V, V: e.U}] {
			t.Fatalf("missing reverse orientation of %v", e)
		}
	}
}

// TestRedundancyConsistency is invariant 2 of DESIGN.md: PE i and PE j
// generate identical edges for their shared chunk (i,j).
func TestRedundancyConsistency(t *testing.T) {
	p := Params{N: 400, M: 2500, Seed: 11, Chunks: 8}
	ch := chunkingOf(p)
	for i := uint64(0); i < 8; i++ {
		for j := uint64(0); j < i; j++ {
			ei := generateChunk(p, i)
			ej := generateChunk(p, j)
			// Edges of PE i with the other endpoint in chunk j.
			setI := make(map[graph.Edge]bool)
			for _, e := range ei {
				if ch.Owner(e.U) == i && ch.Owner(e.V) == j {
					setI[e] = true
				}
			}
			count := 0
			for _, e := range ej {
				if ch.Owner(e.U) == j && ch.Owner(e.V) == i {
					if !setI[graph.Edge{U: e.V, V: e.U}] {
						t.Fatalf("chunk (%d,%d): PE %d has %v but PE %d lacks the mirror", i, j, j, e, i)
					}
					count++
				}
			}
			if count != len(setI) {
				t.Fatalf("chunk (%d,%d): PE %d sees %d cross edges, PE %d sees %d", i, j, i, len(setI), j, count)
			}
		}
	}
}

func chunkingOf(p Params) interface{ Owner(uint64) uint64 } {
	return chunking{p}
}

type chunking struct{ p Params }

func (c chunking) Owner(v uint64) uint64 {
	P := c.p.chunks()
	return ((v+1)*P - 1) / c.p.N
}

// TestWorkerIndependence: the merged edge set must not depend on how many
// goroutines execute the logical PEs (communication-free determinism).
func TestWorkerIndependence(t *testing.T) {
	for _, directed := range []bool{true, false} {
		p := Params{N: 600, M: 4000, Directed: directed, Seed: 5, Chunks: 16}
		base, err := generate(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		base.Sort()
		for _, workers := range []int{2, 4, 16} {
			got, err := generate(p, workers)
			if err != nil {
				t.Fatal(err)
			}
			got.Sort()
			if got.Len() != base.Len() {
				t.Fatalf("directed=%v workers=%d: edge count changed", directed, workers)
			}
			for i := range base.Edges {
				if base.Edges[i] != got.Edges[i] {
					t.Fatalf("directed=%v workers=%d: edge %d differs", directed, workers, i)
				}
			}
		}
	}
}

// TestDirectedUniformity: across many seeds every possible directed edge
// appears with probability m / (n(n-1)).
func TestDirectedUniformity(t *testing.T) {
	const n = 12
	const m = 16
	const trials = 8000
	counts := make(map[graph.Edge]int)
	for s := uint64(0); s < trials; s++ {
		p := Params{N: n, M: m, Directed: true, Seed: s, Chunks: 3}
		el, err := generate(p, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range el.Edges {
			counts[e]++
		}
	}
	want := float64(trials) * m / float64(n*(n-1))
	for u := uint64(0); u < n; u++ {
		for v := uint64(0); v < n; v++ {
			if u == v {
				continue
			}
			c := counts[graph.Edge{U: u, V: v}]
			if math.Abs(float64(c)-want)/want > 0.15 {
				t.Errorf("edge (%d,%d): %d occurrences, want ~%v", u, v, c, want)
			}
		}
	}
}

// TestUndirectedUniformity: same for unordered pairs.
func TestUndirectedUniformity(t *testing.T) {
	const n = 10
	const m = 9
	const trials = 8000
	counts := make(map[graph.Edge]int)
	for s := uint64(0); s < trials; s++ {
		p := Params{N: n, M: m, Seed: s, Chunks: 4}
		el, err := generate(p, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range el.UndirectedSet() {
			counts[e]++
		}
	}
	want := float64(trials) * m / float64(n*(n-1)/2)
	for u := uint64(0); u < n; u++ {
		for v := u + 1; v < n; v++ {
			c := counts[graph.Edge{U: u, V: v}]
			if math.Abs(float64(c)-want)/want > 0.15 {
				t.Errorf("pair {%d,%d}: %d occurrences, want ~%v", u, v, c, want)
			}
		}
	}
}

func TestValidate(t *testing.T) {
	if err := (Params{N: 0, M: 0}).Validate(); err == nil {
		t.Error("n=0 accepted")
	}
	if err := (Params{N: 10, M: 46}).Validate(); err == nil {
		t.Error("undirected m > max accepted")
	}
	if err := (Params{N: 10, M: 45}).Validate(); err != nil {
		t.Errorf("undirected complete graph rejected: %v", err)
	}
	if err := (Params{N: 10, M: 90, Directed: true}).Validate(); err != nil {
		t.Errorf("directed complete graph rejected: %v", err)
	}
	if err := (Params{N: 10, M: 91, Directed: true}).Validate(); err == nil {
		t.Error("directed m > max accepted")
	}
	if err := (Params{N: 4, M: 1, Chunks: 8}).Validate(); err == nil {
		t.Error("more chunks than vertices accepted")
	}
}

func TestTriangularIndex(t *testing.T) {
	// Exhaustive check of the first rows.
	idx := uint64(0)
	for row := uint64(1); row < 80; row++ {
		for col := uint64(0); col < row; col++ {
			r, c := triangularIndex(idx)
			if r != row || c != col {
				t.Fatalf("index %d: got (%d,%d), want (%d,%d)", idx, r, c, row, col)
			}
			idx++
		}
	}
}

func TestTriangularIndexProperty(t *testing.T) {
	f := func(raw uint32) bool {
		idx := uint64(raw)
		r, c := triangularIndex(idx)
		return c < r && r*(r-1)/2+c == idx
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestPropertyValidInstances: arbitrary parameters produce exactly the
// requested number of edges with the partitioned-output convention.
func TestPropertyValidInstances(t *testing.T) {
	f := func(seed uint16, nRaw, mRaw uint16, cRaw uint8, directed bool) bool {
		n := uint64(nRaw%200) + 2
		maxM := n * (n - 1)
		if !directed {
			maxM /= 2
		}
		m := uint64(mRaw) % (maxM + 1)
		chunks := uint64(cRaw%8) + 1
		if chunks > n {
			chunks = n
		}
		p := Params{N: n, M: m, Directed: directed, Seed: uint64(seed), Chunks: chunks}
		el, err := generate(p, 2)
		if err != nil {
			return false
		}
		if directed {
			return uint64(el.Len()) == m && el.CountDuplicates() == 0 && el.CountSelfLoops() == 0
		}
		return uint64(el.Len()) == 2*m && uint64(len(el.UndirectedSet())) == m && el.CountSelfLoops() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func BenchmarkDirectedChunk(b *testing.B) {
	p := Params{N: 1 << 18, M: 1 << 22, Directed: true, Seed: 1, Chunks: 16}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		generateChunk(p, 7)
	}
}

func BenchmarkUndirectedChunk(b *testing.B) {
	p := Params{N: 1 << 18, M: 1 << 22, Seed: 1, Chunks: 16}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		generateChunk(p, 7)
	}
}

// TestStreamUndirectedMatchesChunk: every pair count the sweep derives by
// its O(log P) descent must equal the full quadrant recursion's (the
// reference below, which descends the whole tree once), and the sweep must
// emit exactly the pairs' edges: the diagonal pair twice over, every other
// pair once.
func TestStreamUndirectedMatchesChunk(t *testing.T) {
	for _, chunks := range []uint64{1, 2, 5, 13} {
		p := Params{N: 500, M: 3000, Seed: 7, Chunks: chunks}
		ch := core.Chunking{N: p.N, Chunks: chunks}
		for c := uint64(0); c < chunks; c++ {
			counts := make([]uint64, chunks)
			splitTriangleInto(p, ch, 0, chunks, p.M, c, counts)
			want := counts[c] // diagonal: both orientations are local
			for other, k := range counts {
				i, j := c, uint64(other)
				if j > i {
					i, j = j, i
				}
				if got := pairEdgeCount(p, ch, i, j); got != k {
					t.Fatalf("chunks=%d pe=%d: pair (%d,%d) descends to %d edges, recursion says %d", chunks, c, i, j, got, k)
				}
				want += k
			}
			if got := uint64(len(generateChunk(p, c))); got != want {
				t.Fatalf("chunks=%d pe=%d: streamed %d edges, want %d", chunks, c, got, want)
			}
		}
	}
}

// splitTriangleInto fills out[other] with the edge count of every chunk
// pair involving `chunk`, descending the full quadrant recursion once —
// O(P) nodes, against the P independent O(log P) descents the streaming
// mode performs. Both derivations draw the same subtree-seeded variates
// with the same budgets, so their counts are bit-identical; only the
// traversal is shared here.
func splitTriangleInto(p Params, ch core.Chunking, lo, hi, k, chunk uint64, out []uint64) {
	if k == 0 {
		return
	}
	if hi-lo == 1 {
		if lo == chunk {
			out[lo] = k
		}
		return
	}
	mid := lo + (hi-lo)/2
	lowTri := triUniverse(ch, lo, mid)
	rect := rectUniverse(ch, mid, hi, lo, mid)
	highTri := triUniverse(ch, mid, hi)
	total := lowTri + rect + highTri

	r := prng.New(p.Seed, core.TagGNMUndirected, lo, hi)
	inLow := dist.Hypergeometric(&r, total, lowTri, k)
	rest := k - inLow
	inRect := dist.Hypergeometric(&r, total-lowTri, rect, rest)

	if chunk < mid {
		splitTriangleInto(p, ch, lo, mid, inLow, chunk, out)
	} else {
		splitTriangleInto(p, ch, mid, hi, rest-inRect, chunk, out)
	}
	// The rectangle holds the chunk's row if chunk >= mid and its column
	// if chunk < mid; either way it contributes pairs involving the chunk.
	splitRectInto(p, ch, mid, hi, lo, mid, inRect, chunk, out)
}

// splitRectInto distributes k edges over the rectangular block rows
// [rlo,rhi) x cols [clo,chi), halving the longer side, and records the
// counts of chunk pairs involving `chunk` at out[i+j-chunk].
func splitRectInto(p Params, ch core.Chunking, rlo, rhi, clo, chi, k, chunk uint64, out []uint64) {
	if k == 0 {
		return
	}
	// Skip subtrees that cannot involve the chunk.
	if !(chunk >= rlo && chunk < rhi) && !(chunk >= clo && chunk < chi) {
		return
	}
	if rhi-rlo == 1 && chi-clo == 1 {
		out[rlo+clo-chunk] = k
		return
	}
	r := prng.New(p.Seed, core.TagGNMUndirected, rlo<<32|rhi, clo<<32|chi)
	if rhi-rlo >= chi-clo {
		mid := rlo + (rhi-rlo)/2
		left := rectUniverse(ch, rlo, mid, clo, chi)
		total := left + rectUniverse(ch, mid, rhi, clo, chi)
		inLeft := dist.Hypergeometric(&r, total, left, k)
		splitRectInto(p, ch, rlo, mid, clo, chi, inLeft, chunk, out)
		splitRectInto(p, ch, mid, rhi, clo, chi, k-inLeft, chunk, out)
	} else {
		mid := clo + (chi-clo)/2
		left := rectUniverse(ch, rlo, rhi, clo, mid)
		total := left + rectUniverse(ch, rlo, rhi, mid, chi)
		inLeft := dist.Hypergeometric(&r, total, left, k)
		splitRectInto(p, ch, rlo, rhi, clo, mid, inLeft, chunk, out)
		splitRectInto(p, ch, rlo, rhi, mid, chi, k-inLeft, chunk, out)
	}
}

// TestPairEdgeCountsSumToM: the per-pair O(log P) descents must distribute
// exactly M edges over the triangular chunk matrix — the same invariant the
// former full splitting recursion guaranteed by construction.
func TestPairEdgeCountsSumToM(t *testing.T) {
	for _, chunks := range []uint64{1, 3, 8, 16} {
		p := Params{N: 640, M: 5000, Seed: 21, Chunks: chunks}
		ch := core.Chunking{N: p.N, Chunks: chunks}
		var total uint64
		for i := uint64(0); i < chunks; i++ {
			for j := uint64(0); j <= i; j++ {
				total += pairEdgeCount(p, ch, i, j)
			}
		}
		if total != p.M {
			t.Errorf("chunks=%d: pair counts sum to %d, want %d", chunks, total, p.M)
		}
	}
}

// TestStreamUndirectedAllocs: the in-order sweep must run in O(1) steady-
// state allocations per chunk — the per-pair count map it replaced grew
// with P.
func TestStreamUndirectedAllocs(t *testing.T) {
	p := Params{N: 1 << 12, M: 1 << 15, Seed: 1, Chunks: 16}
	var sink uint64
	e := core.NewEmitter(make([]graph.Edge, 0, 256), func(full []graph.Edge) ([]graph.Edge, bool) {
		sink += full[0].U
		return full, true
	})
	allocs := testing.AllocsPerRun(5, func() { StreamChunk(p, 8, e) })
	if allocs > 4 {
		t.Errorf("StreamChunk allocates %.0f times per undirected chunk, want O(1)", allocs)
	}
	_ = sink
}
