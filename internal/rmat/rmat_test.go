package rmat

import (
	"math"
	"math/bits"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/prng"
)

// referenceEdge is the sampler this package used before the alias tables
// (instance version 1): one Float64 draw and a 4-way branch per level.
// It stays here as the distribution the table sampler must reproduce.
func referenceEdge(seed, i uint64, scale uint, a, b, c float64) graph.Edge {
	r := prng.New(seed, core.TagRMAT, i)
	var row, col uint64
	for level := uint(0); level < scale; level++ {
		u := r.Float64()
		row <<= 1
		col <<= 1
		switch {
		case u < a:
			// top-left
		case u < a+b:
			col |= 1
		case u < a+b+c:
			row |= 1
		default:
			row |= 1
			col |= 1
		}
	}
	return graph.Edge{U: row, V: col}
}

func mustEdge(t *testing.T, g *Generator, i uint64) graph.Edge {
	t.Helper()
	e, err := g.Edge(i)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// generate collects every chunk of g in order, the way the root package's
// generator does.
func generate(g *Generator, workers int) (*graph.EdgeList, error) {
	if err := g.init(); err != nil {
		return nil, err
	}
	return core.Generate(g.p.N(), g.p.chunks(), workers, func(pe uint64, e *core.Emitter) { g.StreamChunk(pe, e) }), nil
}

func TestEdgeCountAndRange(t *testing.T) {
	p := Params{Scale: 10, M: 5000, Seed: 1, Chunks: 8}
	el, err := generate(NewGenerator(p), 4)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(el.Len()) != p.M {
		t.Fatalf("%d edges, want %d", el.Len(), p.M)
	}
	for _, e := range el.Edges {
		if e.U >= p.N() || e.V >= p.N() {
			t.Fatalf("edge %v outside n=%d", e, p.N())
		}
	}
}

// TestWorkerAndChunkIndependence: edges are seeded by index, so neither
// the worker count nor the chunk count may change the edge sequence, and
// Edge(i) — random access, the communication-free property — must be the
// streamed i-th edge.
func TestWorkerAndChunkIndependence(t *testing.T) {
	base, err := generate(NewGenerator(Params{Scale: 12, M: 20000, Seed: 3, Chunks: 1}), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, chunks := range []uint64{3, 4, 16} {
		g := NewGenerator(Params{Scale: 12, M: 20000, Seed: 3, Chunks: chunks})
		got, err := generate(g, 8)
		if err != nil {
			t.Fatal(err)
		}
		var streamed []graph.Edge
		for c := uint64(0); c < chunks; c++ {
			e := core.NewEmitter(make([]graph.Edge, 0, 7), func(full []graph.Edge) ([]graph.Edge, bool) {
				streamed = append(streamed, full...)
				return full, true
			})
			if err := g.StreamChunk(c, e); err != nil {
				t.Fatal(err)
			}
			streamed = append(streamed, e.Edges()...)
		}
		if len(got.Edges) != len(base.Edges) || len(streamed) != len(base.Edges) {
			t.Fatalf("chunks=%d: %d generated, %d streamed, want %d", chunks, len(got.Edges), len(streamed), len(base.Edges))
		}
		for i, want := range base.Edges {
			if got.Edges[i] != want || streamed[i] != want {
				t.Fatalf("chunks=%d: edge %d differs", chunks, i)
			}
			if e := mustEdge(t, g, uint64(i)); e != want {
				t.Fatalf("chunks=%d: Edge(%d) = %v, streamed %v", chunks, i, e, want)
			}
		}
	}
	if err := NewGenerator(Params{Scale: 12, M: 10, Chunks: 4}).StreamChunk(4, &core.Emitter{}); err == nil {
		t.Error("chunk index == chunk count accepted")
	}
}

// TestQuadrantSkew: with Graph 500 probabilities the first level splits
// the edges (a, b, c, d) over the four matrix quadrants.
func TestQuadrantSkew(t *testing.T) {
	p := Params{Scale: 14, M: 200000, Seed: 5, Chunks: 4}
	el, err := generate(NewGenerator(p), 4)
	if err != nil {
		t.Fatal(err)
	}
	half := p.N() / 2
	var tl, tr, bl, br float64
	for _, e := range el.Edges {
		switch {
		case e.U < half && e.V < half:
			tl++
		case e.U < half:
			tr++
		case e.V < half:
			bl++
		default:
			br++
		}
	}
	total := float64(el.Len())
	check := func(name string, got, want float64) {
		if math.Abs(got/total-want) > 0.01 {
			t.Errorf("%s fraction %v, want ~%v", name, got/total, want)
		}
	}
	check("a", tl, 0.57)
	check("b", tr, 0.19)
	check("c", bl, 0.19)
	check("d", br, 0.05)
}

// TestSkewedDegrees: R-MAT produces a heavily skewed degree distribution.
func TestSkewedDegrees(t *testing.T) {
	p := Params{Scale: 12, M: 1 << 16, Seed: 7, Chunks: 4}
	el, err := generate(NewGenerator(p), 4)
	if err != nil {
		t.Fatal(err)
	}
	stats := graph.ComputeStats(el)
	if float64(stats.MaxDegree) < 8*stats.AvgDegree {
		t.Errorf("max degree %d not >> avg %v", stats.MaxDegree, stats.AvgDegree)
	}
}

func TestCustomProbabilities(t *testing.T) {
	// Uniform probabilities make R-MAT an (almost) uniform random digraph.
	p := Params{Scale: 10, M: 100000, A: 0.25, B: 0.25, C: 0.25, D: 0.25, Seed: 9, Chunks: 4}
	el, err := generate(NewGenerator(p), 4)
	if err != nil {
		t.Fatal(err)
	}
	half := p.N() / 2
	tl := 0
	for _, e := range el.Edges {
		if e.U < half && e.V < half {
			tl++
		}
	}
	frac := float64(tl) / float64(el.Len())
	if math.Abs(frac-0.25) > 0.01 {
		t.Errorf("uniform quadrant fraction %v, want 0.25", frac)
	}

	// A zero-probability quadrant is never drawn, at any level.
	g := NewGenerator(Params{Scale: 13, M: 1, A: 0.5, B: 0.5, Seed: 2})
	for i := uint64(0); i < 20000; i++ {
		if e := mustEdge(t, g, i); e.U != 0 {
			t.Fatalf("c = d = 0, yet edge %d = %v has a row bit set", i, e)
		}
	}
}

func TestValidate(t *testing.T) {
	if err := (Params{Scale: 0, M: 10}).Validate(); err == nil {
		t.Error("scale 0 accepted")
	}
	if err := (Params{Scale: 63, M: 10}).Validate(); err == nil {
		t.Error("scale 63 accepted")
	}
	if err := (Params{Scale: 10, M: 10, A: 0.5, B: 0.1, C: 0.1, D: 0.1}).Validate(); err == nil {
		t.Error("non-normalized probabilities accepted")
	}
	if err := (Params{Scale: 10, M: 10}).Validate(); err != nil {
		t.Errorf("default probabilities rejected: %v", err)
	}
	if err := (Params{Scale: 10, M: 10, A: 0.25, B: 0.25, C: 0.5}).Validate(); err != nil {
		t.Errorf("d = 0 rejected: %v", err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, p := range []Params{
		{A: nan, B: 0.19, C: 0.19, D: 0.05},
		{A: 0.57, B: 0.19, C: 0.19, D: nan},
		{A: inf, B: 0.19, C: 0.19, D: math.Inf(-1)},
		{A: 1.5, B: -0.5},                  // sums to 1
		{A: 0.6, B: 0.3, C: 0.3, D: -0.2},  // sums to 1
		{A: 1.0005, B: 0, C: 0, D: 0},      // inside the sum tolerance, outside [0, 1]
		{A: -0.0005, B: 0.5, C: 0.5, D: 0}, // likewise
	} {
		p.Scale, p.M = 10, 10
		if err := p.Validate(); err == nil {
			t.Errorf("probabilities (%v, %v, %v, %v) accepted", p.A, p.B, p.C, p.D)
		}
		// Invalid parameters surface on the first draw and build nothing.
		g := NewGenerator(p)
		if _, err := g.Edge(0); err == nil {
			t.Errorf("Edge drew from (%v, %v, %v, %v)", p.A, p.B, p.C, p.D)
		}
		if g.full.entries != nil || g.rem.entries != nil {
			t.Error("tables built from invalid parameters")
		}
	}
}

// TestEdgeRangeTiles: chunk bounds need chunk*M in 128 bits; with 64-bit
// arithmetic M = 2^60 wraps from chunk 16 on. Sampled chunks only —
// nothing is generated.
func TestEdgeRangeTiles(t *testing.T) {
	for _, m := range []uint64{1 << 60, 1<<60 + 12345, math.MaxUint64} {
		p := Params{Scale: 62, M: m, Chunks: 1 << 20}
		if lo, _ := p.edgeRange(0); lo != 0 {
			t.Fatalf("M=%d: first chunk starts at %d", m, lo)
		}
		if _, hi := p.edgeRange(p.Chunks - 1); hi != m {
			t.Fatalf("M=%d: last chunk ends at %d", m, hi)
		}
		r := prng.New(1, 99)
		chunks := []uint64{0, 15, 16, 17, 1 << 4, 1 << 10, 1<<19 - 1, 1 << 19, p.Chunks - 2}
		for i := 0; i < 200; i++ {
			chunks = append(chunks, r.UintN(p.Chunks-1))
		}
		for _, c := range chunks {
			lo, hi := p.edgeRange(c)
			next, _ := p.edgeRange(c + 1)
			if hi != next {
				t.Fatalf("M=%d: chunk %d ends at %d, chunk %d starts at %d", m, c, hi, c+1, next)
			}
			if size := hi - lo; lo > hi || size < m/p.Chunks || size > m/p.Chunks+1 {
				t.Fatalf("M=%d: chunk %d = [%d, %d), want %d or %d edges", m, c, lo, hi, m/p.Chunks, m/p.Chunks+1)
			}
		}
	}
}

// TestLazyBoundedTables: constructing a generator builds nothing (specs
// are validated far more often than they are run), the first draw builds
// 8-byte entries, at most 128 KiB of them, and only the tables the scale
// needs.
func TestLazyBoundedTables(t *testing.T) {
	if s := unsafe.Sizeof(table{}.entries[0]); s != 8 {
		t.Fatalf("entry is %d bytes, want 8", s)
	}
	for _, c := range []struct {
		scale     uint
		full, rem int
	}{{1, 0, 4}, {5, 0, 1024}, {6, 4096, 0}, {7, 4096, 4}, {22, 4096, 256}, {62, 4096, 16}} {
		g := NewGenerator(Params{Scale: c.scale, M: 1})
		if g.full.entries != nil || g.rem.entries != nil {
			t.Fatalf("scale %d: tables built before the first draw", c.scale)
		}
		mustEdge(t, g, 0)
		if len(g.full.entries) != c.full || len(g.rem.entries) != c.rem {
			t.Errorf("scale %d: tables of %d + %d entries, want %d + %d",
				c.scale, len(g.full.entries), len(g.rem.entries), c.full, c.rem)
		}
		if bytes := 8 * (len(g.full.entries) + len(g.rem.entries)); bytes > 128<<10 {
			t.Errorf("scale %d: %d bytes of tables", c.scale, bytes)
		}
	}
}

// tableProbs returns the exact probability the table gives each path: a
// bucket is hit with probability 1/n, keeps threshold/2^threshBits of it
// for its own path (its index) and passes the rest to its alias.
func tableProbs(tb table) []float64 {
	n := len(tb.entries)
	probs := make([]float64, n)
	for j, e := range tb.entries {
		alias := e >> threshBits
		if alias >= uint64(n) {
			panic("alias outside the table")
		}
		keep := float64(e&threshMask) / (1 << threshBits)
		probs[j] += keep / float64(n)
		probs[alias] += (1 - keep) / float64(n)
	}
	return probs
}

// TestExactCellProbabilities: the probability mass the tables assign to
// every cell equals the product of its per-level quadrant probabilities —
// all 8×8 cells at scale 3 (remainder table only), all 64×64 at scale 6
// (full table only), both tables at scale 7 — up to threshold
// quantisation.
func TestExactCellProbabilities(t *testing.T) {
	for _, p := range []Params{
		{Scale: 3},
		{Scale: 6},
		{Scale: 7, A: 0.45, B: 0.15, C: 0.3, D: 0.1},
		{Scale: 3, A: 0.7, B: 0.3},
		{Scale: 6, A: 0.25, B: 0.25, C: 0.25, D: 0.25},
	} {
		g := NewGenerator(p)
		mustEdge(t, g, 0)
		q := p.probs()
		for _, tb := range []table{g.full, g.rem} {
			if tb.entries == nil {
				continue
			}
			sum := 0.0
			for j, got := range tableProbs(tb) {
				want := 1.0
				for l := uint(0); l < tb.levels; l++ {
					want *= q[j>>(2*l)&3]
				}
				if math.Abs(got-want) > 1e-13 {
					t.Errorf("scale %d, %d-level table, path %d: probability %v, want %v", p.Scale, tb.levels, j, got, want)
				}
				sum += got
			}
			if math.Abs(sum-1) > 1e-12 {
				t.Errorf("scale %d, %d-level table: probabilities sum to %v", p.Scale, tb.levels, sum)
			}
		}
	}

	// And drawn, not just tabulated: 2^20 edges over the 64 cells of a
	// scale-3 matrix, χ² with 63 degrees of freedom (p = 10^-6 at 134).
	p := Params{Scale: 3, Seed: 11}
	g := NewGenerator(p)
	q := p.probs()
	const samples = 1 << 20
	var hits [8][8]float64
	for i := uint64(0); i < samples; i++ {
		e := mustEdge(t, g, i)
		hits[e.U][e.V]++
	}
	chi2 := 0.0
	for u := range hits {
		for v := range hits[u] {
			want := float64(samples)
			for l := 0; l < 3; l++ {
				want *= q[(u>>l&1)<<1|v>>l&1]
			}
			chi2 += (hits[u][v] - want) * (hits[u][v] - want) / want
		}
	}
	if chi2 > 134 {
		t.Errorf("scale 3 cell frequencies: χ² = %.1f over 63 degrees of freedom", chi2)
	}
}

// levelChi2 returns, per matrix level (0 = most significant), the χ²
// statistic of the observed quadrant counts against q.
func levelChi2(t *testing.T, scale uint, q [4]float64, samples uint64, edge func(i uint64) graph.Edge) []float64 {
	t.Helper()
	counts := make([][4]float64, scale)
	for i := uint64(0); i < samples; i++ {
		e := edge(i)
		if scale < 64 && (e.U>>scale != 0 || e.V>>scale != 0) {
			t.Fatalf("edge %d = %v outside 2^%d", i, e, scale)
		}
		for l := uint(0); l < scale; l++ {
			pos := scale - 1 - l
			counts[l][(e.U>>pos&1)<<1|e.V>>pos&1]++
		}
	}
	chi2 := make([]float64, scale)
	for l, c := range counts {
		for k, want := range q {
			if want *= float64(samples); want > 0 {
				chi2[l] += (c[k] - want) * (c[k] - want) / want
			} else if c[k] != 0 {
				t.Fatalf("level %d: quadrant %d has probability 0 and %v hits", l, k, c[k])
			}
		}
	}
	return chi2
}

// TestLevelQuadrantFrequencies: on every level — the ones inside a table,
// the ones either side of a table boundary (levels 5|6, 11|12, 17|18 at
// scale 22) and the remainder table's — the quadrant frequencies of the
// table sampler and of the reference descent sit in the same χ² band
// around (a, b, c, d). Also the scales with no full table (1, 5), no
// remainder (6), a one-level remainder (7) and the maximum (62), with
// non-default probabilities.
func TestLevelQuadrantFrequencies(t *testing.T) {
	// 3 degrees of freedom: p = 10^-6 at 30.7. Seeds are fixed, so this is
	// a regression band, not a flaky significance test.
	const band = 30.7
	const samples = 200000
	for _, p := range []Params{
		{Scale: 22, Seed: 1},
		{Scale: 22, Seed: 2, A: 0.45, B: 0.15, C: 0.3, D: 0.1},
		{Scale: 1, Seed: 3},
		{Scale: 5, Seed: 4, A: 0.3, B: 0.2, C: 0.1, D: 0.4},
		{Scale: 6, Seed: 5, A: 0.3, B: 0.2, C: 0.1, D: 0.4},
		{Scale: 7, Seed: 6, A: 0.6, B: 0.1, C: 0.25, D: 0.05},
		{Scale: 62, Seed: 7, A: 0.45, B: 0.15, C: 0.3, D: 0.1},
		{Scale: 12, Seed: 8, A: 0.5, B: 0.5},
	} {
		p.M = samples
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		q := p.probs()
		g := NewGenerator(p)
		got := levelChi2(t, p.Scale, q, samples, func(i uint64) graph.Edge { return mustEdge(t, g, i) })
		ref := levelChi2(t, p.Scale, q, samples, func(i uint64) graph.Edge {
			return referenceEdge(p.Seed, i, p.Scale, q[0], q[1], q[2])
		})
		for l := range got {
			if got[l] > band {
				t.Errorf("scale %d %v, level %d: χ² = %.1f", p.Scale, q, l, got[l])
			}
			if ref[l] > band {
				t.Errorf("scale %d %v, level %d: reference χ² = %.1f — the test's band is wrong", p.Scale, q, l, ref[l])
			}
		}
	}
}

// degreeBuckets returns the log2-bucketed out- and in-degree histograms
// (bucket b counts the vertices with degree in [2^(b-1), 2^b); bucket 0
// the isolated ones).
func degreeBuckets(scale uint, m uint64, edge func(i uint64) graph.Edge) (out, in [65]float64) {
	od, id := make([]uint32, 1<<scale), make([]uint32, 1<<scale)
	for i := uint64(0); i < m; i++ {
		e := edge(i)
		od[e.U]++
		id[e.V]++
	}
	for v := range od {
		out[bits.Len32(od[v])]++
		in[bits.Len32(id[v])]++
	}
	return out, in
}

// TestDegreeHistogramMatchesReference: the skewed degree distribution is
// what R-MAT is used for. At scale 16 with 2^20 edges the log2-bucketed
// out- and in-degree histograms of the table sampler and the reference
// descent agree bucket by bucket within sampling noise (two independent
// samples of one distribution: |x - y| stays within a few sqrt(x + y)).
func TestDegreeHistogramMatchesReference(t *testing.T) {
	p := Params{Scale: 16, M: 1 << 20, Seed: 21}
	q := p.probs()
	g := NewGenerator(p)
	gotOut, gotIn := degreeBuckets(p.Scale, p.M, func(i uint64) graph.Edge { return mustEdge(t, g, i) })
	refOut, refIn := degreeBuckets(p.Scale, p.M, func(i uint64) graph.Edge {
		return referenceEdge(p.Seed+1, i, p.Scale, q[0], q[1], q[2])
	})
	compare := func(name string, got, ref [65]float64) {
		buckets := 0
		for b := range got {
			if got[b]+ref[b] == 0 {
				continue
			}
			buckets++
			if diff := math.Abs(got[b] - ref[b]); diff > 5*math.Sqrt(got[b]+ref[b])+2 {
				t.Errorf("%s-degree bucket %d: %v vertices, reference %v", name, b, got[b], ref[b])
			}
		}
		if buckets < 10 {
			t.Errorf("%s-degree histogram spans %d buckets — not a skewed distribution", name, buckets)
		}
	}
	compare("out", gotOut, refOut)
	compare("in", gotIn, refIn)
}

// referenceEntry, referenceTable, buildReferenceTable and
// referenceAliasEdge are the alias sampler as instance version 2 first
// defined it: 16-byte entries holding a 64-bit threshold (1<<threshBits =
// always own) and both paths, each pre-split into its row bits above its
// column bits, own in the low half of paths and alias in the high half.
// The packed table must draw exactly the same edges.
type referenceEntry struct {
	thresh uint64
	paths  uint32
}

type referenceTable struct {
	entries []referenceEntry
	levels  uint
}

func (t *referenceTable) lookup(u uint64) (row, col uint64) {
	e := &t.entries[u>>(64-2*t.levels)]
	alias := (e.thresh - 1 - u&threshMask) >> 63
	path := uint64(e.paths>>(alias<<4)) & 0xffff
	return path >> t.levels, path & (1<<t.levels - 1)
}

func buildReferenceTable(levels uint, q [4]float64) referenceTable {
	n := 1 << (2 * levels)
	entries := make([]referenceEntry, n)
	weight, work := make([]float64, n), make([]uint16, n)
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
	for _, j := range work[:ns] {
		entries[j].thresh = 1 << threshBits
	}
	for _, j := range work[nl:] {
		entries[j].thresh = 1 << threshBits
	}
	return referenceTable{entries: entries, levels: levels}
}

// referenceAliasEdge draws edge i with the 16-byte tables: one lookup per
// draw, row and column bits shifted in per draw.
func referenceAliasEdge(seed, i uint64, scale uint, full, rem *referenceTable) graph.Edge {
	r := prng.New(seed, core.TagRMAT, i)
	var row, col uint64
	for d := uint(0); d < scale/levelsPerDraw; d++ {
		rb, cb := full.lookup(r.Uint64())
		row = row<<levelsPerDraw | rb
		col = col<<levelsPerDraw | cb
	}
	if rem.levels > 0 {
		rb, cb := rem.lookup(r.Uint64())
		row = row<<rem.levels | rb
		col = col<<rem.levels | cb
	}
	return graph.Edge{U: row, V: col}
}

// TestPackedTablesDrawReferenceEdges: the packed 8-byte tables and the
// Morton split draw exactly the edges of the 16-byte reference, streamed
// in chunks and through Edge(i), for every scale, six probability sets
// (among them every zero pattern of b, c and d) and three seeds.
func TestPackedTablesDrawReferenceEdges(t *testing.T) {
	const m, chunks = 600, 3
	for _, q := range [][3]float64{
		{0.57, 0.19, 0.19}, {0.25, 0.25, 0.25}, {0.45, 0.15, 0.3},
		{1, 0, 0}, {0.9, 0.1, 0}, {0.5, 0, 0},
	} {
		probs := Params{A: q[0], B: q[1], C: q[2]}.probs()
		for scale := uint(1); scale <= 62; scale++ {
			full := buildReferenceTable(levelsPerDraw, probs)
			rem := referenceTable{}
			if r := scale % levelsPerDraw; r > 0 {
				rem = buildReferenceTable(r, probs)
			}
			for seed := uint64(1); seed <= 3; seed++ {
				p := Params{Scale: scale, M: m, A: q[0], B: q[1], C: q[2], D: probs[3], Seed: seed, Chunks: chunks}
				if err := p.Validate(); err != nil {
					t.Fatal(err)
				}
				g := NewGenerator(p)
				var streamed []graph.Edge
				for c := uint64(0); c < chunks; c++ {
					e := core.NewEmitter(make([]graph.Edge, 0, 64), func(full []graph.Edge) ([]graph.Edge, bool) {
						streamed = append(streamed, full...)
						return full, true
					})
					if err := g.StreamChunk(c, e); err != nil {
						t.Fatal(err)
					}
					streamed = append(streamed, e.Edges()...)
				}
				if len(streamed) != m {
					t.Fatalf("%v scale %d seed %d: %d edges streamed, want %d", q, scale, seed, len(streamed), m)
				}
				for i := uint64(0); i < m; i++ {
					want := referenceAliasEdge(seed, i, scale, &full, &rem)
					if streamed[i] != want {
						t.Fatalf("%v scale %d seed %d: streamed edge %d = %v, reference %v", q, scale, seed, i, streamed[i], want)
					}
					if got := mustEdge(t, g, i); got != want {
						t.Fatalf("%v scale %d seed %d: Edge(%d) = %v, reference %v", q, scale, seed, i, got, want)
					}
				}
			}
		}
	}
}

func BenchmarkChunk(b *testing.B) {
	g := NewGenerator(Params{Scale: 20, M: 1 << 16, Seed: 1, Chunks: 16})
	e := core.NewEmitter(make([]graph.Edge, 0, 4096), func(full []graph.Edge) ([]graph.Edge, bool) { return full, true })
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := g.StreamChunk(7, e); err != nil {
			b.Fatal(err)
		}
	}
}
