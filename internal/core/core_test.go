package core

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func TestChunkingCoversAllVertices(t *testing.T) {
	f := func(nRaw uint16, cRaw uint8) bool {
		n := uint64(nRaw) + 1
		chunks := uint64(cRaw)%n + 1
		ch := Chunking{N: n, Chunks: chunks}
		if ch.Start(0) != 0 || ch.End(chunks-1) != n {
			return false
		}
		var total uint64
		for i := uint64(0); i < chunks; i++ {
			if ch.End(i) < ch.Start(i) {
				return false
			}
			if i > 0 && ch.Start(i) != ch.End(i-1) {
				return false
			}
			total += ch.Size(i)
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestChunkingOwnerInverse(t *testing.T) {
	f := func(nRaw uint16, cRaw uint8, vRaw uint16) bool {
		n := uint64(nRaw) + 1
		chunks := uint64(cRaw)%n + 1
		v := uint64(vRaw) % n
		ch := Chunking{N: n, Chunks: chunks}
		owner := ch.Owner(v)
		return owner < chunks && ch.Start(owner) <= v && v < ch.End(owner)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestChunkingBalanced(t *testing.T) {
	ch := Chunking{N: 1000, Chunks: 7}
	var mn, mx uint64 = 1000, 0
	for i := uint64(0); i < 7; i++ {
		s := ch.Size(i)
		if s < mn {
			mn = s
		}
		if s > mx {
			mx = s
		}
	}
	if mx-mn > 1 {
		t.Errorf("chunk sizes range [%d, %d], want difference <= 1", mn, mx)
	}
}

func TestTriangularIndexExhaustive(t *testing.T) {
	idx := uint64(0)
	for row := uint64(1); row < 60; row++ {
		for col := uint64(0); col < row; col++ {
			r, c := TriangularIndex(idx)
			if r != row || c != col {
				t.Fatalf("idx %d: got (%d,%d) want (%d,%d)", idx, r, c, row, col)
			}
			idx++
		}
	}
}

func TestTriangularIndexLarge(t *testing.T) {
	// Near the float64 precision edge of the sqrt estimate.
	for _, idx := range []uint64{1 << 40, 1<<45 + 12345, 1 << 50} {
		r, c := TriangularIndex(idx)
		if c >= r {
			t.Fatalf("idx %d: col %d >= row %d", idx, c, r)
		}
		if r*(r-1)/2+c != idx {
			t.Fatalf("idx %d: roundtrip gives %d", idx, r*(r-1)/2+c)
		}
	}
}

// TestMergeResults: Generate merges the collected chunks in PE order for
// any worker count, and a flushing Emitter hands over exactly the edges a
// collecting one keeps.
func TestMergeResults(t *testing.T) {
	stream := func(pe uint64, e *Emitter) {
		for i := uint64(0); i <= pe; i++ {
			e.Append(pe, i)
		}
		e.Comparisons++
	}
	var want []graph.Edge
	for pe := uint64(0); pe < 5; pe++ {
		for i := uint64(0); i <= pe; i++ {
			want = append(want, graph.Edge{U: pe, V: i})
		}
	}
	for _, workers := range []int{1, 3} {
		el := Generate(5, 5, workers, stream)
		if el.N != 5 || !slices.Equal(el.Edges, want) {
			t.Fatalf("workers=%d: merged n=%d edges %v, want %v", workers, el.N, el.Edges, want)
		}
	}
	var got []graph.Edge
	e := NewEmitter(make([]graph.Edge, 0, 2), func(full []graph.Edge) ([]graph.Edge, bool) {
		got = append(got, full...)
		return full, true
	})
	stream(4, e)
	got = append(got, e.Edges()...)
	if !slices.Equal(got, want[10:]) || e.Comparisons != 1 {
		t.Fatalf("flushed %v (work %+v), want %v", got, e.Work, want[10:])
	}
}

func TestSeedTagsDistinct(t *testing.T) {
	tags := []uint64{
		TagGNMDirected, TagGNMUndirected, TagGNMChunk, TagGNP,
		TagRGGCounts, TagRGGCell, TagRGGPoints, TagRHGAnnuli, TagRHGChunk, TagRHGPoints,
		TagRDGCell, TagBA, TagRMAT, TagSRHG,
	}
	seen := map[uint64]bool{}
	for _, tag := range tags {
		if seen[tag] {
			t.Fatalf("duplicate tag %x", tag)
		}
		seen[tag] = true
	}
}

func FuzzTriangularIndex(f *testing.F) {
	f.Add(uint64(0))
	f.Add(uint64(1))
	f.Add(uint64(12345))
	f.Add(uint64(1) << 50)
	f.Fuzz(func(t *testing.T, idx uint64) {
		if idx > 1<<52 {
			return
		}
		r, c := TriangularIndex(idx)
		if c >= r {
			t.Fatalf("idx %d: col %d >= row %d", idx, c, r)
		}
		if r*(r-1)/2+c != idx {
			t.Fatalf("idx %d: roundtrip %d", idx, r*(r-1)/2+c)
		}
	})
}

func FuzzChunkingOwner(f *testing.F) {
	f.Add(uint64(10), uint64(3), uint64(5))
	f.Add(uint64(1), uint64(1), uint64(0))
	f.Fuzz(func(t *testing.T, n, chunks, v uint64) {
		if n == 0 || n > 1<<40 {
			return
		}
		chunks = chunks%n + 1
		v %= n
		ch := Chunking{N: n, Chunks: chunks}
		owner := ch.Owner(v)
		if owner >= chunks || ch.Start(owner) > v || v >= ch.End(owner) {
			t.Fatalf("n=%d chunks=%d v=%d: owner %d range [%d,%d)", n, chunks, v, owner, ch.Start(owner), ch.End(owner))
		}
	})
}
