package sampling

import (
	"testing"
	"testing/quick"

	"repro/internal/prng"
)

func sum64(xs []uint64) uint64 {
	var s uint64
	for _, x := range xs {
		s += x
	}
	return s
}

// TestChunkCountsConservation: counts over the whole range sum to k and
// never exceed the chunk universe.
func TestChunkCountsConservation(t *testing.T) {
	f := func(seed uint32, nRaw, kRaw uint32, cRaw uint8) bool {
		n := uint64(nRaw%100000) + 1
		k := uint64(kRaw) % (n + 1)
		chunks := uint64(cRaw%32) + 1
		size := EqualSplit(n, chunks)
		counts := ChunkCounts(uint64(seed), k, chunks, size, 0, chunks)
		if sum64(counts) != k {
			return false
		}
		for i, c := range counts {
			if c > size(uint64(i), uint64(i)+1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestChunkCountsConsistency is the communication-free core property:
// querying each chunk individually gives exactly the same counts as
// querying the full range at once (and any sub-range agrees too).
func TestChunkCountsConsistency(t *testing.T) {
	const seed = 42
	const n = 100000
	const k = 31337
	const chunks = 23
	size := EqualSplit(n, chunks)
	full := ChunkCounts(seed, k, chunks, size, 0, chunks)
	for i := uint64(0); i < chunks; i++ {
		single := ChunkCount(seed, k, chunks, size, i)
		if single != full[i] {
			t.Errorf("chunk %d: single query %d != full query %d", i, single, full[i])
		}
	}
	// Arbitrary sub-ranges.
	sub := ChunkCounts(seed, k, chunks, size, 5, 14)
	for i := range sub {
		if sub[i] != full[5+i] {
			t.Errorf("subrange chunk %d mismatch", 5+i)
		}
	}
}

// TestChunkCountsSeedSensitivity: different seeds give different splits.
func TestChunkCountsSeedSensitivity(t *testing.T) {
	const n = 10000
	const k = 5000
	const chunks = 16
	size := EqualSplit(n, chunks)
	a := ChunkCounts(1, k, chunks, size, 0, chunks)
	b := ChunkCounts(2, k, chunks, size, 0, chunks)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical splits")
	}
}

// TestChunkCountsMarginal: each chunk's count is hypergeometric; its mean
// is k * chunkSize / n.
func TestChunkCountsMarginal(t *testing.T) {
	const n = 64000
	const k = 16000
	const chunks = 8
	size := EqualSplit(n, chunks)
	const trials = 2000
	var total float64
	for s := uint64(0); s < trials; s++ {
		total += float64(ChunkCount(s, k, chunks, size, 3))
	}
	mean := total / trials
	want := float64(k) / chunks
	if mean < want*0.98 || mean > want*1.02 {
		t.Errorf("mean chunk count %v, want ~%v", mean, want)
	}
}

func TestEqualSplitAdditivity(t *testing.T) {
	f := func(nRaw uint32, cRaw uint8, loRaw, midRaw, hiRaw uint8) bool {
		n := uint64(nRaw%1000000) + 1
		chunks := uint64(cRaw%64) + 1
		lo := uint64(loRaw) % (chunks + 1)
		mid := uint64(midRaw) % (chunks + 1)
		hi := uint64(hiRaw) % (chunks + 1)
		if lo > mid {
			lo, mid = mid, lo
		}
		if mid > hi {
			mid, hi = hi, mid
		}
		if lo > mid {
			lo, mid = mid, lo
		}
		size := EqualSplit(n, chunks)
		return size(lo, hi) == size(lo, mid)+size(mid, hi)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestEqualSplitTotal(t *testing.T) {
	for _, n := range []uint64{1, 7, 100, 12345} {
		for _, chunks := range []uint64{1, 2, 3, 7, 16} {
			size := EqualSplit(n, chunks)
			if size(0, chunks) != n {
				t.Errorf("n=%d chunks=%d: total %d", n, chunks, size(0, chunks))
			}
			// Balanced: chunk sizes differ by at most one.
			var mn, mx uint64 = n, 0
			for i := uint64(0); i < chunks; i++ {
				s := size(i, i+1)
				if s < mn {
					mn = s
				}
				if s > mx {
					mx = s
				}
			}
			if chunks <= n && mx-mn > 1 {
				t.Errorf("n=%d chunks=%d: sizes range [%d,%d]", n, chunks, mn, mx)
			}
		}
	}
}

// TestRecursiveSplitConsistency: range queries agree with the full split
// and conserve the total.
func TestRecursiveSplitConsistency(t *testing.T) {
	weights := make([]float64, 37)
	for i := range weights {
		weights[i] = float64(1 + i%5)
	}
	const seed = 9
	const total = 54321
	full := RecursiveSplit(seed, total, weights, 0, len(weights))
	if sum64(full) != total {
		t.Fatalf("full split sums to %d, want %d", sum64(full), total)
	}
	for i := 0; i < len(weights); i++ {
		one := RecursiveSplit(seed, total, weights, i, i+1)
		if one[0] != full[i] {
			t.Errorf("cell %d: single %d != full %d", i, one[0], full[i])
		}
	}
	mid := RecursiveSplit(seed, total, weights, 10, 25)
	for i := range mid {
		if mid[i] != full[10+i] {
			t.Errorf("range cell %d mismatch", 10+i)
		}
	}
}

func TestRecursiveSplitProportions(t *testing.T) {
	weights := []float64{1, 3} // bucket 1 should get ~3/4
	var b1 uint64
	const trials = 500
	const total = 4000
	for s := uint64(0); s < trials; s++ {
		counts := RecursiveSplit(s, total, weights, 0, 2)
		b1 += counts[1]
	}
	frac := float64(b1) / float64(trials*total)
	if frac < 0.74 || frac > 0.76 {
		t.Errorf("bucket 1 fraction %v, want ~0.75", frac)
	}
}

func TestBinomialChunkCountsConsistency(t *testing.T) {
	const seed = 4
	const chunks = 12
	size := EqualSplit(90000, chunks)
	full := BinomialChunkCounts(seed, 0.01, chunks, size, 0, chunks)
	for i := uint64(0); i < chunks; i++ {
		one := BinomialChunkCounts(seed, 0.01, chunks, size, i, i+1)
		if one[0] != full[i] {
			t.Errorf("chunk %d: %d != %d", i, one[0], full[i])
		}
	}
}

func BenchmarkChunkCountSingle(b *testing.B) {
	size := EqualSplit(1<<40, 1<<10)
	for i := 0; i < b.N; i++ {
		ChunkCount(uint64(i), 1<<30, 1<<10, size, 512)
	}
}

var _ = prng.New // keep import if unused in future edits

// TestRecursiveSplitEqualConsistency: equal-weight splits conserve the
// total and agree between range queries and full queries.
func TestRecursiveSplitEqualConsistency(t *testing.T) {
	const seed = 77
	const total = 99999
	const buckets = 53
	full := RecursiveSplitEqual(seed, total, buckets, 0, buckets)
	if sum64(full) != total {
		t.Fatalf("sums to %d, want %d", sum64(full), total)
	}
	for i := uint64(0); i < buckets; i++ {
		one := RecursiveSplitEqual(seed, total, buckets, i, i+1)
		if one[0] != full[i] {
			t.Errorf("bucket %d: single %d != full %d", i, one[0], full[i])
		}
	}
	mid := RecursiveSplitEqual(seed, total, buckets, 13, 31)
	for i := range mid {
		if mid[i] != full[13+i] {
			t.Errorf("range bucket %d mismatch", 13+i)
		}
	}
}

// TestRecursiveSplitEqualUniform: each bucket receives ~total/buckets.
func TestRecursiveSplitEqualUniform(t *testing.T) {
	const buckets = 16
	const total = 8000
	sums := make([]uint64, buckets)
	const trials = 400
	for s := uint64(0); s < trials; s++ {
		counts := RecursiveSplitEqual(s, total, buckets, 0, buckets)
		for i, c := range counts {
			sums[i] += c
		}
	}
	want := float64(total) / buckets
	for i, s := range sums {
		mean := float64(s) / trials
		if mean < want*0.97 || mean > want*1.03 {
			t.Errorf("bucket %d mean %v, want ~%v", i, mean, want)
		}
	}
}

// TestRecursiveSplitEqualRankProperty is the contract behind the O(log P)
// per-PE setup: for randomized seeds, totals and bucket counts, the rank
// walk returns exactly (sum of the full split before b, full split at b).
func TestRecursiveSplitEqualRankProperty(t *testing.T) {
	f := func(seed uint32, totalRaw uint32, bRaw uint8, pick uint8) bool {
		total := uint64(totalRaw % 200000)
		buckets := uint64(bRaw%80) + 1
		b := uint64(pick) % buckets
		full := RecursiveSplitEqual(uint64(seed), total, buckets, 0, buckets)
		var wantBefore uint64
		for _, c := range full[:b] {
			wantBefore += c
		}
		before, at := RecursiveSplitEqualRank(uint64(seed), total, buckets, b)
		return before == wantBefore && at == full[b]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestSplitMemoProperty: one SplitMemo serving two splits answers rank
// queries on both in any interleaved order, repeated or not, exactly as
// the full splits, draws no more nodes than the splits have, and after
// Reset answers for new splits under the same ids.
func TestSplitMemoProperty(t *testing.T) {
	var m SplitMemo
	f := func(seed uint32, totalRaw uint32, bRaw uint16, order []uint16) bool {
		m.Reset()
		type split struct{ seed, total, buckets uint64 }
		splits := []split{
			{uint64(seed), uint64(totalRaw % 200000), uint64(bRaw%600) + 1},
			{uint64(seed) + 1, uint64(totalRaw % 1000), uint64(bRaw%7) + 1},
		}
		var nodes uint64
		for _, sp := range splits {
			nodes += sp.buckets - 1
		}
		for _, o := range append(order, order...) {
			id := uint64(o) % 2
			sp := splits[id]
			b := uint64(o) / 2 % sp.buckets
			full := RecursiveSplitEqual(sp.seed, sp.total, sp.buckets, 0, sp.buckets)
			var wantBefore uint64
			for _, c := range full[:b] {
				wantBefore += c
			}
			if before, at := m.Rank(id, sp.seed, sp.total, sp.buckets, b); before != wantBefore || at != full[b] {
				return false
			}
		}
		return uint64(m.lefts.Len()) <= nodes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestRecursiveSplitEqualPrefixBefore: PrefixBefore(b) equals summing the
// full split slice, for every b including the b == buckets total.
func TestRecursiveSplitEqualPrefixBefore(t *testing.T) {
	const seed = 123
	const total = 77777
	const buckets = 41
	full := RecursiveSplitEqual(seed, total, buckets, 0, buckets)
	var sum uint64
	for b := uint64(0); b <= buckets; b++ {
		if got := RecursiveSplitEqualPrefix(seed, total, buckets, b); got != sum {
			t.Errorf("prefix before %d: got %d, want %d", b, got, sum)
		}
		if b < buckets {
			sum += full[b]
		}
	}
}

// TestRecursiveSplitEqualInto: the buffer variant matches the allocating
// one even when the buffer holds stale values.
func TestRecursiveSplitEqualInto(t *testing.T) {
	const seed = 5
	const total = 31415
	const buckets = 29
	want := RecursiveSplitEqual(seed, total, buckets, 0, buckets)
	out := make([]uint64, buckets)
	for i := range out {
		out[i] = ^uint64(0) // stale garbage the call must overwrite
	}
	RecursiveSplitEqualInto(seed, total, buckets, 0, buckets, out)
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("bucket %d: got %d, want %d", i, out[i], want[i])
		}
	}
	sub := make([]uint64, 10)
	RecursiveSplitEqualInto(seed, total, buckets, 7, 17, sub)
	for i := range sub {
		if sub[i] != want[7+i] {
			t.Errorf("subrange bucket %d: got %d, want %d", 7+i, sub[i], want[7+i])
		}
	}
}

func TestRecursiveSplitEqualProperty(t *testing.T) {
	f := func(seed uint32, totalRaw uint32, bRaw uint8) bool {
		total := uint64(totalRaw % 100000)
		buckets := uint64(bRaw%60) + 1
		counts := RecursiveSplitEqual(uint64(seed), total, buckets, 0, buckets)
		return sum64(counts) == total && uint64(len(counts)) == buckets
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
