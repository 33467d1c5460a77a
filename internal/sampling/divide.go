package sampling

import (
	"repro/internal/dist"
	"repro/internal/flat"
	"repro/internal/prng"
)

// tagDivide namespaces the hash stream of the divide-and-conquer recursion
// so that different uses of the same user seed stay independent.
const tagDivide = 0x9e3779b97f4a7c15

// SizeFunc reports the total universe size of the chunk range [lo, hi).
// It must be additive: size(lo,hi) == size(lo,mid) + size(mid,hi).
type SizeFunc func(lo, hi uint64) uint64

// ChunkCounts splits k samples drawn without replacement from a universe
// partitioned into `chunks` sub-universes (sizes given by size) and returns
// the per-chunk sample counts for chunks in [qlo, qhi).
//
// The recursion halves the chunk range and draws a hypergeometric variate
// seeded by the subtree identity (seed, lo, hi). Any two callers — in the
// paper's setting, any two PEs — therefore compute identical counts for
// every chunk, while a caller interested in a single chunk performs only
// O(log chunks) variate draws. This is the distributed sampling scheme of
// Sanders et al. used by all generators (paper §2.2, §4).
func ChunkCounts(seed, k, chunks uint64, size SizeFunc, qlo, qhi uint64) []uint64 {
	if qhi > chunks || qlo > qhi {
		panic("sampling: invalid chunk query range")
	}
	out := make([]uint64, qhi-qlo)
	splitRec(seed, k, 0, chunks, size, qlo, qhi, out)
	return out
}

// ChunkCount is ChunkCounts for a single chunk.
func ChunkCount(seed, k, chunks uint64, size SizeFunc, chunk uint64) uint64 {
	if chunk >= chunks {
		panic("sampling: invalid chunk query range")
	}
	var out [1]uint64
	splitRec(seed, k, 0, chunks, size, chunk, chunk+1, out[:])
	return out[0]
}

func splitRec(seed, k, lo, hi uint64, size SizeFunc, qlo, qhi uint64, out []uint64) {
	if k == 0 {
		return // all counts in this subtree are zero; out already zeroed
	}
	if hi-lo == 1 {
		out[lo-qlo] = k
		return
	}
	mid := lo + (hi-lo)/2
	leftSize := size(lo, mid)
	total := leftSize + size(mid, hi)
	r := prng.New(seed, tagDivide, lo, hi)
	left := dist.Hypergeometric(&r, total, leftSize, k)
	if qlo < mid && lo < qhi { // left subtree intersects query
		splitRec(seed, left, lo, mid, size, qlo, qhi, out)
	}
	if qhi > mid && hi > qlo { // right subtree intersects query
		splitRec(seed, k-left, mid, hi, size, qlo, qhi, out)
	}
}

// BinomialChunkCounts is the G(n,p)-style variant: instead of conditioning
// on a global total, each chunk's count is an independent binomial over its
// own sub-universe, seeded by the chunk identity alone (paper §4.3). The
// counts for chunks [qlo, qhi) are returned.
func BinomialChunkCounts(seed uint64, p float64, chunks uint64, size SizeFunc, qlo, qhi uint64) []uint64 {
	out := make([]uint64, qhi-qlo)
	for c := qlo; c < qhi; c++ {
		r := prng.New(seed, tagDivide, ^uint64(0), c)
		out[c-qlo] = dist.Binomial(&r, size(c, c+1), p)
	}
	return out
}

// EqualSplit returns a SizeFunc for a universe of n elements divided into
// `chunks` balanced intervals: chunk i covers [i*n/chunks, (i+1)*n/chunks).
func EqualSplit(n, chunks uint64) SizeFunc {
	return func(lo, hi uint64) uint64 {
		return hi*n/chunks - lo*n/chunks
	}
}

// RecursiveSplit splits total across buckets whose relative weights are
// given by weights, drawing binomials over a binary recursion seeded by
// (seed, node ids). Unlike dist.Multinomial the result is reproducible for
// any sub-range query: RecursiveSplitRange(qlo,qhi) equals the same slice
// of the full split. Used to distribute points over grid cells so that a
// neighbouring PE can recompute any single cell count in O(log cells).
func RecursiveSplit(seed, total uint64, weights []float64, qlo, qhi int) []uint64 {
	out := make([]uint64, qhi-qlo)
	prefix := make([]float64, len(weights)+1)
	for i, w := range weights {
		prefix[i+1] = prefix[i] + w
	}
	recSplit(seed, total, 0, len(weights), prefix, qlo, qhi, out)
	return out
}

// RecursiveSplitEqual is RecursiveSplit for equally weighted buckets,
// avoiding the O(buckets) weight array. This is the common case of the
// spatial generators: grid cells of one chunk all have the same volume.
func RecursiveSplitEqual(seed, total uint64, buckets uint64, qlo, qhi uint64) []uint64 {
	out := make([]uint64, qhi-qlo)
	recSplitEqual(seed, total, 0, buckets, qlo, qhi, out)
	return out
}

// RecursiveSplitEqualInto is RecursiveSplitEqual writing into a
// caller-provided buffer of length at least qhi-qlo, so steady-state
// consumers (the flat cell index) can reuse one allocation per chunk.
func RecursiveSplitEqualInto(seed, total uint64, buckets uint64, qlo, qhi uint64, out []uint64) {
	out = out[:qhi-qlo]
	for i := range out {
		out[i] = 0
	}
	recSplitEqual(seed, total, 0, buckets, qlo, qhi, out)
}

// RecursiveSplitEqualRank walks the recursion path to bucket b and returns
// the sum of all bucket counts before b together with b's own count, in
// O(log buckets) binomial draws. The values are bit-identical to summing
// and indexing the full RecursiveSplitEqual slice: every node on the
// root-to-leaf path draws from the same (seed, lo, hi)-derived stream with
// the same subtree total, and the counts of the skipped left subtrees are
// exactly the node's left binomial draws. This is what lets a PE derive
// the vertex count and global ID base of any single chunk without
// materializing all of them (paper §2.2, §4).
func RecursiveSplitEqualRank(seed, total uint64, buckets, b uint64) (before, at uint64) {
	if b >= buckets {
		panic("sampling: bucket index out of range")
	}
	lo, hi := uint64(0), buckets
	for hi-lo > 1 {
		if total == 0 {
			return before, 0
		}
		mid := lo + (hi-lo)/2
		frac := float64(mid-lo) / float64(hi-lo)
		r := prng.New(seed, tagDivide+2, lo, hi)
		left := dist.Binomial(&r, total, frac)
		if b < mid {
			hi, total = mid, left
		} else {
			before += left
			lo, total = mid, total-left
		}
	}
	return before, total
}

// SplitMemo answers RecursiveSplitEqualRank queries, drawing each node
// of a split's recursion at most once until Reset: queries for nearby
// buckets share the upper levels of their paths, which hold the largest
// totals and so the costliest draws, and any number of queries on a split
// draws no more than its buckets-1 nodes. One memo serves many splits;
// the caller names each by an id that stands for one (seed, total,
// buckets) until the next Reset. The zero SplitMemo is ready to use, and
// once its storage has grown to a workload, Reset and refill allocate
// nothing.
type SplitMemo struct {
	lefts flat.Map[uint64] // left count of each drawn node, by (split id, node number)
}

// Reset forgets every drawn node, keeping the storage.
func (m *SplitMemo) Reset() { m.lefts.Clear() }

// Rank is RecursiveSplitEqualRank(seed, total, buckets, b) of the split
// named split.
func (m *SplitMemo) Rank(split, seed, total, buckets, b uint64) (before, at uint64) {
	if b >= buckets {
		panic("sampling: bucket index out of range")
	}
	// node numbers the recursion heap-style: the root is 1 and the
	// children of node k are 2k and 2k+1.
	lo, hi, node := uint64(0), buckets, uint64(1)
	for hi-lo > 1 && total > 0 {
		mid := lo + (hi-lo)/2
		left, ok := m.lefts.Get(split, node)
		if !ok {
			left = drawLeft(seed, total, lo, hi)
			m.lefts.Put(split, node, left)
		}
		if b < mid {
			hi, total, node = mid, left, 2*node
		} else {
			before += left
			lo, total, node = mid, total-left, 2*node+1
		}
	}
	return before, total
}

// RecursiveSplitEqualPrefix returns the sum of the bucket counts in
// [0, b) of the equal-weight recursive split — the prefix-sum query behind
// global ID derivation. b == buckets returns the full total.
func RecursiveSplitEqualPrefix(seed, total uint64, buckets, b uint64) uint64 {
	if b >= buckets {
		if b == buckets {
			return total
		}
		panic("sampling: bucket index out of range")
	}
	before, _ := RecursiveSplitEqualRank(seed, total, buckets, b)
	return before
}

// drawLeft draws how many of the total items of the equal-weight
// recursion node [lo, hi) fall into its left half [lo, mid).
// RecursiveSplitEqualRank makes the same draw inline.
func drawLeft(seed, total, lo, hi uint64) uint64 {
	mid := lo + (hi-lo)/2
	frac := float64(mid-lo) / float64(hi-lo)
	r := prng.New(seed, tagDivide+2, lo, hi)
	return dist.Binomial(&r, total, frac)
}

func recSplitEqual(seed, total, lo, hi, qlo, qhi uint64, out []uint64) {
	if total == 0 {
		return
	}
	if hi-lo == 1 {
		out[lo-qlo] = total
		return
	}
	mid := lo + (hi-lo)/2
	left := drawLeft(seed, total, lo, hi)
	if qlo < mid && lo < qhi {
		recSplitEqual(seed, left, lo, mid, qlo, qhi, out)
	}
	if qhi > mid && hi > qlo {
		recSplitEqual(seed, total-left, mid, hi, qlo, qhi, out)
	}
}

func recSplit(seed, total uint64, lo, hi int, prefix []float64, qlo, qhi int, out []uint64) {
	if total == 0 {
		return
	}
	if hi-lo == 1 {
		out[lo-qlo] = total
		return
	}
	mid := lo + (hi-lo)/2
	all := prefix[hi] - prefix[lo]
	var frac float64
	if all > 0 {
		frac = (prefix[mid] - prefix[lo]) / all
	}
	r := prng.New(seed, tagDivide+1, uint64(lo), uint64(hi))
	left := dist.Binomial(&r, total, frac)
	if qlo < mid && lo < qhi {
		recSplit(seed, left, lo, mid, prefix, qlo, qhi, out)
	}
	if qhi > mid && hi > qlo {
		recSplit(seed, total-left, mid, hi, prefix, qlo, qhi, out)
	}
}
