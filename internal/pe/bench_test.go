package pe

import (
	"fmt"
	"testing"
)

// BenchmarkStreamThroughput pins the per-item cost of the batch pipeline:
// P PEs emit into a counting consumer through pooled batches. Steady-state
// streaming must stay allocation-free per item — the allocs/op of a run
// are a small constant (per-PE closures and pool warm-up), not a function
// of the item count.
func BenchmarkStreamThroughput(b *testing.B) {
	const P = 16
	const itemsPer = 1 << 14
	produce := func(pe int, emit func(int)) {
		base := pe * itemsPer
		for i := 0; i < itemsPer; i++ {
			emit(base + i)
		}
	}
	for _, workers := range []int{1, 4} {
		for _, batchSize := range []int{256, DefaultBatchSize} {
			b.Run(fmt.Sprintf("workers=%d/batch=%d", workers, batchSize), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(P * itemsPer * 8) // items moved per run, as bytes
				for i := 0; i < b.N; i++ {
					total := 0
					err := Stream(0, P, workers, batchSize, emitting(produce),
						func(pe int, batch []int, final bool) error {
							total += len(batch)
							return nil
						})
					if err != nil {
						b.Fatal(err)
					}
					if total != P*itemsPer {
						b.Fatalf("streamed %d items, want %d", total, P*itemsPer)
					}
				}
			})
		}
	}
}
