package pe

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// emitting adapts an item-at-a-time producer to Stream's batch-filling
// contract, flushing whenever the batch is full.
func emitting[T any](f func(pe int, emit func(T))) func(int, int, []T, func([]T) ([]T, bool)) []T {
	return func(_, pe int, batch []T, flush func([]T) ([]T, bool)) []T {
		f(pe, func(item T) {
			batch = append(batch, item)
			if len(batch) == cap(batch) {
				batch, _ = flush(batch)
			}
		})
		return batch
	}
}

// produceSquares emits pe*itemsPer..(pe+1)*itemsPer-1 for each PE, with a
// random delay so completion order differs from PE order.
func produceSquares(itemsPer int, jitter bool) func(pe int, emit func(int)) {
	return func(pe int, emit func(int)) {
		if jitter {
			time.Sleep(time.Duration(rand.Intn(3)) * time.Millisecond)
		}
		for i := 0; i < itemsPer; i++ {
			emit(pe*itemsPer + i)
		}
	}
}

// collectBatched streams with an explicit batch size and asserts the sink
// protocol: batches only for the delivery head, finals in PE order.
func collectBatched(t *testing.T, P, workers, batchSize, itemsPer int, jitter bool) []int {
	t.Helper()
	var got []int
	lastPE := -1
	err := Stream(0, P, workers, batchSize, emitting(produceSquares(itemsPer, jitter)),
		func(pe int, batch []int, final bool) error {
			if pe != lastPE+1 {
				t.Fatalf("batch for PE %d delivered while head is %d", pe, lastPE+1)
			}
			if batchSize > 0 && len(batch) > batchSize {
				t.Fatalf("batch of %d items exceeds capacity %d", len(batch), batchSize)
			}
			if !final && len(batch) == 0 {
				t.Fatal("empty non-final batch delivered")
			}
			got = append(got, batch...)
			if final {
				lastPE = pe
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if lastPE != P-1 {
		t.Fatalf("last finalized PE %d, want %d", lastPE, P-1)
	}
	return got
}

func collectStream(t *testing.T, P, workers, itemsPer int, jitter bool) []int {
	t.Helper()
	return collectBatched(t, P, workers, 0, itemsPer, jitter)
}

func TestStreamOrderAndWorkerInvariance(t *testing.T) {
	const P, itemsPer = 32, 100
	want := collectStream(t, P, 1, itemsPer, false)
	for _, workers := range []int{2, 4, 16, 64} {
		got := collectStream(t, P, workers, itemsPer, true)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d items, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: item %d = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

// TestStreamBatchSizeInvariance: the delivered item sequence must be
// bit-identical for every batch size — batch boundaries carry no meaning.
// Sizes 1 (every item its own batch), 7 (chunks never divide evenly) and
// 4096 (chunks much smaller than a batch) cover the boundary cases.
func TestStreamBatchSizeInvariance(t *testing.T) {
	const P, itemsPer = 16, 157
	want := collectBatched(t, P, 1, 0, itemsPer, false)
	for _, batchSize := range []int{1, 7, 4096} {
		for _, workers := range []int{1, 4} {
			got := collectBatched(t, P, workers, batchSize, itemsPer, true)
			if len(got) != len(want) {
				t.Fatalf("batch=%d workers=%d: %d items, want %d",
					batchSize, workers, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("batch=%d workers=%d: item %d = %d, want %d",
						batchSize, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// TestStreamHeadFlushesEarly: the head PE's batches must reach the sink
// while that PE is still generating — the consume callback observes head
// batches before the producer has finished the chunk.
func TestStreamHeadFlushesEarly(t *testing.T) {
	const items = 10_000
	const batchSize = 64
	done := make(chan struct{})
	sawEarly := false
	err := Stream(0, 2, 2, batchSize, emitting(func(pe int, emit func(int)) {
		if pe == 1 {
			<-done // PE 1 cannot finish before PE 0's stream is fully delivered
			emit(1)
			return
		}
		for i := 0; i < items; i++ {
			emit(i)
		}
		close(done)
	}), func(pe int, batch []int, final bool) error {
		if pe == 0 && !final {
			select {
			case <-done:
			default:
				sawEarly = true // delivered while PE 0 still generating
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sawEarly {
		t.Fatal("no head batch was delivered before its chunk finished generating")
	}
}

func TestStreamEmptyChunks(t *testing.T) {
	finals := 0
	err := Stream(0, 8, 4, 0, emitting(func(pe int, emit func(int)) {
		if pe%2 == 0 {
			emit(pe)
		}
	}), func(pe int, batch []int, final bool) error {
		if pe%2 == 1 && len(batch) != 0 {
			t.Errorf("PE %d: expected empty chunk, got %d items", pe, len(batch))
		}
		if final {
			finals++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if finals != 8 {
		t.Fatalf("%d final batches, want 8", finals)
	}
}

func TestStreamErrorStopsRun(t *testing.T) {
	sentinel := errors.New("sink full")
	for _, workers := range []int{1, 4} {
		delivered := 0
		err := Stream(0, 64, workers, 0, emitting(produceSquares(10, false)), func(pe int, batch []int, final bool) error {
			if pe == 3 {
				return fmt.Errorf("pe %d: %w", pe, sentinel)
			}
			if final {
				delivered++
			}
			return nil
		})
		if !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: err = %v, want wrapped sentinel", workers, err)
		}
		if delivered != 3 {
			t.Fatalf("workers=%d: %d chunks delivered before error, want 3", workers, delivered)
		}
	}
}

// TestStreamErrorRecyclesBatches: after the first sink error nothing more
// is delivered, and every pooled batch — in-flight, queued, or discarded —
// is returned to the pool (no batch leaks from an aborted run).
func TestStreamErrorRecyclesBatches(t *testing.T) {
	sentinel := errors.New("sink failed")
	for _, workers := range []int{1, 3, 8} {
		for _, batchSize := range []int{1, 7, 64} {
			pool := newBatchPool[int](batchSize)
			deliveredAfterError := false
			sawError := false
			err := streamRange(0, 48, workers, pool, emitting(produceSquares(100, true)),
				func(pe int, batch []int, final bool) error {
					if sawError {
						deliveredAfterError = true
					}
					if pe == 5 {
						sawError = true
						return sentinel
					}
					return nil
				})
			if !errors.Is(err, sentinel) {
				t.Fatalf("workers=%d batch=%d: err = %v, want sentinel", workers, batchSize, err)
			}
			if deliveredAfterError {
				t.Fatalf("workers=%d batch=%d: delivery after the first error", workers, batchSize)
			}
			if n := pool.borrowed.Load(); n != 0 {
				t.Fatalf("workers=%d batch=%d: %d batches never returned to the pool",
					workers, batchSize, n)
			}
		}
	}
}

// TestStreamSuccessRecyclesBatches: a clean run returns every batch too.
func TestStreamSuccessRecyclesBatches(t *testing.T) {
	pool := newBatchPool[int](8)
	err := streamRange(0, 16, 4, pool, emitting(produceSquares(50, true)),
		func(pe int, batch []int, final bool) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n := pool.borrowed.Load(); n != 0 {
		t.Fatalf("%d batches never returned to the pool", n)
	}
}

func TestStreamZeroPEs(t *testing.T) {
	if err := Stream(0, 0, 4, 0, emitting(func(int, func(int)) {}), func(int, []int, bool) error {
		t.Fatal("consume called for P=0")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestOrderedWorkerIndexAndRelease: Ordered hands each producer the index
// of the goroutine it runs on — never two producers on one index at once,
// so per-index state needs no lock — delivers absolute PE indices of the
// requested range, and releases every item exactly once, delivered or not.
func TestOrderedWorkerIndexAndRelease(t *testing.T) {
	sentinel := errors.New("sink failed")
	for _, workers := range []int{1, 3, 8} {
		for _, failAt := range []int{-1, 25} {
			const first, count = 20, 12
			busy := make([]atomic.Bool, workers)
			var sent, released atomic.Int64
			next := first
			err := Ordered(first, count, workers,
				func(worker, pe int, send func(*int, bool) bool) {
					if worker < 0 || worker >= workers || !busy[worker].CompareAndSwap(false, true) {
						t.Errorf("workers=%d: producer for PE %d got worker index %d, out of range or already in use", workers, pe, worker)
						return
					}
					defer busy[worker].Store(false)
					for i := 0; i < 40; i++ {
						v := pe
						sent.Add(1)
						send(&v, i == 39)
					}
				},
				func(pe int, item *int, final bool) error {
					if pe != next || *item != pe {
						t.Errorf("workers=%d: delivered item %d under PE %d, head is %d", workers, *item, pe, next)
					}
					if final {
						next++
					}
					if pe == failAt {
						return sentinel
					}
					return nil
				},
				func(*int) { released.Add(1) })
			if failAt < 0 && (err != nil || next != first+count) {
				t.Fatalf("workers=%d: err %v, delivered through PE %d, want %d", workers, err, next-1, first+count-1)
			}
			if failAt >= 0 && !errors.Is(err, sentinel) {
				t.Fatalf("workers=%d: err = %v, want sentinel", workers, err)
			}
			if sent.Load() != released.Load() {
				t.Fatalf("workers=%d failAt=%d: %d items sent, %d released", workers, failAt, sent.Load(), released.Load())
			}
		}
	}
}

// TestOrderedBudgetSharedByProducers: the items queued behind the delivery
// head share one budget. Against a slow sink the items alive — sent and
// not yet released — never exceed the budget plus one per worker, and the
// budget does bind; that includes a head whose items another worker is
// still delivering, which without its own wait would queue its whole
// chunk. And a producer ahead of the head is not held to a per-PE share:
// with the head parked mid-chunk, the next PE sends more than 16 items
// and finishes.
func TestOrderedBudgetSharedByProducers(t *testing.T) {
	t.Run("bound", func(t *testing.T) {
		const budget, workers, count, items = 8, 3, 12, 60
		var mu sync.Mutex
		alive, peak := 0, 0
		next := 0
		err := ordered(0, count, workers, budget,
			func(_, pe int, send func(int, bool) bool) {
				for i := 0; i < items; i++ {
					mu.Lock()
					alive++
					peak = max(peak, alive)
					mu.Unlock()
					send(pe, i == items-1)
				}
			},
			func(pe, item int, final bool) error {
				if item != next {
					t.Errorf("item of PE %d delivered while the head is %d", item, next)
				}
				if final {
					next++
				}
				time.Sleep(20 * time.Microsecond)
				return nil
			},
			func(int) {
				mu.Lock()
				alive--
				mu.Unlock()
			})
		if err != nil || next != count {
			t.Fatalf("err %v, delivered %d PEs, want %d", err, next, count)
		}
		if peak > budget+workers || peak < budget {
			t.Errorf("%d items alive at once, want between the budget %d and %d", peak, budget, budget+workers)
		}
	})
	t.Run("no per-PE share", func(t *testing.T) {
		const budget, items = 64, 48
		done := make(chan struct{})
		parked := false
		var got []int
		err := ordered(0, 2, 2, budget,
			func(_, pe int, send func(int, bool) bool) {
				if pe == 1 {
					for i := 0; i < items; i++ {
						send(1, i == items-1)
					}
					close(done)
					return
				}
				send(0, false)
				select {
				case <-done:
				case <-time.After(10 * time.Second):
					parked = true // PE 1 is stuck behind the parked head
				}
				send(0, true)
			},
			func(pe, item int, final bool) error {
				got = append(got, item)
				return nil
			},
			func(int) {})
		if err != nil {
			t.Fatal(err)
		}
		if parked {
			t.Fatalf("PE 1 did not finish its %d items while the head was parked", items)
		}
		if len(got) != items+2 || got[0] != 0 || got[1] != 0 || got[2] != 1 {
			t.Fatalf("delivered %v, want PE 0's two items, then PE 1's %d", got, items)
		}
	})
}
