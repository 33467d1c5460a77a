package pe

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultBatchSize is the batch capacity used by Stream: 4096 items keeps
// a batch of 16-byte edges at 64 KiB — large enough to amortize the
// per-batch synchronization to noise, small enough that the pipeline's
// buffered footprint stays tiny compared to whole chunks.
const DefaultBatchSize = 4096

// maxQueuedBatches bounds the batch list queued for one not-yet-delivered
// PE. A producer that runs this far ahead of the delivery head blocks
// until the head catches up, which caps the pipeline's buffered items at
// window * maxQueuedBatches * batchSize regardless of chunk sizes.
const maxQueuedBatches = 16

// Stream executes produce(pe, emit) for every pe in [0, P) on a bounded
// worker pool and hands the emitted items to consume in fixed-capacity
// batches — in increasing PE order, and within each PE in emission order,
// regardless of the worker count or the completion order. It is the
// parallel streaming runtime: generation runs concurrently into pooled
// batches while the sink observes the same deterministic item sequence a
// serial run would produce. Batch boundaries carry no meaning: the
// delivered concatenation is invariant under the batch size.
//
// consume receives each PE's batches in order; final marks the PE's last
// batch (a PE with no items gets exactly one final, empty batch). Batches
// are drawn from a sync.Pool and recycled after consume returns, so
// steady-state streaming performs no allocation; a batch is only valid
// during the consume call.
//
// The head PE's batches are flushed as they fill — while the chunk is
// still generating — so the pipeline's buffered footprint is bounded by
// window * maxQueuedBatches * batchSize items (window = 2*workers), not
// by the largest chunk. At most window chunks are admitted beyond the
// delivery head.
//
// consume runs on whichever worker owns the delivery head; calls never
// overlap. The first error returned by consume stops the run: no further
// batches are delivered, no further chunks are started, and the error is
// returned. A PE whose produce is already running completes, with its
// output discarded.
func Stream[T any](P, workers int, produce func(pe int, emit func(T)), consume func(pe int, batch []T, final bool) error) error {
	return StreamBatched(P, workers, DefaultBatchSize, produce, consume)
}

// StreamRange is Stream over the PE range [first, first+count): produce
// and consume receive absolute PE indices, delivery is in increasing PE
// order from first. It is the resumable entry point of the pipeline — a
// worker restarted mid-run re-enters at its checkpointed PE (or a PE at
// its checkpointed chunk, when chunks are the streamed unit) and streams
// only the remaining range, with the delivered item sequence identical to
// the corresponding suffix of a full run.
func StreamRange[T any](first, count, workers int, produce func(pe int, emit func(T)), consume func(pe int, batch []T, final bool) error) error {
	return StreamRangeBatched(first, count, workers, DefaultBatchSize, produce, consume)
}

// StreamRangeBatched is StreamRange with an explicit batch capacity (0 or
// negative selects DefaultBatchSize).
func StreamRangeBatched[T any](first, count, workers, batchSize int, produce func(pe int, emit func(T)), consume func(pe int, batch []T, final bool) error) error {
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	return streamRange(first, count, workers, newBatchPool[T](batchSize), produce, consume)
}

// StreamBatched is Stream with an explicit batch capacity (0 or negative
// selects DefaultBatchSize). The delivered item sequence is identical for
// every batch size; only the batch boundaries move.
func StreamBatched[T any](P, workers, batchSize int, produce func(pe int, emit func(T)), consume func(pe int, batch []T, final bool) error) error {
	return StreamRangeBatched(0, P, workers, batchSize, produce, consume)
}

// streamBatched runs the batch pipeline over [0, P) against an explicit
// pool (separated so the tests can audit that every borrowed batch is
// returned).
func streamBatched[T any](P, workers int, pool *batchPool[T], produce func(pe int, emit func(T)), consume func(pe int, batch []T, final bool) error) error {
	return streamRange(0, P, workers, pool, produce, consume)
}

// streamRange is the batch pipeline: Ordered with pooled item batches as
// the delivered unit.
func streamRange[T any](first, count, workers int, pool *batchPool[T], produce func(pe int, emit func(T)), consume func(pe int, batch []T, final bool) error) error {
	batchSize := pool.size
	return Ordered(first, count, workers,
		func(_, pe int, send func(*[]T, bool) bool) {
			pb := pool.get()
			buf := (*pb)[:0]
			live := true
			produce(pe, func(item T) {
				if !live {
					return // sink already failed; drop the remainder
				}
				buf = append(buf, item)
				if len(buf) >= batchSize {
					*pb = buf
					live = send(pb, false)
					pb = pool.get()
					buf = (*pb)[:0]
				}
			})
			*pb = buf
			send(pb, true)
		},
		func(pe int, pb *[]T, final bool) error { return consume(pe, *pb, final) },
		pool.put)
}

// queued is one item waiting for ordered delivery, with its final marker.
type queued[B any] struct {
	item  B
	final bool
}

// Ordered is the ordered-delivery core under every streaming pipeline of
// this repository — the edge batches of Stream and the finished byte
// blocks of the job runner's shard sink are both its items. It executes
// produce for every pe in [first, first+count) on at most workers
// goroutines (0 selects GOMAXPROCS) and hands what the producers send to
// consume in increasing PE order and, within a PE, in send order,
// whatever the worker count or completion order.
//
// A producer passes each finished item to send and ends with exactly one
// send marked final (a PE with nothing to deliver sends only that). send
// takes ownership of the item and returns false once the run has failed:
// the producer may then stop early, but still owes its final send. Every
// item sent is passed to release exactly once — after consume returned,
// or instead of consume when the run failed first — so a caller that
// recycles items never loses one. worker identifies the calling goroutine
// in [0, workers), stable for the whole run, so producers can keep
// per-goroutine state without locking.
//
// The head PE's items are delivered as they are sent, while that PE is
// still producing; a producer ahead of the head queues at most
// maxQueuedBatches items and then blocks until the head catches up, and
// at most window = 2*workers PEs are admitted beyond the head, so the
// items in flight are bounded by window*maxQueuedBatches plus one per
// worker, never by what a PE produces.
//
// consume runs on whichever worker owns the delivery head (with one
// worker: inside send); calls never overlap. The first error it returns
// stops the run: nothing further is delivered, no further PE is started,
// and the error is returned. A PE whose produce is already running
// completes, with its output released undelivered.
func Ordered[B any](first, count, workers int,
	produce func(worker, pe int, send func(item B, final bool) bool),
	consume func(pe int, item B, final bool) error,
	release func(item B)) error {
	if count <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > count {
		workers = count
	}

	if workers <= 1 {
		// One worker: the producer delivers its own items in place.
		var err error
		for pe := first; pe < first+count && err == nil; pe++ {
			produce(0, pe, func(item B, final bool) bool {
				if err == nil {
					err = consume(pe, item, final)
				}
				release(item)
				return err == nil
			})
		}
		return err
	}

	var (
		mu         sync.Mutex
		cond       = sync.NewCond(&mu)
		next, head int // relative to first
		queues     = make(map[int][]queued[B])
		delivering bool
		firstErr   error
	)
	window := 2 * workers

	// drain delivers every queued item at the delivery head, advancing
	// the head across completed PEs. Called with mu held; only one worker
	// delivers at a time, and the mutex is released around the consume
	// call so the other workers keep producing.
	drain := func() {
		if delivering {
			return
		}
		delivering = true
		for firstErr == nil {
			q := queues[head]
			if len(q) == 0 {
				break
			}
			e := q[0]
			if len(q) == 1 {
				delete(queues, head)
			} else {
				queues[head] = q[1:]
			}
			h := head
			if e.final {
				head++
			}
			mu.Unlock()
			err := consume(first+h, e.item, e.final)
			release(e.item)
			mu.Lock()
			if err != nil && firstErr == nil {
				firstErr = err
			}
			cond.Broadcast()
		}
		delivering = false
	}

	// flush queues one item for delivery. A producer running too far
	// ahead of the delivery waits here: non-head PEs until the head
	// catches up, the head PE only while another worker owns the drain
	// loop (the drainer broadcasts after every consume and exits only on
	// an empty queue, so the wait always makes progress — and keeps
	// queues[head] bounded even against a sink slower than the producer).
	// A head producer with no active drainer never waits; it delivers its
	// own backlog via drain.
	flush := func(pe int, item B, final bool) bool {
		mu.Lock()
		for firstErr == nil && (pe != head || delivering) && len(queues[pe]) >= maxQueuedBatches {
			cond.Wait()
		}
		if firstErr != nil {
			mu.Unlock()
			release(item)
			return false
		}
		queues[pe] = append(queues[pe], queued[B]{item: item, final: final})
		if pe == head {
			drain()
		}
		live := firstErr == nil
		mu.Unlock()
		return live
	}

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				for firstErr == nil && next < count && next >= head+window {
					cond.Wait()
				}
				if firstErr != nil || next >= count {
					mu.Unlock()
					return
				}
				pe := next
				next++
				mu.Unlock()

				produce(w, first+pe, func(item B, final bool) bool {
					return flush(pe, item, final)
				})
			}
		}()
	}
	wg.Wait()

	// After an aborted run, release whatever was queued but never
	// delivered so no item is lost to its owner.
	for pe, q := range queues {
		for _, e := range q {
			release(e.item)
		}
		delete(queues, pe)
	}
	return firstErr
}

// batchPool hands out fixed-capacity batches backed by a sync.Pool and
// keeps a borrow count so the tests can verify that aborted runs return
// every batch.
type batchPool[T any] struct {
	pool     sync.Pool
	size     int
	borrowed atomic.Int64
}

func newBatchPool[T any](size int) *batchPool[T] {
	p := &batchPool[T]{size: size}
	p.pool.New = func() any {
		s := make([]T, 0, size)
		return &s
	}
	return p
}

func (p *batchPool[T]) get() *[]T {
	p.borrowed.Add(1)
	b := p.pool.Get().(*[]T)
	*b = (*b)[:0]
	return b
}

func (p *batchPool[T]) put(b *[]T) {
	if b == nil {
		return
	}
	p.borrowed.Add(-1)
	p.pool.Put(b)
}
