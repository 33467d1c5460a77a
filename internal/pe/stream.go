package pe

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultBatchSize is Stream's default batch capacity: 4096 items keeps
// a batch of 16-byte edges at 64 KiB — large enough to amortize the
// per-batch synchronization to noise, small enough that the pipeline's
// buffered footprint stays tiny compared to whole chunks.
const DefaultBatchSize = 4096

// QueueBudget bounds the items queued behind the delivery head, counted
// over every PE of one Ordered run. Each item that carries bytes across
// Ordered in this repository is 64 KiB — a job block, or a Stream batch of
// DefaultBatchSize 16-byte edges (Verify's one result per chunk is
// smaller) — so the budget is 64 MiB: a chunk of that size or less runs
// ahead of the head to its end, and only once the whole pipeline holds
// the budget does a producer ahead of the head wait.
const QueueBudget = 1024

// Stream executes produce for every pe in [first, first+count) on a
// bounded worker pool and hands the items it produces to consume in
// batches of at most batchSize items (0 or negative selects
// DefaultBatchSize) — in increasing PE order, and within each PE in
// production order, regardless of the worker count or the completion
// order. It is the parallel streaming runtime: generation runs
// concurrently into pooled batches while the sink observes the same
// deterministic item sequence a serial run would produce. Batch boundaries
// carry no meaning: the delivered concatenation is invariant under the
// batch size. produce and consume receive absolute PE indices, so a worker
// restarted mid-run re-enters at its checkpointed PE (or a PE at its
// checkpointed chunk, when chunks are the streamed unit) and streams only
// the remaining range, the delivered sequence identical to the
// corresponding suffix of a full run.
//
// produce fills the batches itself. It receives its goroutine's index in
// [0, workers) (stable for the run, so per-goroutine state needs no lock),
// the PE, an empty batch of capacity batchSize, and flush: flush takes a
// full batch and returns the next empty one, and whether the run is still
// live — after false it drops what it is given, and produce may stop
// early. produce returns its last, possibly empty, batch, which is the
// PE's final one.
//
// consume receives each PE's batches in order; final marks the PE's last
// batch (a PE with no items gets exactly one final, empty batch). Batches
// are drawn from a sync.Pool and recycled after consume returns, so
// steady-state streaming performs no allocation; a batch is only valid
// during the consume call.
//
// The head PE's batches are flushed as they fill — while the chunk is
// still generating — and the batches queued behind the head share one
// budget (Ordered), so the pipeline buffers at most QueueBudget + workers
// batches, not the largest chunk. At most 2*workers chunks are admitted
// beyond the delivery head.
//
// consume runs on whichever worker owns the delivery head; calls never
// overlap. The first error returned by consume stops the run: no further
// batches are delivered, no further chunks are started, and the error is
// returned. A PE whose produce is already running completes, with its
// output discarded.
//
// Edge streams no longer run on Stream: the job's chunk encoders drive
// Ordered directly, for shards and plain streams alike. Its one caller
// outside tests is kagen.StreamChunksFrom, for bench/'s batch hand-off
// replay; it goes, with batchPool, once that replays through EmitChunk.
func Stream[T any](first, count, workers, batchSize int,
	produce func(worker, pe int, batch []T, flush func(full []T) (next []T, live bool)) (last []T),
	consume func(pe int, batch []T, final bool) error) error {
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	return streamRange(first, count, workers, newBatchPool[T](batchSize), produce, consume)
}

// streamRange is the batch pipeline, against an explicit pool (separated
// so the tests can audit that every borrowed batch is returned): Ordered
// with pooled item batches as the delivered unit.
func streamRange[T any](first, count, workers int, pool *batchPool[T],
	produce func(worker, pe int, batch []T, flush func(full []T) (next []T, live bool)) (last []T),
	consume func(pe int, batch []T, final bool) error) error {
	return Ordered(first, count, workers,
		func(w, pe int, send func(*[]T, bool) bool) {
			pb := pool.get()
			live := true
			flush := func(full []T) ([]T, bool) {
				if !live {
					return full[:0], false // sink already failed; drop
				}
				*pb = full
				live = send(pb, false)
				pb = pool.get()
				return *pb, live
			}
			*pb = produce(w, pe, *pb, flush)
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
// this repository — the byte blocks of the job's chunk encoders (shards,
// plain streams) and of Merge, Verify's checks, and the edge batches of
// Stream are all its items. It executes
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
// still producing. The items queued behind the head share one budget of
// QueueBudget, whatever PEs they belong to: a producer ahead of the head
// queues freely until the whole pipeline holds the budget, and then waits
// until the head drains it. The head itself waits only while another
// worker is delivering its items, which always makes progress. At most
// 2*workers PEs are admitted beyond the head, so the items in flight are
// bounded by QueueBudget plus one per worker, never by what a PE produces.
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
	return ordered(first, count, workers, QueueBudget, produce, consume, release)
}

// ordered is Ordered with the queue budget as a parameter, so the tests
// can make it bind with a few items.
func ordered[B any](first, count, workers, budget int,
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
		nQueued    int // items in queues, over all PEs
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
			nQueued--
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

	// flush queues one item for delivery. Once the queues hold the
	// budget, a producer waits here: non-head PEs until the head drains
	// the queues below it, the head PE only while another worker owns the
	// drain loop (the drainer broadcasts after every consume and exits only
	// on an empty queue, so the wait always makes progress — and keeps
	// queues[head] within the budget even against a sink slower than the
	// producer). A head producer with no active drainer never waits; it
	// delivers its own backlog via drain.
	flush := func(pe int, item B, final bool) bool {
		mu.Lock()
		for firstErr == nil && (pe != head || delivering) && nQueued >= budget {
			cond.Wait()
		}
		if firstErr != nil {
			mu.Unlock()
			release(item)
			return false
		}
		queues[pe] = append(queues[pe], queued[B]{item: item, final: final})
		nQueued++
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
