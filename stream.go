package kagen

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/pe"
)

// Streamer generates a chunk's edges through a callback without
// materializing them, enabling generation of graphs larger than memory —
// the "full streaming approach" the paper names as the way past the
// per-core memory limit of its experiments (§8.2, §9). The edge order
// within a chunk is deterministic and identical to the corresponding
// Generator's Chunk output.
//
// Every model streams; every Generator is a Streamer. The sampling-stream
// models (G(n,m), G(n,p), SBM, BA, R-MAT) emit edges straight from their
// per-chunk sample streams — the undirected ER variants and SBM walk their
// triangular chunk row pair by pair, deriving each pair's count on demand,
// so no per-pair buffering remains; the spatial models (RGG, RDG) emit
// neighborhood edges cell by cell while holding only their grid-cell
// context, and sRHG's annulus sweep emits edges as node tokens meet active
// requests, holding only the sweep state. The in-memory RHG alone holds
// its whole sector's points while it emits; sRHG is its memory-bounded
// counterpart.
//
// Use Stream to run all PEs of a Streamer on a worker pool and deliver the
// chunks to a Sink in deterministic PE order.
type Streamer interface {
	// EmitChunk appends every local edge of the logical PE to e — the
	// generator packages' own contract, which the pipelines drive with
	// one reused Emitter per goroutine — and adds the chunk's work to
	// e's counters.
	EmitChunk(pe uint64, e *Emitter) error
	// StreamChunk calls emit for every local edge of the logical PE: the
	// per-edge form of EmitChunk, fed from a small batch.
	StreamChunk(pe uint64, emit func(Edge)) error
	// PEs returns the number of logical PEs.
	PEs() uint64
	// N returns the number of vertices of the instance.
	N() uint64
}

// Emitter is the batch every generator streams a chunk into; see
// EmitChunk. The zero Emitter collects the whole chunk.
type Emitter = core.Emitter

// Stream runs every PE of s concurrently on at most `workers` goroutines
// (0 selects GOMAXPROCS) and writes the edge stream to sink: Begin once,
// then per PE — in increasing PE order, identical for every worker count —
// zero or more Batch calls followed by one EndPE call, then Close. The
// head PE's batches reach the sink while that chunk is still generating,
// so the pipeline buffers a bounded number of fixed-size batches instead
// of whole chunks (see pe.Stream). Close is called even when a chunk or
// sink error aborts the run; the first error is returned. A chunk that
// fails to generate aborts the run, but batches it emitted before failing
// may already have reached the sink (the registry models validate their
// parameters before emitting anything, so their failures produce no
// partial output).
func Stream(s Streamer, workers int, sink Sink) error {
	return StreamBatched(s, workers, pe.DefaultBatchSize, sink)
}

// StreamBatched is Stream with an explicit edge-batch capacity (0 selects
// pe.DefaultBatchSize). The edge sequence the sink observes is identical
// for every batch size; only the Batch call boundaries move.
func StreamBatched(s Streamer, workers, batchSize int, sink Sink) error {
	return StreamChunksFrom(s, 0, s.PEs(), workers, batchSize, sink)
}

// StreamChunksFrom is the resumable entry point of the streaming stack:
// it streams only the chunk range [first, first+count) of s to sink, with
// the same per-PE call protocol and the same deterministic order as a
// full run restricted to that range. Because every chunk derives its
// random decisions from (seed, chunk identity) alone, starting at an
// arbitrary chunk costs only the model's O(log P) per-chunk setup — no
// replay of earlier chunks — which is what makes chunk-granular
// checkpoint/resume practical (see internal/job). Begin still announces
// the full instance (N, PEs); Close is called exactly once, also on
// abort.
func StreamChunksFrom(s Streamer, first, count uint64, workers, batchSize int, sink Sink) error {
	P := s.PEs()
	if first > P || count > P-first {
		err := fmt.Errorf("kagen: chunk range [%d, %d) outside [0, %d)", first, first+count, P)
		if cerr := sink.Close(); cerr != nil {
			err = errors.Join(err, cerr)
		}
		return err
	}
	err := sink.Begin(s.N(), P)
	if err == nil {
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		// One Emitter per pipeline goroutine for the run, so a generator's
		// scratch carries over from chunk to chunk.
		ems := make([]Emitter, workers)
		var mu sync.Mutex
		var chunkErr error
		err = pe.Stream(int(first), int(count), workers, batchSize, func(w, peID int, batch []Edge, flush func([]Edge) ([]Edge, bool)) []Edge {
			e := &ems[w]
			e.Reset(batch, flush)
			if err := s.EmitChunk(uint64(peID), e); err != nil {
				mu.Lock()
				if chunkErr == nil {
					chunkErr = err
				}
				mu.Unlock()
			}
			return e.Edges()
		}, func(peID int, batch []Edge, final bool) error {
			mu.Lock()
			e := chunkErr
			mu.Unlock()
			if e != nil {
				return e // abort delivery once a chunk failed to generate
			}
			if len(batch) > 0 {
				if err := sink.Batch(uint64(peID), batch); err != nil {
					return err
				}
			}
			if final {
				return sink.EndPE(uint64(peID))
			}
			return nil
		})
		if err == nil {
			err = chunkErr
		}
	}
	if cerr := sink.Close(); err == nil {
		err = cerr
	}
	return err
}
