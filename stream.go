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
// internal/job's Stream runs all PEs of a Streamer on a worker pool and
// writes them, in PE order, as one edge-list stream; a job writes them as
// checkpointed shards.
type Streamer interface {
	// EmitChunk appends every local edge of the logical PE to e — the
	// generator packages' own contract, which the pipelines drive with
	// one reused Emitter per goroutine — and adds the chunk's work to
	// e's counters.
	EmitChunk(pe uint64, e *Emitter) error
	// StreamChunk calls emit for every local edge of the logical PE: the
	// per-edge form of EmitChunk, fed from a small batch. Outside tests
	// only bench/'s generator replay calls it; it goes once that calls
	// EmitChunk.
	StreamChunk(pe uint64, emit func(Edge)) error
	// PEs returns the number of logical PEs.
	PEs() uint64
	// N returns the number of vertices of the instance.
	N() uint64
}

// Emitter is the batch every generator streams a chunk into; see
// EmitChunk. The zero Emitter collects the whole chunk.
type Emitter = core.Emitter

// StreamChunksFrom streams the chunk range [first, first+count) of s to
// sink in batches of batchSize edges (0 = pe.DefaultBatchSize) through
// pe.Stream, with the Sink call protocol and the same deterministic order
// as a full run restricted to that range. Because every chunk derives its
// random decisions from (seed, chunk identity) alone, starting at an
// arbitrary chunk costs only the model's O(log P) per-chunk setup. Begin
// still announces the full instance (N, PEs); Close is called exactly
// once, also on abort.
//
// Outside tests only bench/'s batch hand-off replay calls it; see Sink.
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
