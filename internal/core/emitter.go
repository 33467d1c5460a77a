package core

import (
	"repro/internal/graph"
	"repro/internal/pe"
)

// Work counts what generating a chunk cost beyond its edges: the
// recomputation the paper's weak-scaling discussion attributes cost to.
type Work struct {
	// RedundantVertices counts vertices the PE generated that belong to
	// another PE (ghost cells, recomputed chunks, the replicated core).
	RedundantVertices uint64
	// Comparisons counts candidate distance evaluations (RGG, RHG, sRHG)
	// or halo expansions (RDG).
	Comparisons uint64
}

// Emitter is the one output contract of every generator package:
// StreamChunk(p, pe, *Emitter) appends the chunk's edges, in their
// deterministic order, into a batch the caller owns, and adds its work to
// the counters.
//
// Whenever the batch is full, Append hands it to the flush function the
// Emitter was made with, which consumes it and returns the batch to fill
// next. An Emitter without a flush function collects: the batch simply
// grows, and Edges returns the whole chunk. The zero Emitter collects.
//
// An Emitter and its Scratch belong to one goroutine at a time. Owners
// that generate many chunks keep one Emitter per goroutine for their
// lifetime, so a generator's scratch state survives from chunk to chunk
// instead of being rebuilt for each.
type Emitter struct {
	Work
	// Scratch is the generator package's: state it may keep between the
	// chunks streamed into this Emitter (the spatial models' cell arena).
	// A package checks that what it finds is its own before reusing it,
	// and nothing else reads it.
	Scratch any

	batch  []graph.Edge
	flush  func(full []graph.Edge) (next []graph.Edge, live bool)
	failed bool
}

// NewEmitter returns an Emitter that fills batch and passes it to flush
// whenever it is full. flush reports false once the run it feeds has
// failed; nil flush makes a collecting Emitter.
func NewEmitter(batch []graph.Edge, flush func(full []graph.Edge) (next []graph.Edge, live bool)) *Emitter {
	e := new(Emitter)
	e.Reset(batch, flush)
	return e
}

// Reset readies the Emitter for the next chunk: counters zeroed, the run
// live, batch (emptied) as the one to fill and flush as its consumer.
// Scratch is kept.
func (e *Emitter) Reset(batch []graph.Edge, flush func(full []graph.Edge) (next []graph.Edge, live bool)) {
	e.Work, e.failed, e.batch, e.flush = Work{}, false, batch[:0], flush
}

// Append adds the edge (u, v) to the batch, flushing it when full.
func (e *Emitter) Append(u, v uint64) {
	e.batch = append(e.batch, graph.Edge{U: u, V: v})
	if len(e.batch) == cap(e.batch) {
		e.Flush()
	}
}

// Flush hands the batch's edges to the owner and reports whether the run
// is still live. After it reports false the owner drops what it is given;
// a generator may stop early, but need not.
func (e *Emitter) Flush() bool {
	if e.flush != nil && len(e.batch) > 0 {
		next, live := e.flush(e.batch)
		e.batch = next[:0]
		e.failed = e.failed || !live
	}
	return !e.failed
}

// Edges returns the edges appended since the last flush: for a collecting
// Emitter, the whole chunk.
func (e *Emitter) Edges() []graph.Edge { return e.batch }

// Collect streams one chunk into a collecting Emitter and returns its
// edges and work.
func Collect(stream func(*Emitter)) ([]graph.Edge, Work) {
	var e Emitter
	stream(&e)
	return e.batch, e.Work
}

// Generate collects every PE of [0, P) on at most workers goroutines (0
// selects GOMAXPROCS) and merges the chunks in PE order into a graph on n
// vertices.
func Generate(n, P uint64, workers int, stream func(pe uint64, e *Emitter)) *graph.EdgeList {
	parts := pe.ForEach(int(P), workers, func(i int) []graph.Edge {
		edges, _ := Collect(func(e *Emitter) { stream(uint64(i), e) })
		return edges
	})
	return graph.Merge(n, parts...)
}
