package kagen

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/ba"
	"repro/internal/gnm"
	"repro/internal/gnp"
	"repro/internal/graph"
	"repro/internal/pe"
	"repro/internal/rdg"
	"repro/internal/rgg"
	"repro/internal/rmat"
	"repro/internal/sbm"
	"repro/internal/srhg"
)

// Streamer generates a chunk's edges through a callback without
// materializing them, enabling generation of graphs larger than memory —
// the "full streaming approach" the paper names as the way past the
// per-core memory limit of its experiments (§8.2, §9). The edge order
// within a chunk is deterministic and identical to the corresponding
// Generator's Chunk output.
//
// Every model streams except the in-memory RHG, which remains
// materialize-only because sRHG supersedes it for streaming (see
// AsStreamer). The sampling-stream models (G(n,m), G(n,p), SBM, BA,
// R-MAT) emit edges straight from their per-chunk sample streams — the
// undirected ER variants and SBM walk their triangular chunk row pair by
// pair, deriving each pair's count on demand, so no per-pair buffering
// remains; the spatial models (RGG, RDG) emit neighborhood edges cell by
// cell while holding only their grid-cell context, and sRHG's annulus
// sweep emits edges as node tokens meet active requests, holding only the
// sweep state.
//
// Use Stream to run all PEs of a Streamer on a worker pool and deliver the
// chunks to a Sink in deterministic PE order.
type Streamer interface {
	// StreamChunk calls emit for every local edge of the logical PE.
	StreamChunk(pe uint64, emit func(Edge)) error
	// PEs returns the number of logical PEs.
	PEs() uint64
	// N returns the number of vertices of the instance.
	N() uint64
}

// AsStreamer returns the streaming view of a registry Generator. It
// reports false for the single materialize-only model: the in-memory RHG,
// which sRHG supersedes for streaming.
func AsStreamer(g Generator) (Streamer, bool) {
	switch t := g.(type) {
	case gnmGen:
		return gnmStreamer{t.p}, true
	case gnpGen:
		return gnpStreamer{t.p}, true
	case sbmGen:
		return sbmStreamer{t.p}, true
	case baGen:
		return baStreamer{t.p}, true
	case rmatGen:
		return rmatStreamer{t.g}, true
	case rggGen:
		return rggStreamer{t.p}, true
	case rdgGen:
		return rdgStreamer{t.p}, true
	case srhgGen:
		return srhgStreamer{t.p}, true
	}
	return nil, false
}

func checkPE(pe, pes uint64) error {
	if pe >= pes {
		return fmt.Errorf("kagen: PE %d out of range [0, %d)", pe, pes)
	}
	return nil
}

// NewGNMStreamer returns a streaming G(n,m) generator. The directed
// variant emits each PE's row-partitioned sample stream; the undirected
// variant walks the PE's triangular chunk row, deriving each pair's edge
// count by an O(log P) descent of the splitting recursion, so neither
// buffers anything per pair.
func NewGNMStreamer(n, m uint64, directed bool, opt Options) Streamer {
	return gnmStreamer{gnm.Params{N: n, M: m, Directed: directed, Seed: opt.Seed, Chunks: opt.pes()}}
}

type gnmStreamer struct{ p gnm.Params }

func (g gnmStreamer) PEs() uint64 { return g.p.Chunks }
func (g gnmStreamer) N() uint64   { return g.p.N }

func (g gnmStreamer) StreamChunk(pe uint64, emit func(Edge)) error {
	if err := g.p.Validate(); err != nil {
		return err
	}
	if err := checkPE(pe, g.p.Chunks); err != nil {
		return err
	}
	gnm.StreamChunk(g.p, pe, emit)
	return nil
}

// NewGNPStreamer returns a streaming G(n,p) generator (directed or
// undirected; the undirected variant streams its triangular chunk row
// pair by pair with independent binomial pair counts).
func NewGNPStreamer(n uint64, p float64, directed bool, opt Options) Streamer {
	return gnpStreamer{gnp.Params{N: n, P: p, Directed: directed, Seed: opt.Seed, Chunks: opt.pes()}}
}

type gnpStreamer struct{ p gnp.Params }

func (g gnpStreamer) PEs() uint64 { return g.p.Chunks }
func (g gnpStreamer) N() uint64   { return g.p.N }

func (g gnpStreamer) StreamChunk(pe uint64, emit func(Edge)) error {
	if err := g.p.Validate(); err != nil {
		return err
	}
	if err := checkPE(pe, g.p.Chunks); err != nil {
		return err
	}
	gnp.StreamChunk(g.p, pe, emit)
	return nil
}

// NewSBMStreamer returns a streaming planted-partition stochastic block
// model generator: per-block undirected G(n,p)-style streams composed
// along each PE's triangular chunk row, seeded by the (chunk pair, block
// pair) identity.
func NewSBMStreamer(n uint64, blocks int, pIn, pOut float64, opt Options) Streamer {
	return sbmStreamer{sbm.PlantedPartition(n, blocks, pIn, pOut, opt.Seed, opt.pes())}
}

type sbmStreamer struct{ p sbm.Params }

func (g sbmStreamer) PEs() uint64 { return g.p.Chunks }
func (g sbmStreamer) N() uint64   { return g.p.N() }

func (g sbmStreamer) StreamChunk(pe uint64, emit func(Edge)) error {
	if err := g.p.Validate(); err != nil {
		return err
	}
	if err := checkPE(pe, g.p.Chunks); err != nil {
		return err
	}
	sbm.StreamChunk(g.p, pe, emit)
	return nil
}

// NewBAStreamer returns a streaming Barabási–Albert generator.
func NewBAStreamer(n, d uint64, opt Options) Streamer {
	return baStreamer{ba.Params{N: n, D: d, Seed: opt.Seed, Chunks: opt.pes()}}
}

type baStreamer struct{ p ba.Params }

func (g baStreamer) PEs() uint64 { return g.p.Chunks }
func (g baStreamer) N() uint64   { return g.p.N }

func (g baStreamer) StreamChunk(pe uint64, emit func(Edge)) error {
	if err := g.p.Validate(); err != nil {
		return err
	}
	if err := checkPE(pe, g.p.Chunks); err != nil {
		return err
	}
	ba.StreamChunk(g.p, pe, emit)
	return nil
}

// NewRMATStreamer returns a streaming R-MAT generator.
func NewRMATStreamer(scale uint, m uint64, opt Options) Streamer {
	return rmatStreamer{rmat.NewGenerator(rmat.Params{Scale: scale, M: m, Seed: opt.Seed, Chunks: opt.pes()})}
}

// rmatStreamer shares one rmat.Generator — and so one lazily built set of
// alias tables — between all chunks and goroutines that stream from it.
type rmatStreamer struct{ g *rmat.Generator }

func (g rmatStreamer) PEs() uint64 { return g.g.Params().Chunks }
func (g rmatStreamer) N() uint64   { return g.g.Params().N() }

func (g rmatStreamer) StreamChunk(pe uint64, emit func(Edge)) error {
	return g.g.StreamChunk(pe, emit)
}

// NewRGGStreamer returns a streaming random geometric graph generator in
// dim (2 or 3) dimensions: each PE emits its neighborhood edges cell by
// cell, holding only the memoized points of visited grid cells.
func NewRGGStreamer(n uint64, r float64, dim int, opt Options) Streamer {
	return rggStreamer{rgg.Params{N: n, R: r, Dim: dim, Seed: opt.Seed, Chunks: opt.pes()}}
}

type rggStreamer struct{ p rgg.Params }

func (g rggStreamer) PEs() uint64 { return g.p.Chunks }
func (g rggStreamer) N() uint64   { return g.p.N }

func (g rggStreamer) StreamChunk(pe uint64, emit func(Edge)) error {
	if err := g.p.Validate(); err != nil {
		return err
	}
	if err := checkPE(pe, g.p.Chunks); err != nil {
		return err
	}
	rgg.StreamChunk(g.p, pe, emit)
	return nil
}

// NewRDGStreamer returns a streaming random Delaunay graph generator in
// dim (2 or 3) dimensions: each PE triangulates one chunk at a time and
// emits the simplex-derived edges before the next chunk's triangulation
// is built.
func NewRDGStreamer(n uint64, dim int, opt Options) Streamer {
	return rdgStreamer{rdg.Params{N: n, Dim: dim, Seed: opt.Seed, Chunks: opt.pes()}}
}

type rdgStreamer struct{ p rdg.Params }

func (g rdgStreamer) PEs() uint64 { return g.p.Chunks }
func (g rdgStreamer) N() uint64   { return g.p.N }

func (g rdgStreamer) StreamChunk(pe uint64, emit func(Edge)) error {
	if err := g.p.Validate(); err != nil {
		return err
	}
	if err := checkPE(pe, g.p.Chunks); err != nil {
		return err
	}
	rdg.StreamChunk(g.p, pe, emit)
	return nil
}

// NewSRHGStreamer returns a streaming random hyperbolic graph generator:
// the sRHG annulus sweep emits edges as soon as a node token meets an
// active request, holding only the sweep state of the PE's sector.
func NewSRHGStreamer(n uint64, avgDeg, gamma float64, opt Options) Streamer {
	return srhgStreamer{srhg.Params{N: n, AvgDeg: avgDeg, Gamma: gamma, Seed: opt.Seed, Chunks: opt.pes()}}
}

type srhgStreamer struct{ p srhg.Params }

func (g srhgStreamer) PEs() uint64 { return g.p.Chunks }
func (g srhgStreamer) N() uint64   { return g.p.N }

func (g srhgStreamer) StreamChunk(pe uint64, emit func(Edge)) error {
	if err := g.p.Validate(); err != nil {
		return err
	}
	if err := checkPE(pe, g.p.Chunks); err != nil {
		return err
	}
	srhg.StreamChunk(g.p, pe, emit)
	return nil
}

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
		var mu sync.Mutex
		var chunkErr error
		err = pe.StreamRangeBatched(int(first), int(count), workers, batchSize, func(peID int, emit func(graph.Edge)) {
			if e := s.StreamChunk(uint64(peID), emit); e != nil {
				mu.Lock()
				if chunkErr == nil {
					chunkErr = e
				}
				mu.Unlock()
			}
		}, func(peID int, batch []graph.Edge, final bool) error {
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

// Compile-time interface checks.
var (
	_ Streamer = gnmStreamer{}
	_ Streamer = gnpStreamer{}
	_ Streamer = sbmStreamer{}
	_ Streamer = baStreamer{}
	_ Streamer = rmatStreamer{}
	_ Streamer = rggStreamer{}
	_ Streamer = rdgStreamer{}
	_ Streamer = srhgStreamer{}
)
