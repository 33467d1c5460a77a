// Package kagen is a Go reproduction of the communication-free massively
// distributed graph generators of Funke, Lamm, Meyer, Penschuck, Sanders,
// Schulz, Strash and von Looz ("Communication-free Massively Distributed
// Graph Generation", IPDPS 2018) — the KaGen library.
//
// Every generator divides its work into chunks owned by logical processing
// entities (PEs). A PE derives every random decision from a hash of a
// structural identifier (chunk, cell, recursion subtree), so redundant
// recomputation replaces communication: the output is a pure function of
// (seed, PEs) and in particular independent of how many worker goroutines
// execute the PEs.
//
// Supported models: Erdős–Rényi G(n,m) and G(n,p) (directed/undirected),
// random geometric graphs (2-D/3-D), random Delaunay graphs (2-D/3-D,
// periodic), random hyperbolic graphs (in-memory RHG and streaming sRHG),
// Barabási–Albert preferential attachment, and R-MAT.
//
// Undirected generators emit each edge once per endpoint: the merged edge
// list contains both orientations of every edge (2m entries), partitioned
// by the owning PE — the convention of the original library.
package kagen

import (
	"repro/internal/graph"
	"repro/internal/rgg"
	"repro/internal/rhg"
)

// Edge is a directed edge (U, V); see the package comment for the
// undirected convention.
type Edge = graph.Edge

// EdgeList is a list of edges over vertices [0, N).
type EdgeList = graph.EdgeList

// Stats summarizes a generated instance.
type Stats = graph.Stats

// Options control how a generator executes.
type Options struct {
	// Seed selects the instance; the same seed and PEs always produce the
	// same graph.
	Seed uint64
	// PEs is the number of logical processing entities (chunks). It is
	// part of the instance definition for most models. 0 means 1.
	PEs uint64
	// Workers bounds the goroutines executing the PEs; 0 uses GOMAXPROCS.
	// Workers never affects the generated graph.
	Workers int
}

func (o Options) pes() uint64 {
	if o.PEs == 0 {
		return 1
	}
	return o.PEs
}

// Generator produces a graph instance, as a whole, chunk by chunk, or
// streamed.
type Generator interface {
	Streamer
	// Generate runs all logical PEs and merges their local edge lists.
	Generate() (*EdgeList, error)
	// Chunk returns the local edges of one logical PE.
	Chunk(pe uint64) ([]Edge, error)
}

// The one-shot helpers below take every parameter explicitly, so none of
// New's defaults apply: RGG2D(n, 0, opt) is an invalid radius, not the
// connectivity radius.

// generate runs a model on exactly the given parameters.
func generate(model Model, p ModelParams, opt Options) (*EdgeList, error) {
	d, err := lookup(model)
	if err != nil {
		return nil, err
	}
	return d.generator(p, opt).Generate()
}

func pick(directed bool, d, u Model) Model {
	if directed {
		return d
	}
	return u
}

// GNM generates an Erdős–Rényi G(n,m) instance: a graph drawn uniformly
// from all graphs with n vertices and m edges (§4).
func GNM(n, m uint64, directed bool, opt Options) (*EdgeList, error) {
	return generate(pick(directed, ModelGNMDirected, ModelGNMUndirected), ModelParams{N: n, M: m}, opt)
}

// GNP generates a Gilbert G(n,p) instance: every possible edge exists
// independently with probability p (§4.3).
func GNP(n uint64, p float64, directed bool, opt Options) (*EdgeList, error) {
	return generate(pick(directed, ModelGNPDirected, ModelGNPUndirected), ModelParams{N: n, P: p}, opt)
}

// RGG2D generates a two-dimensional random geometric graph: n points
// uniform in the unit square, an edge between every pair at Euclidean
// distance at most r (§5).
func RGG2D(n uint64, r float64, opt Options) (*EdgeList, error) {
	return generate(ModelRGG2D, ModelParams{N: n, R: r}, opt)
}

// RGG3D generates a three-dimensional random geometric graph.
func RGG3D(n uint64, r float64, opt Options) (*EdgeList, error) {
	return generate(ModelRGG3D, ModelParams{N: n, R: r}, opt)
}

// RGGConnectivityRadius returns the radius 0.55*(ln n / n)^(1/dim) used
// throughout the paper's experiments; it keeps the RGG connected w.h.p.
func RGGConnectivityRadius(n uint64, dim int) float64 {
	return rgg.ConnectivityRadius(n, dim)
}

// RDG2D generates a two-dimensional random Delaunay graph with periodic
// boundary conditions: the Delaunay triangulation of n uniform points on
// the unit torus (§6).
func RDG2D(n uint64, opt Options) (*EdgeList, error) {
	return generate(ModelRDG2D, ModelParams{N: n}, opt)
}

// RDG3D generates a three-dimensional periodic random Delaunay graph.
func RDG3D(n uint64, opt Options) (*EdgeList, error) {
	return generate(ModelRDG3D, ModelParams{N: n}, opt)
}

// RHG generates an in-memory random hyperbolic graph (§7.1): n points on a
// hyperbolic disk, power-law degree exponent gamma (> 2) and target
// average degree avgDeg.
func RHG(n uint64, avgDeg, gamma float64, opt Options) (*EdgeList, error) {
	return generate(ModelRHG, ModelParams{N: n, AvgDeg: avgDeg, Gamma: gamma}, opt)
}

// RHGOutward generates a random hyperbolic graph with outward-only
// queries (§8.6): each edge appears exactly once (m entries instead of
// 2m), the output is not partitioned by vertex ownership, and the
// expensive inward recomputation of high-degree vertices is skipped.
func RHGOutward(n uint64, avgDeg, gamma float64, opt Options) (*EdgeList, error) {
	p := rhg.Params{N: n, AvgDeg: avgDeg, Gamma: gamma, Seed: opt.Seed,
		Chunks: opt.pes(), OutwardOnly: true}
	g := &generator{instance: bindPkg(p, rhg.StreamChunk), n: n, pes: opt.pes(), workers: opt.Workers}
	return g.Generate()
}

// SRHG generates a streaming random hyperbolic graph (§7.2): same model as
// RHG, processed by a sweep-line with request tokens, with far better load
// balancing and memory behaviour at scale.
func SRHG(n uint64, avgDeg, gamma float64, opt Options) (*EdgeList, error) {
	return generate(ModelSRHG, ModelParams{N: n, AvgDeg: avgDeg, Gamma: gamma}, opt)
}

// BA generates a Barabási–Albert preferential-attachment graph
// (Sanders–Schulz algorithm, §3.5.1): each new vertex attaches d edges to
// earlier vertices with probability proportional to their degree (n*d
// directed attachment edges).
func BA(n, d uint64, opt Options) (*EdgeList, error) {
	return generate(ModelBA, ModelParams{N: n, D: d}, opt)
}

// RMAT generates an R-MAT graph with Graph 500 default quadrant
// probabilities (0.57, 0.19, 0.19, 0.05): 2^scale vertices, m edges
// (§3.5.2). Duplicate edges and self-loops are permitted, as in the
// Graph 500 reference.
func RMAT(scale uint, m uint64, opt Options) (*EdgeList, error) {
	return generate(ModelRMAT, ModelParams{Scale: scale, M: m}, opt)
}

// SBM generates a communication-free stochastic block model graph with
// the planted-partition parameterization: `blocks` equal communities over
// n vertices, intra-community edge probability pIn and inter-community
// probability pOut. The paper's conclusion names this model as the first
// target for extending the communication-free paradigm; the construction
// generalizes the undirected G(n,p) chunk matrix (see internal/sbm).
func SBM(n uint64, blocks int, pIn, pOut float64, opt Options) (*EdgeList, error) {
	return generate(ModelSBM, ModelParams{N: n, Blocks: blocks, PIn: pIn, POut: pOut}, opt)
}

// ComputeStats summarizes an edge list.
func ComputeStats(e *EdgeList) Stats { return graph.ComputeStats(e) }

// OutDegrees returns per-vertex out-degrees.
func OutDegrees(e *EdgeList) []uint64 { return graph.OutDegrees(e) }

// DegreeHistogram returns hist[d] = number of vertices with out-degree d.
func DegreeHistogram(e *EdgeList) []uint64 { return graph.DegreeHistogram(e) }

// PowerLawExponentMLE estimates the power-law exponent of a degree
// sequence with cutoff dmin.
func PowerLawExponentMLE(degrees []uint64, dmin uint64) float64 {
	return graph.PowerLawExponentMLE(degrees, dmin)
}

// BFSDistances returns hop distances from root over the undirected
// interpretation of the edge list (-1 for unreachable vertices) together
// with the number of reached vertices.
func BFSDistances(e *EdgeList, root uint64) ([]int32, int) {
	return graph.BFSDistances(e, root)
}

// EffectiveDiameter returns the 90th-percentile BFS distance from root.
func EffectiveDiameter(e *EdgeList, root uint64) int32 {
	return graph.EffectiveDiameter(e, root)
}

// DegreeAssortativity returns Newman's degree assortativity coefficient.
func DegreeAssortativity(e *EdgeList) float64 {
	return graph.DegreeAssortativity(e)
}

// LabelPropagation runs the label-propagation community-detection
// heuristic for at most maxRounds sweeps and returns per-vertex labels.
func LabelPropagation(e *EdgeList, maxRounds int) []uint64 {
	return graph.LabelPropagation(e, maxRounds, 0)
}

// RandIndexSample estimates the Rand index (pair-counting agreement)
// between a clustering and a ground truth by sampling vertex pairs.
func RandIndexSample(labels, truth []uint64, samples int) float64 {
	return graph.RandIndexSample(labels, truth, samples, 0)
}

// GlobalClusteringCoefficient computes 3*triangles/wedges on the simple
// undirected graph induced by the edge list (intended for small graphs).
func GlobalClusteringCoefficient(e *EdgeList) float64 {
	return graph.GlobalClusteringCoefficient(e)
}
