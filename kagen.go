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
	"fmt"

	"repro/internal/ba"
	"repro/internal/gnm"
	"repro/internal/gnp"
	"repro/internal/graph"
	"repro/internal/rdg"
	"repro/internal/rgg"
	"repro/internal/rhg"
	"repro/internal/rmat"
	"repro/internal/sbm"
	"repro/internal/srhg"
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

// Generator produces a graph instance, as a whole or chunk by chunk.
type Generator interface {
	// Generate runs all logical PEs and merges their local edge lists.
	Generate() (*EdgeList, error)
	// Chunk returns the local edges of one logical PE.
	Chunk(pe uint64) ([]Edge, error)
	// PEs returns the number of logical PEs.
	PEs() uint64
}

// --- G(n,m) ---

type gnmGen struct {
	p   gnm.Params
	opt Options
}

// NewGNM returns a generator for the Erdős–Rényi G(n,m) model: a graph
// drawn uniformly from all graphs with n vertices and m edges (§4).
func NewGNM(n, m uint64, directed bool, opt Options) Generator {
	return gnmGen{gnm.Params{N: n, M: m, Directed: directed, Seed: opt.Seed, Chunks: opt.pes()}, opt}
}

func (g gnmGen) Generate() (*EdgeList, error) { return gnm.Generate(g.p, g.opt.Workers) }
func (g gnmGen) PEs() uint64                  { return g.p.Chunks }
func (g gnmGen) Chunk(pe uint64) ([]Edge, error) {
	if err := g.p.Validate(); err != nil {
		return nil, err
	}
	return gnm.GenerateChunk(g.p, pe), nil
}

// GNM generates a uniform G(n,m) instance.
func GNM(n, m uint64, directed bool, opt Options) (*EdgeList, error) {
	return NewGNM(n, m, directed, opt).Generate()
}

// --- G(n,p) ---

type gnpGen struct {
	p   gnp.Params
	opt Options
}

// NewGNP returns a generator for the Gilbert G(n,p) model: every possible
// edge exists independently with probability p (§4.3).
func NewGNP(n uint64, p float64, directed bool, opt Options) Generator {
	return gnpGen{gnp.Params{N: n, P: p, Directed: directed, Seed: opt.Seed, Chunks: opt.pes()}, opt}
}

func (g gnpGen) Generate() (*EdgeList, error) { return gnp.Generate(g.p, g.opt.Workers) }
func (g gnpGen) PEs() uint64                  { return g.p.Chunks }
func (g gnpGen) Chunk(pe uint64) ([]Edge, error) {
	if err := g.p.Validate(); err != nil {
		return nil, err
	}
	return gnp.GenerateChunk(g.p, pe), nil
}

// GNP generates a G(n,p) instance.
func GNP(n uint64, p float64, directed bool, opt Options) (*EdgeList, error) {
	return NewGNP(n, p, directed, opt).Generate()
}

// --- RGG ---

type rggGen struct {
	p   rgg.Params
	opt Options
}

// NewRGG returns a generator for random geometric graphs in dim (2 or 3)
// dimensions: n points uniform in the unit cube, an edge between every
// pair at Euclidean distance at most r (§5).
func NewRGG(n uint64, r float64, dim int, opt Options) Generator {
	return rggGen{rgg.Params{N: n, R: r, Dim: dim, Seed: opt.Seed, Chunks: opt.pes()}, opt}
}

func (g rggGen) Generate() (*EdgeList, error) { return rgg.Generate(g.p, g.opt.Workers) }
func (g rggGen) PEs() uint64                  { return g.p.Chunks }
func (g rggGen) Chunk(pe uint64) ([]Edge, error) {
	if err := g.p.Validate(); err != nil {
		return nil, err
	}
	return rgg.GenerateChunk(g.p, pe).Edges, nil
}

// RGG2D generates a two-dimensional random geometric graph.
func RGG2D(n uint64, r float64, opt Options) (*EdgeList, error) {
	return NewRGG(n, r, 2, opt).Generate()
}

// RGG3D generates a three-dimensional random geometric graph.
func RGG3D(n uint64, r float64, opt Options) (*EdgeList, error) {
	return NewRGG(n, r, 3, opt).Generate()
}

// RGGConnectivityRadius returns the radius 0.55*(ln n / n)^(1/dim) used
// throughout the paper's experiments; it keeps the RGG connected w.h.p.
func RGGConnectivityRadius(n uint64, dim int) float64 {
	return rgg.ConnectivityRadius(n, dim)
}

// --- RDG ---

type rdgGen struct {
	p   rdg.Params
	opt Options
}

// NewRDG returns a generator for random Delaunay graphs in dim (2 or 3)
// dimensions with periodic boundary conditions: the Delaunay
// triangulation (tetrahedralization) of n uniform points on the unit
// torus (§6).
func NewRDG(n uint64, dim int, opt Options) Generator {
	return rdgGen{rdg.Params{N: n, Dim: dim, Seed: opt.Seed, Chunks: opt.pes()}, opt}
}

func (g rdgGen) Generate() (*EdgeList, error) { return rdg.Generate(g.p, g.opt.Workers) }
func (g rdgGen) PEs() uint64                  { return g.p.Chunks }
func (g rdgGen) Chunk(pe uint64) ([]Edge, error) {
	if err := g.p.Validate(); err != nil {
		return nil, err
	}
	return rdg.GenerateChunk(g.p, pe).Edges, nil
}

// RDG2D generates a two-dimensional periodic random Delaunay graph.
func RDG2D(n uint64, opt Options) (*EdgeList, error) {
	return NewRDG(n, 2, opt).Generate()
}

// RDG3D generates a three-dimensional periodic random Delaunay graph.
func RDG3D(n uint64, opt Options) (*EdgeList, error) {
	return NewRDG(n, 3, opt).Generate()
}

// --- RHG ---

type rhgGen struct {
	p   rhg.Params
	opt Options
}

// NewRHG returns the in-memory random hyperbolic graph generator (§7.1):
// n points on a hyperbolic disk, power-law degree exponent gamma (> 2) and
// target average degree avgDeg.
func NewRHG(n uint64, avgDeg, gamma float64, opt Options) Generator {
	return rhgGen{rhg.Params{N: n, AvgDeg: avgDeg, Gamma: gamma, Seed: opt.Seed, Chunks: opt.pes()}, opt}
}

func (g rhgGen) Generate() (*EdgeList, error) { return rhg.Generate(g.p, g.opt.Workers) }
func (g rhgGen) PEs() uint64                  { return g.p.Chunks }
func (g rhgGen) Chunk(pe uint64) ([]Edge, error) {
	if err := g.p.Validate(); err != nil {
		return nil, err
	}
	return rhg.GenerateChunk(g.p, pe).Edges, nil
}

// RHG generates an in-memory random hyperbolic graph.
func RHG(n uint64, avgDeg, gamma float64, opt Options) (*EdgeList, error) {
	return NewRHG(n, avgDeg, gamma, opt).Generate()
}

// RHGOutward generates a random hyperbolic graph with outward-only
// queries (§8.6): each edge appears exactly once (m entries instead of
// 2m), the output is not partitioned by vertex ownership, and the
// expensive inward recomputation of high-degree vertices is skipped.
func RHGOutward(n uint64, avgDeg, gamma float64, opt Options) (*EdgeList, error) {
	p := rhg.Params{N: n, AvgDeg: avgDeg, Gamma: gamma, Seed: opt.Seed,
		Chunks: opt.pes(), OutwardOnly: true}
	return rhg.Generate(p, opt.Workers)
}

// --- sRHG ---

type srhgGen struct {
	p   srhg.Params
	opt Options
}

// NewSRHG returns the streaming random hyperbolic graph generator (§7.2):
// same model as RHG, processed by a sweep-line with request tokens, with
// far better load balancing and memory behaviour at scale.
func NewSRHG(n uint64, avgDeg, gamma float64, opt Options) Generator {
	return srhgGen{srhg.Params{N: n, AvgDeg: avgDeg, Gamma: gamma, Seed: opt.Seed, Chunks: opt.pes()}, opt}
}

func (g srhgGen) Generate() (*EdgeList, error) { return srhg.Generate(g.p, g.opt.Workers) }
func (g srhgGen) PEs() uint64                  { return g.p.Chunks }
func (g srhgGen) Chunk(pe uint64) ([]Edge, error) {
	if err := g.p.Validate(); err != nil {
		return nil, err
	}
	return srhg.GenerateChunk(g.p, pe).Edges, nil
}

// SRHG generates a streaming random hyperbolic graph.
func SRHG(n uint64, avgDeg, gamma float64, opt Options) (*EdgeList, error) {
	return NewSRHG(n, avgDeg, gamma, opt).Generate()
}

// --- BA ---

type baGen struct {
	p   ba.Params
	opt Options
}

// NewBA returns the Barabási–Albert preferential-attachment generator
// (Sanders–Schulz algorithm, §3.5.1): each new vertex attaches d edges to
// earlier vertices with probability proportional to their degree.
func NewBA(n, d uint64, opt Options) Generator {
	return baGen{ba.Params{N: n, D: d, Seed: opt.Seed, Chunks: opt.pes()}, opt}
}

func (g baGen) Generate() (*EdgeList, error) { return ba.Generate(g.p, g.opt.Workers) }
func (g baGen) PEs() uint64                  { return g.p.Chunks }
func (g baGen) Chunk(pe uint64) ([]Edge, error) {
	if err := g.p.Validate(); err != nil {
		return nil, err
	}
	return ba.GenerateChunk(g.p, pe), nil
}

// BA generates a Barabási–Albert graph (n*d directed attachment edges).
func BA(n, d uint64, opt Options) (*EdgeList, error) {
	return NewBA(n, d, opt).Generate()
}

// --- R-MAT ---

type rmatGen struct {
	g   *rmat.Generator
	opt Options
}

// NewRMAT returns the R-MAT generator with Graph 500 default quadrant
// probabilities (0.57, 0.19, 0.19, 0.05): 2^scale vertices, m edges
// (§3.5.2). Duplicate edges and self-loops are permitted, as in the
// Graph 500 reference.
func NewRMAT(scale uint, m uint64, opt Options) Generator {
	return rmatGen{rmat.NewGenerator(rmat.Params{Scale: scale, M: m, Seed: opt.Seed, Chunks: opt.pes()}), opt}
}

func (g rmatGen) Generate() (*EdgeList, error)    { return g.g.Generate(g.opt.Workers) }
func (g rmatGen) PEs() uint64                     { return g.g.Params().Chunks }
func (g rmatGen) Chunk(pe uint64) ([]Edge, error) { return g.g.GenerateChunk(pe) }

// RMAT generates an R-MAT graph.
func RMAT(scale uint, m uint64, opt Options) (*EdgeList, error) {
	return NewRMAT(scale, m, opt).Generate()
}

// --- SBM (extension beyond the paper: its §9 future-work model) ---

type sbmGen struct {
	p   sbm.Params
	opt Options
}

// NewSBM returns a communication-free stochastic block model generator
// with the planted-partition parameterization: `blocks` equal communities
// over n vertices, intra-community edge probability pIn and
// inter-community probability pOut. The paper's conclusion names this
// model as the first target for extending the communication-free
// paradigm; the construction generalizes the undirected G(n,p) chunk
// matrix (see internal/sbm).
func NewSBM(n uint64, blocks int, pIn, pOut float64, opt Options) Generator {
	return sbmGen{sbm.PlantedPartition(n, blocks, pIn, pOut, opt.Seed, opt.pes()), opt}
}

func (g sbmGen) Generate() (*EdgeList, error) { return sbm.Generate(g.p, g.opt.Workers) }
func (g sbmGen) PEs() uint64                  { return g.p.Chunks }
func (g sbmGen) Chunk(pe uint64) ([]Edge, error) {
	if err := g.p.Validate(); err != nil {
		return nil, err
	}
	return sbm.GenerateChunk(g.p, pe), nil
}

// SBM generates a planted-partition stochastic block model graph.
func SBM(n uint64, blocks int, pIn, pOut float64, opt Options) (*EdgeList, error) {
	return NewSBM(n, blocks, pIn, pOut, opt).Generate()
}

// --- model registry (for the CLI and the benchmark harness) ---

// Model identifies one of the supported network models by name.
type Model string

// Supported model names.
const (
	ModelGNMDirected   Model = "gnm_directed"
	ModelGNMUndirected Model = "gnm_undirected"
	ModelGNPDirected   Model = "gnp_directed"
	ModelGNPUndirected Model = "gnp_undirected"
	ModelRGG2D         Model = "rgg2d"
	ModelRGG3D         Model = "rgg3d"
	ModelRDG2D         Model = "rdg2d"
	ModelRDG3D         Model = "rdg3d"
	ModelRHG           Model = "rhg"
	ModelSRHG          Model = "srhg"
	ModelBA            Model = "ba"
	ModelRMAT          Model = "rmat"
	ModelSBM           Model = "sbm"
)

// Models lists all supported model names.
func Models() []Model {
	return []Model{
		ModelGNMDirected, ModelGNMUndirected, ModelGNPDirected,
		ModelGNPUndirected, ModelRGG2D, ModelRGG3D, ModelRDG2D, ModelRDG3D,
		ModelRHG, ModelSRHG, ModelBA, ModelRMAT, ModelSBM,
	}
}

// InstanceVersion returns the version of a model's instance definition —
// which graph a given (parameters, seed, PEs) names. It is 1 until a
// sampler change moves the model's draws; consumers that persist partial
// output (job manifests) bind to it so two definitions are never mixed.
func InstanceVersion(model Model) int {
	if model == ModelRMAT {
		return rmat.InstanceVersion
	}
	return 1
}

// ModelParams carries the union of model parameters for the registry
// constructor New.
type ModelParams struct {
	N      uint64  // vertices (all models except rmat)
	M      uint64  // edges (gnm, rmat)
	P      float64 // edge probability (gnp)
	R      float64 // radius (rgg; 0 selects the connectivity radius)
	AvgDeg float64 // average degree (rhg, srhg)
	Gamma  float64 // power-law exponent (rhg, srhg)
	D      uint64  // edges per vertex (ba)
	Scale  uint    // log2 vertices (rmat)
	Blocks int     // communities (sbm; 0 selects 2)
	PIn    float64 // intra-community probability (sbm; 0 selects 8*P)
	POut   float64 // inter-community probability (sbm; 0 selects P)
}

// ResolveModelParams returns p with the registry's model defaults
// applied: the RGG connectivity radius for a zero radius, and the SBM
// planted-partition defaults (2 blocks, pIn = 8p, pOut = p). It is the
// single source of these defaults — New generates with them, and
// cmd/validate resolves a job spec through the same function, so
// generation and validation cannot drift apart.
func ResolveModelParams(model Model, p ModelParams) ModelParams {
	switch model {
	case ModelRGG2D, ModelRGG3D:
		if p.R == 0 {
			dim := 2
			if model == ModelRGG3D {
				dim = 3
			}
			p.R = RGGConnectivityRadius(p.N, dim)
		}
	case ModelSBM:
		if p.Blocks == 0 {
			p.Blocks = 2
		}
		if p.PIn == 0 {
			p.PIn = 8 * p.P
		}
		if p.POut == 0 {
			p.POut = p.P
		}
	}
	return p
}

// New constructs a Generator by model name, with the ResolveModelParams
// defaults applied.
func New(model Model, p ModelParams, opt Options) (Generator, error) {
	p = ResolveModelParams(model, p)
	switch model {
	case ModelGNMDirected:
		return NewGNM(p.N, p.M, true, opt), nil
	case ModelGNMUndirected:
		return NewGNM(p.N, p.M, false, opt), nil
	case ModelGNPDirected:
		return NewGNP(p.N, p.P, true, opt), nil
	case ModelGNPUndirected:
		return NewGNP(p.N, p.P, false, opt), nil
	case ModelRGG2D:
		return NewRGG(p.N, p.R, 2, opt), nil
	case ModelRGG3D:
		return NewRGG(p.N, p.R, 3, opt), nil
	case ModelRDG2D:
		return NewRDG(p.N, 2, opt), nil
	case ModelRDG3D:
		return NewRDG(p.N, 3, opt), nil
	case ModelRHG:
		return NewRHG(p.N, p.AvgDeg, p.Gamma, opt), nil
	case ModelSRHG:
		return NewSRHG(p.N, p.AvgDeg, p.Gamma, opt), nil
	case ModelBA:
		return NewBA(p.N, p.D, opt), nil
	case ModelRMAT:
		return NewRMAT(p.Scale, p.M, opt), nil
	case ModelSBM:
		return NewSBM(p.N, p.Blocks, p.PIn, p.POut, opt), nil
	}
	return nil, fmt.Errorf("kagen: unknown model %q", model)
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
