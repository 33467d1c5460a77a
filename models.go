package kagen

import (
	"flag"
	"fmt"
	"slices"
	"strings"

	"repro/internal/ba"
	"repro/internal/core"
	"repro/internal/gnm"
	"repro/internal/gnp"
	"repro/internal/rdg"
	"repro/internal/rgg"
	"repro/internal/rhg"
	"repro/internal/rmat"
	"repro/internal/sbm"
	"repro/internal/srhg"
	"repro/internal/validate"
)

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

// ModelParams carries the union of model parameters for the registry
// constructor New. Zero values select the registry defaults listed in
// RegisterFlags.
type ModelParams struct {
	N      uint64  // vertices (all models except rmat)
	M      uint64  // edges (gnm, rmat)
	P      float64 // edge probability (gnp, sbm)
	R      float64 // radius (rgg; 0 selects the connectivity radius)
	AvgDeg float64 // average degree (rhg, srhg)
	Gamma  float64 // power-law exponent (rhg, srhg)
	D      uint64  // edges per vertex (ba)
	Scale  uint    // log2 vertices (rmat)
	Blocks int     // communities (sbm; 0 selects 2)
	PIn    float64 // intra-community probability (sbm; 0 selects 8*P)
	POut   float64 // inter-community probability (sbm; 0 selects P)
}

// RegisterFlags defines one flag per parameter on fs, with the generator
// defaults, storing into p. The help text names the models that read each
// flag, taken from the model table.
func (p *ModelParams) RegisterFlags(fs *flag.FlagSet) {
	fs.Uint64Var(&p.N, "n", 1<<16, flagUsage("n", "number of vertices"))
	fs.Uint64Var(&p.M, "m", 1<<20, flagUsage("m", "number of edges"))
	fs.Float64Var(&p.P, "p", 0.001, flagUsage("p", "edge probability"))
	fs.Float64Var(&p.R, "r", 0, flagUsage("r", "radius; 0 = connectivity radius"))
	fs.Float64Var(&p.AvgDeg, "deg", 16, flagUsage("deg", "average degree"))
	fs.Float64Var(&p.Gamma, "gamma", 2.8, flagUsage("gamma", "power-law exponent"))
	fs.Uint64Var(&p.D, "d", 4, flagUsage("d", "edges per vertex"))
	fs.UintVar(&p.Scale, "scale", 16, flagUsage("scale", "log2 of vertex count"))
	fs.IntVar(&p.Blocks, "blocks", 2, flagUsage("blocks", "number of communities"))
	fs.Float64Var(&p.PIn, "pin", 0, flagUsage("pin", "intra-community probability; 0 = 8*p"))
	fs.Float64Var(&p.POut, "pout", 0, flagUsage("pout", "inter-community probability; 0 = p"))
}

// flagUsage appends the models reading a flag to its help text.
func flagUsage(name, help string) string {
	var readers []string
	for _, d := range modelTable {
		if slices.Contains(strings.Fields(d.reads), name) {
			readers = append(readers, string(d.name))
		}
	}
	return fmt.Sprintf("%s (%s)", help, strings.Join(readers, ", "))
}

// modelDesc is one row of the model table — everything the repository
// knows about a model beyond its generator package. Models, New,
// InstanceVersion, Checks and the parameter flags all read the table, so a
// model is described exactly once.
type modelDesc struct {
	name Model
	// reads lists the parameter flags the model reads.
	reads string
	// defaults fills in zero parameters (nil: none).
	defaults func(*ModelParams)
	// n returns the vertex count (nil: ModelParams.N).
	n func(ModelParams) uint64
	// version is the instance version; 0 means 1 (see InstanceVersion).
	version int
	// oneWay marks a model whose stream lists each edge once, in one
	// orientation (a directed graph); the others list both.
	oneWay bool
	// checks is the model's internal/validate suite.
	checks func(el *EdgeList, p ModelParams) []validate.Check
	// bind builds the per-instance state once per generator: the package
	// Params and, for R-MAT, the one *rmat.Generator whose alias tables
	// every chunk and goroutine shares.
	bind func(p ModelParams, opt Options) instance
}

// maxSBMBlocks bounds the SBM's community count, whose probability matrix
// is blocks x blocks (8 MiB at the bound).
const maxSBMBlocks = 1 << 10

// modelTable lists every model, in Models order.
var modelTable = []modelDesc{
	gnmModel(ModelGNMDirected, true),
	gnmModel(ModelGNMUndirected, false),
	gnpModel(ModelGNPDirected, true),
	gnpModel(ModelGNPUndirected, false),
	rggModel(ModelRGG2D, 2),
	rggModel(ModelRGG3D, 3),
	rdgModel(ModelRDG2D, 2),
	rdgModel(ModelRDG3D, 3),
	{
		name: ModelRHG, reads: "n deg gamma", checks: checkRHG,
		bind: func(p ModelParams, o Options) instance {
			return bindPkg(rhg.Params{N: p.N, AvgDeg: p.AvgDeg, Gamma: p.Gamma, Seed: o.Seed, Chunks: o.pes()}, rhg.StreamChunk)
		},
	},
	{
		name: ModelSRHG, reads: "n deg gamma", checks: checkRHG,
		bind: func(p ModelParams, o Options) instance {
			return bindPkg(srhg.Params{N: p.N, AvgDeg: p.AvgDeg, Gamma: p.Gamma, Seed: o.Seed, Chunks: o.pes()}, srhg.StreamChunk)
		},
	},
	{
		name: ModelBA, reads: "n d", oneWay: true,
		checks: func(el *EdgeList, p ModelParams) []validate.Check { return validate.BA(el, p.N, p.D) },
		bind: func(p ModelParams, o Options) instance {
			return bindPkg(ba.Params{N: p.N, D: p.D, Seed: o.Seed, Chunks: o.pes()}, ba.StreamChunk)
		},
	},
	{
		name: ModelRMAT, reads: "m scale", version: rmat.InstanceVersion, oneWay: true,
		n:      func(p ModelParams) uint64 { return rmat.Params{Scale: p.Scale}.N() },
		checks: func(el *EdgeList, p ModelParams) []validate.Check { return validate.RMAT(el, p.Scale, p.M) },
		bind: func(p ModelParams, o Options) instance {
			g := rmat.NewGenerator(rmat.Params{Scale: p.Scale, M: p.M, Seed: o.Seed, Chunks: o.pes()})
			// The generator's own errors are the validation and range
			// check the generator type has already made.
			return instance{
				err:    g.Params().Validate(),
				stream: func(pe uint64, e *core.Emitter) { g.StreamChunk(pe, e) },
			}
		},
	},
	{
		name: ModelSBM, reads: "n p blocks pin pout",
		defaults: func(p *ModelParams) {
			if p.Blocks == 0 {
				p.Blocks = 2
			}
			if p.PIn == 0 {
				p.PIn = 8 * p.P
			}
			if p.POut == 0 {
				p.POut = p.P
			}
		},
		checks: func(el *EdgeList, p ModelParams) []validate.Check {
			ch := core.Chunking{N: p.N, Chunks: uint64(p.Blocks)}
			sizes := make([]uint64, p.Blocks)
			for i := range sizes {
				sizes[i] = ch.Size(uint64(i))
			}
			return validate.SBM(el, sizes, p.PIn, p.POut)
		},
		bind: func(p ModelParams, o Options) instance {
			// The planted partition is a dense blocks x blocks matrix:
			// refuse a count it cannot be built for before building it.
			if p.Blocks < 1 || p.Blocks > maxSBMBlocks {
				return instance{err: fmt.Errorf("sbm: %d blocks outside [1, %d]", p.Blocks, maxSBMBlocks)}
			}
			return bindPkg(sbm.PlantedPartition(p.N, p.Blocks, p.PIn, p.POut, o.Seed, o.pes()), sbm.StreamChunk)
		},
	},
}

func gnmModel(name Model, directed bool) modelDesc {
	return modelDesc{
		name: name, reads: "n m", oneWay: directed,
		checks: func(el *EdgeList, p ModelParams) []validate.Check { return validate.GNM(el, p.N, p.M, directed) },
		bind: func(p ModelParams, o Options) instance {
			return bindPkg(gnm.Params{N: p.N, M: p.M, Directed: directed, Seed: o.Seed, Chunks: o.pes()}, gnm.StreamChunk)
		},
	}
}

func gnpModel(name Model, directed bool) modelDesc {
	return modelDesc{
		name: name, reads: "n p", oneWay: directed,
		checks: func(el *EdgeList, p ModelParams) []validate.Check { return validate.GNP(el, p.N, p.P, directed) },
		bind: func(p ModelParams, o Options) instance {
			return bindPkg(gnp.Params{N: p.N, P: p.P, Directed: directed, Seed: o.Seed, Chunks: o.pes()}, gnp.StreamChunk)
		},
	}
}

func rggModel(name Model, dim int) modelDesc {
	return modelDesc{
		name: name, reads: "n r",
		defaults: func(p *ModelParams) {
			if p.R == 0 {
				p.R = RGGConnectivityRadius(p.N, dim)
			}
		},
		checks: func(el *EdgeList, p ModelParams) []validate.Check { return validate.RGG(el, p.N, p.R, dim) },
		bind: func(p ModelParams, o Options) instance {
			return bindPkg(rgg.Params{N: p.N, R: p.R, Dim: dim, Seed: o.Seed, Chunks: o.pes()}, rgg.StreamChunk)
		},
	}
}

func rdgModel(name Model, dim int) modelDesc {
	return modelDesc{
		name: name, reads: "n",
		checks: func(el *EdgeList, p ModelParams) []validate.Check { return validate.RDG(el, p.N, dim) },
		bind: func(p ModelParams, o Options) instance {
			return bindPkg(rdg.Params{N: p.N, Dim: dim, Seed: o.Seed, Chunks: o.pes()}, rdg.StreamChunk)
		},
	}
}

func checkRHG(el *EdgeList, p ModelParams) []validate.Check {
	return validate.RHG(el, p.N, p.AvgDeg, p.Gamma)
}

// instance is what bind builds: the parameters' validation result and the
// generator package's StreamChunk, closed over its Params.
type instance struct {
	err    error
	stream func(pe uint64, e *core.Emitter)
}

// bindPkg binds a generator package's StreamChunk to its Params.
func bindPkg[P interface{ Validate() error }](p P, stream func(P, uint64, *core.Emitter)) instance {
	return instance{err: p.Validate(), stream: func(pe uint64, e *core.Emitter) { stream(p, pe, e) }}
}

// generator serves every model: it checks the parameters and the PE, then
// streams the chunk from the bound package. Everything else — collecting a
// chunk, the whole graph, the per-edge callback — is built here, once,
// over the Emitter.
type generator struct {
	instance
	n, pes  uint64
	workers int
}

// adapterBatch is the batch StreamChunk's per-edge callback is fed from.
const adapterBatch = 256

func (g *generator) N() uint64   { return g.n }
func (g *generator) PEs() uint64 { return g.pes }

func (g *generator) Generate() (*EdgeList, error) {
	if g.err != nil {
		return nil, g.err
	}
	return core.Generate(g.n, g.pes, g.workers, g.stream), nil
}

func (g *generator) check(pe uint64) error {
	if g.err != nil {
		return g.err
	}
	if pe >= g.pes {
		return fmt.Errorf("kagen: PE %d out of range [0, %d)", pe, g.pes)
	}
	return nil
}

func (g *generator) Chunk(pe uint64) ([]Edge, error) {
	if err := g.check(pe); err != nil {
		return nil, err
	}
	edges, _ := core.Collect(func(e *core.Emitter) { g.stream(pe, e) })
	return edges, nil
}

func (g *generator) EmitChunk(pe uint64, e *Emitter) error {
	if err := g.check(pe); err != nil {
		return err
	}
	g.stream(pe, e)
	return nil
}

func (g *generator) StreamChunk(pe uint64, emit func(Edge)) error {
	if err := g.check(pe); err != nil {
		return err
	}
	e := core.NewEmitter(make([]Edge, 0, adapterBatch), func(full []Edge) ([]Edge, bool) {
		for _, edge := range full {
			emit(edge)
		}
		return full, true
	})
	g.stream(pe, e)
	for _, edge := range e.Edges() {
		emit(edge)
	}
	return nil
}

// lookup returns the model's table row.
func lookup(model Model) (*modelDesc, error) {
	for i := range modelTable {
		if modelTable[i].name == model {
			return &modelTable[i], nil
		}
	}
	return nil, fmt.Errorf("kagen: unknown model %q", model)
}

// resolve returns p with the model's defaults applied.
func (d *modelDesc) resolve(p ModelParams) ModelParams {
	if d.defaults != nil {
		d.defaults(&p)
	}
	return p
}

// generator binds an instance of the model to exactly the given
// parameters.
func (d *modelDesc) generator(p ModelParams, opt Options) *generator {
	n := p.N
	if d.n != nil {
		n = d.n(p)
	}
	return &generator{instance: d.bind(p, opt), n: n, pes: opt.pes(), workers: opt.Workers}
}

// Models lists all supported model names.
func Models() []Model {
	names := make([]Model, len(modelTable))
	for i, d := range modelTable {
		names[i] = d.name
	}
	return names
}

// InstanceVersion returns the version of a model's instance definition —
// which graph a given (parameters, seed, PEs) names. It is 1 until a
// sampler change moves the model's draws; consumers that persist partial
// output (job manifests) bind to it so two definitions are never mixed.
func InstanceVersion(model Model) int {
	if d, err := lookup(model); err == nil && d.version > 0 {
		return d.version
	}
	return 1
}

// BothOrientations reports whether the model's stream lists every edge
// as both (u, v) and (v, u) — what an undirected format such as METIS
// needs. gnm_directed, gnp_directed, ba and rmat list each edge once.
func BothOrientations(model Model) bool {
	d, err := lookup(model)
	return err == nil && !d.oneWay
}

// New constructs a Generator by model name. Zero parameters take the
// model's defaults: the RGG connectivity radius, and the SBM
// planted-partition defaults (2 blocks, pIn = 8p, pOut = p). Invalid
// parameters surface from the first Generate, Chunk or StreamChunk call.
func New(model Model, p ModelParams, opt Options) (Generator, error) {
	d, err := lookup(model)
	if err != nil {
		return nil, err
	}
	return d.generator(d.resolve(p), opt), nil
}

// Checks runs the model's validation suite on el, after applying the same
// defaults as New — validation always checks against exactly what New
// would have generated with.
func Checks(model Model, el *EdgeList, p ModelParams) ([]validate.Check, error) {
	d, err := lookup(model)
	if err != nil {
		return nil, err
	}
	return d.checks(el, d.resolve(p)), nil
}
