// Package job is the communication-free distributed job runner: it
// plans, executes, checkpoints and resumes multi-worker generation runs
// with zero inter-worker communication.
//
// The paper's core property — every PE (re)derives exactly its slice of
// the instance from (seed, model parameters, P) alone — means a fleet of
// independent worker processes needs no coordination beyond a shared job
// spec, and a crashed or preempted worker is trivially restartable. A
// Spec pins the instance definition (model, parameters, seed, and the
// total chunk count PEs*ChunksPerPE); its SHA-256 hash binds every
// manifest to that definition, so a resume against a changed spec is
// rejected instead of silently producing a franken-instance.
//
// Work is partitioned twice. The job's PEs (one output shard each) are
// split into disjoint contiguous ranges, one per worker; within a PE,
// generation proceeds in ChunksPerPE chunks — the checkpoint unit.
// Because restarting at chunk k costs only the model's O(log P) seeded
// descent (no replay of chunks 0..k-1), chunk granularity makes
// checkpoints as fine as desired at constant cost: a worker records, per
// PE, how many chunks are durably in the shard file and at which byte
// offset, in an atomically renamed per-worker manifest. Resume truncates
// the shard to the recorded offset and re-enters the stream at the
// recorded chunk; the result is byte-identical to an uninterrupted run.
package job

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	kagen "repro"
)

// Spec is the complete, serializable definition of a distributed
// generation job. Model, model parameters, Seed, PEs and ChunksPerPE
// define the instance (total chunk count = PEs*ChunksPerPE); Workers and
// Format define how it is executed and stored. The JSON encoding is the
// on-disk job.json format.
type Spec struct {
	// Model is the kagen registry model name (e.g. "gnm_undirected").
	Model string `json:"model"`

	// Model parameters (the union across models; see kagen.ModelParams).
	N      uint64  `json:"n,omitempty"`
	M      uint64  `json:"m,omitempty"`
	Prob   float64 `json:"p,omitempty"`
	R      float64 `json:"r,omitempty"`
	AvgDeg float64 `json:"avg_deg,omitempty"`
	Gamma  float64 `json:"gamma,omitempty"`
	D      uint64  `json:"d,omitempty"`
	Scale  uint    `json:"scale,omitempty"`
	Blocks int     `json:"blocks,omitempty"`
	PIn    float64 `json:"p_in,omitempty"`
	POut   float64 `json:"p_out,omitempty"`

	// Seed selects the instance.
	Seed uint64 `json:"seed"`
	// PEs is the number of logical PEs — one output shard each.
	PEs uint64 `json:"pes"`
	// ChunksPerPE is the checkpoint granularity: each PE's work is
	// generated as this many chunks, and a resume re-enters mid-PE at the
	// first unfinished chunk. The instance is defined by the total chunk
	// count PEs*ChunksPerPE, so ChunksPerPE is part of the instance
	// definition, not a tuning knob.
	ChunksPerPE uint64 `json:"chunks_per_pe"`
	// Workers is the number of independent worker processes; the PE set is
	// split into Workers disjoint contiguous ranges.
	Workers uint64 `json:"workers"`
	// Format is the shard encoding: text, binary, text.gz or binary.gz.
	Format string `json:"format"`
}

// Normalized returns the spec with defaults applied: PEs, ChunksPerPE and
// Workers of 0 become 1, an empty Format becomes text. Hash and the
// runner operate on the normalized spec, so writing an explicit default
// and omitting the field define the same job.
func (s Spec) Normalized() Spec {
	if s.PEs == 0 {
		s.PEs = 1
	}
	if s.ChunksPerPE == 0 {
		s.ChunksPerPE = 1
	}
	if s.Workers == 0 {
		s.Workers = 1
	}
	if s.Format == "" {
		s.Format = string(kagen.FormatText)
	}
	return s
}

// Validate checks the execution shape of the spec (model known and
// streamable, format known, partition sizes sane). Model parameter errors
// surface when the first chunk streams, exactly as in a direct run.
func (s Spec) Validate() error {
	s = s.Normalized()
	if _, err := kagen.ParseFormat(s.Format); err != nil {
		return err
	}
	if s.Workers > s.PEs {
		return fmt.Errorf("job: %d workers for %d PEs (a worker would own no shard)", s.Workers, s.PEs)
	}
	if s.ChunksPerPE > math.MaxUint64/s.PEs {
		return fmt.Errorf("job: %d PEs x %d chunks per PE overflows", s.PEs, s.ChunksPerPE)
	}
	_, err := s.Streamer()
	return err
}

// TotalChunks returns the total chunk count — the Chunks parameter of the
// underlying generator and therefore part of the instance definition.
func (s Spec) TotalChunks() uint64 {
	s = s.Normalized()
	return s.PEs * s.ChunksPerPE
}

// ShardFormat returns the parsed shard format of the normalized spec.
func (s Spec) ShardFormat() kagen.Format {
	f, err := kagen.ParseFormat(s.Normalized().Format)
	if err != nil {
		return kagen.FormatText
	}
	return f
}

// Streamer constructs the streaming generator defined by the spec.
func (s Spec) Streamer() (kagen.Streamer, error) {
	s = s.Normalized()
	gen, err := kagen.New(kagen.Model(s.Model), kagen.ModelParams{
		N: s.N, M: s.M, P: s.Prob, R: s.R, AvgDeg: s.AvgDeg, Gamma: s.Gamma,
		D: s.D, Scale: s.Scale, Blocks: s.Blocks, PIn: s.PIn, POut: s.POut,
	}, kagen.Options{Seed: s.Seed, PEs: s.TotalChunks()})
	if err != nil {
		return nil, err
	}
	st, ok := kagen.AsStreamer(gen)
	if !ok {
		return nil, fmt.Errorf("job: model %q is materialize-only and cannot run as a job", s.Model)
	}
	return st, nil
}

// Hash returns the SHA-256 hex digest of the normalized spec's canonical
// JSON encoding. It binds manifests (and thereby every recorded
// checkpoint) to one instance definition: any change to the model,
// parameters, seed, partition or format changes the hash, and the runner
// refuses to resume a manifest whose hash does not match.
//
// The model's instance version (kagen.InstanceVersion) is part of that
// definition: a sampler change that moves draws maps the same spec to
// other edges, and a job directory begun before it must not be continued
// after it. Version 1 adds nothing, so the hash — and with it the job ID
// and serve's cache key — of every model that never changed stays what it
// always was.
func (s Spec) Hash() string { return s.hashAt(s.instanceVersion()) }

func (s Spec) instanceVersion() int { return kagen.InstanceVersion(kagen.Model(s.Model)) }

// hashAt is Hash under a given instance version of the spec's model.
func (s Spec) hashAt(version int) string {
	b, err := json.Marshal(s.Normalized())
	if err != nil {
		// A Spec is plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("job: spec hash: %v", err))
	}
	if version > 1 {
		b = fmt.Appendf(b, "\ninstance-version %d", version)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// WorkerPEs returns worker w's contiguous PE range [lo, hi) under the
// balanced split of [0, PEs) into Workers ranges (the first PEs mod
// Workers ranges get one extra PE).
func (s Spec) WorkerPEs(w uint64) (lo, hi uint64) {
	s = s.Normalized()
	q, r := s.PEs/s.Workers, s.PEs%s.Workers
	lo = w*q + min(w, r)
	hi = lo + q
	if w < r {
		hi++
	}
	return lo, hi
}

// ChunkRange returns the global chunk range [first, first+count) of one
// PE: PE p owns chunks [p*ChunksPerPE, (p+1)*ChunksPerPE).
func (s Spec) ChunkRange(pe uint64) (first, count uint64) {
	s = s.Normalized()
	return pe * s.ChunksPerPE, s.ChunksPerPE
}
