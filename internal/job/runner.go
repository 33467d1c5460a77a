package job

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"os"
	"strings"
	"time"

	kagen "repro"
	"repro/internal/obs"
	"repro/internal/pe"
	"repro/internal/storage"
)

// SpecPath returns the job spec object inside a job directory.
func SpecPath(dir string) string { return storage.Join(dir, "job.json") }

// localPath strips an optional file:// prefix for the os-level fault
// injectors, which only run against the local filesystem backend.
func localPath(name string) string { return strings.TrimPrefix(name, "file://") }

// Init creates a job directory: it validates and normalizes the spec,
// prepares the shard prefix, and writes job.json. A destination that
// already holds a job is refused — the spec is immutable once workers may
// have checkpointed against its hash.
//
// The spec write goes through the backend's atomic Put: on the
// filesystem that is the temp file + fsync + rename + directory sync
// discipline (the one directory sync covers both fresh entries, shards/
// and job.json), on an object store the PUT is atomic by contract. Once
// Init returns, the spec — whose hash workers and caches may already
// hold — survives a power loss; a crash at any earlier point leaves
// either no job or at most a stale .tmp, which a retried Init overwrites.
func Init(dir string, spec Spec) error {
	spec = spec.Normalized()
	if err := spec.Validate(); err != nil {
		return err
	}
	store, err := storage.Resolve(dir)
	if err != nil {
		return err
	}
	if _, err := store.Stat(SpecPath(dir)); err == nil {
		return fmt.Errorf("job: %s already holds a job spec", dir)
	} else if !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("job: cannot stat %s: %w", SpecPath(dir), err)
	}
	if err := store.EnsureDir(storage.Join(dir, "shards")); err != nil {
		return err
	}
	b, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	return store.Put(SpecPath(dir), b, storage.PutOptions{})
}

// List returns the child destinations of root that hold a job spec,
// sorted by name. Unreadable entries and children without a job.json are
// skipped — a half-created directory (crash before Init's publish) is
// not a job.
func List(root string) ([]string, error) {
	store, err := storage.Resolve(root)
	if err != nil {
		return nil, err
	}
	if store.Local() {
		entries, err := os.ReadDir(localPath(root))
		if err != nil {
			return nil, err
		}
		var dirs []string
		for _, e := range entries {
			if !e.IsDir() {
				continue
			}
			dir := storage.Join(root, e.Name())
			if _, err := store.Stat(SpecPath(dir)); err == nil {
				dirs = append(dirs, dir)
			}
		}
		return dirs, nil
	}
	// Object stores have no directories: a job is any immediate child
	// prefix with a job.json directly under it.
	names, err := store.List(root)
	if err != nil {
		return nil, err
	}
	var dirs []string
	seen := map[string]bool{}
	for _, name := range names {
		rel := strings.TrimPrefix(strings.TrimPrefix(name, root), "/")
		parts := strings.Split(rel, "/")
		if len(parts) == 2 && parts[1] == "job.json" && !seen[parts[0]] {
			seen[parts[0]] = true
			dirs = append(dirs, storage.Join(root, parts[0]))
		}
	}
	return dirs, nil
}

// Load reads and validates the spec of a job directory, returning it
// normalized.
func Load(dir string) (Spec, error) {
	store, err := storage.Resolve(dir)
	if err != nil {
		return Spec{}, err
	}
	return loadSpec(store, dir)
}

// loadSpec is Load on an already resolved backend.
func loadSpec(store storage.Backend, dir string) (Spec, error) {
	b, err := store.Get(SpecPath(dir))
	if err != nil {
		return Spec{}, err
	}
	var spec Spec
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return Spec{}, fmt.Errorf("job: corrupt spec %s: %w", SpecPath(dir), err)
	}
	spec = spec.Normalized()
	if err := spec.Validate(); err != nil {
		return Spec{}, err
	}
	return spec, nil
}

// RunOptions tune one worker's execution; none of them affect the
// generated bytes.
type RunOptions struct {
	// Goroutines bounds the chunk pipeline's worker goroutines
	// (0 = GOMAXPROCS). Each generates, encodes, digests and compresses
	// whole chunks of a PE; the finished bytes are written and committed
	// in chunk order.
	Goroutines int
	// OnCheckpoint, if set, runs once per chunk whose checkpoint became
	// durable — shard bytes held by the store, manifest published — in
	// chunk order, with the PE, its committed chunk count and its
	// cumulative committed edges. One manifest publish can cover several
	// chunks (every chunk committed while the previous publish was in
	// flight; on S3, every chunk of a part that finished uploading), so
	// several calls can arrive back to back, and the manifest may already
	// record later chunks than the one a call names. Calls come from the
	// worker's checkpointer goroutine, never two at once, while generation
	// carries on. Returning an error stops the run with nothing further
	// published, at a state a crash at that point could leave: the
	// cancel, test and CI interruption hook.
	OnCheckpoint func(pe, chunksDone, edges uint64) error
	// Trace, if set, collects spans for this worker's run — worker → PE →
	// chunk-generate/chunk-commit/checkpoint (plus the storage layer's
	// upload-part spans when this trace is also installed via
	// obs.SetActive) — and persists them to <dir>/trace/workerNNNNN.json
	// before Run returns. Nil disables tracing entirely; the hot path then
	// sees only nil checks.
	Trace *obs.Trace
	// OnCommitLatency, if set, observes the wall seconds of each checkpoint
	// round that published a manifest — syncing the open shards (fsync /
	// upload progress), promoting what the sync covered, and the manifest
	// publish — keyed by the oldest PE the round advanced. One round can
	// cover many chunks, so there are at most as many observations as
	// OnCheckpoint calls. It runs on the checkpointer goroutine, before the
	// round's OnCheckpoint calls; no generator waits for what it measures.
	OnCommitLatency func(pe uint64, seconds float64)
}

// Run executes (or, if a manifest with progress exists, continues) one
// worker's share of a job: each PE of the worker's range streams its
// remaining chunks into its shard, every chunk a checkpoint boundary that
// the worker's checkpointer makes durable and records while generation
// carries on. It needs no communication with other workers — the spec
// alone determines every byte each of them writes.
func Run(dir string, worker uint64, opts RunOptions) error {
	store, err := storage.Resolve(dir)
	if err != nil {
		return err
	}
	return run(store, dir, worker, opts)
}

func run(store storage.Backend, dir string, worker uint64, opts RunOptions) error {
	spec, err := loadSpec(store, dir)
	if err != nil {
		return err
	}
	if worker >= spec.Workers {
		return fmt.Errorf("job: worker %d out of range [0, %d)", worker, spec.Workers)
	}
	// Exclusive per-worker lock for the whole run: without it two
	// processes on the same worker index both pass the manifest check
	// below, then interleave shard truncates/appends and race the
	// manifest rename. The second taker fails fast with ErrWorkerRunning.
	lock, err := acquireWorkerLock(dir, worker)
	if err != nil {
		return err
	}
	defer lock.Release()
	log := obs.Logger("job")
	started := time.Now()
	log.Info("worker starting", "dir", dir, "worker", worker,
		"spec", spec.Hash(), "model", spec.Model, "pes", spec.PEs, "workers", spec.Workers)
	ws := opts.Trace.Start("job", "worker", obs.LaneWorker, obs.Span{})
	// Storage-layer spans (part uploads) start with a zero parent; nest
	// them under this worker.
	opts.Trace.SetDefaultParent(ws)
	streamer, err := spec.Streamer()
	if err == nil {
		// PEs run one after another and share one set of encoders and blocks.
		encs := newChunkEncoders(spec.ShardFormat(), opts.Goroutines)
		err = runWorker(store, dir, worker, spec, streamer, encs, opts, log)
	}
	if err != nil {
		ws.End(obs.U64("worker", worker), obs.Str("error", err.Error()))
		log.Error("worker failed", "dir", dir, "worker", worker,
			"err", err, "elapsed", time.Since(started).Seconds())
	} else {
		ws.End(obs.U64("worker", worker))
		log.Info("worker finished", "dir", dir, "worker", worker,
			"elapsed", time.Since(started).Seconds())
	}
	if opts.Trace != nil {
		// Persist the trace even for a failed run — a trace of the failure
		// is exactly what the operator wants — but never let a trace write
		// error mask the run's own result.
		if terr := writeWorkerTrace(store, dir, worker, opts.Trace); terr != nil && err == nil {
			err = terr
		}
	}
	return err
}

// runWorker is the body of run, after locking and observability setup.
func runWorker(store storage.Backend, dir string, worker uint64, spec Spec, streamer kagen.Streamer, encs *chunkEncoders, opts RunOptions, log *slog.Logger) error {
	mpath := ManifestPath(dir, worker)
	var manifest *Manifest
	switch _, serr := store.Stat(mpath); {
	case serr == nil:
		var err error
		if manifest, err = readManifest(store, dir, spec, worker); err != nil {
			return err
		}
	case errors.Is(serr, fs.ErrNotExist):
		manifest = newManifest(spec, worker)
		if err := writeManifest(store, mpath, manifest); err != nil {
			return err
		}
	default:
		// A transient stat failure must never masquerade as "no manifest":
		// starting fresh would overwrite real checkpoints and truncate
		// shards with committed work.
		return fmt.Errorf("job: cannot stat manifest %s: %w", mpath, serr)
	}
	format := spec.ShardFormat()
	cp := startCheckpointer(store, manifest, mpath, &opts, log)
	var err error
	for i := range manifest.PEs {
		prog := &manifest.PEs[i]
		if prog.Done {
			continue
		}
		if perr := runPE(store, dir, spec, streamer, format, encs, manifest, mpath, prog, cp, log); perr != nil {
			err = fmt.Errorf("job: worker %d, PE %d: %w", worker, prog.PE, perr)
			break
		}
	}
	// The last PE is still finishing, and after a failed PE the chunks it
	// committed are still to be recorded.
	if cerr := cp.close(); err == nil && cerr != nil {
		err = fmt.Errorf("job: worker %d: %w", worker, cerr)
	}
	return err
}

// Resume is Run for a worker that has checkpointed before: it refuses to
// start from scratch, so a typo'd worker index or directory fails loudly
// instead of silently regenerating.
func Resume(dir string, worker uint64, opts RunOptions) error {
	store, err := storage.Resolve(dir)
	if err != nil {
		return err
	}
	if _, err := store.Stat(ManifestPath(dir, worker)); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("job: worker %d has no manifest in %s — nothing to resume (use run)", worker, dir)
		}
		return fmt.Errorf("job: cannot stat manifest for worker %d: %w", worker, err)
	}
	obs.Logger("job").Info("resuming worker", "dir", dir, "worker", worker)
	return run(store, dir, worker, opts)
}

// runPE streams one PE's remaining chunks into its shard: the pipeline
// goroutines turn whole chunks into blocks of finished wire bytes (see
// chunkEncoder), pe.Ordered puts the blocks back into chunk order, and
// the ordered stage writes and commits them. Durability is the
// checkpointer's: runPE returns as soon as the PE's last block is
// committed, and the next PE generates while this one is finalized.
func runPE(store storage.Backend, dir string, spec Spec, streamer kagen.Streamer, format kagen.Format, encs *chunkEncoders, manifest *Manifest, mpath string, prog *PEProgress, cp *checkpointer, log *slog.Logger) error {
	trace := cp.opts.Trace
	first, count := spec.ChunkRange(prog.PE)
	path := ShardPath(dir, prog.PE, format)
	log.Info("pe starting", "pe", prog.PE, "chunks", count, "chunks_done", prog.ChunksDone)
	pc := &peCheckpoint{prog: prog, path: path, firstChunk: first, chunks: count}
	// The PE's span ends when the checkpointer has published it as done, or
	// here if it never gets that far.
	pc.span = trace.Start("job", "pe", obs.PELane(prog.PE), obs.Span{})
	opened := false
	defer func() {
		if !opened {
			pc.endSpan()
		}
	}()

	fresh := func() (err error) {
		// Fresh shard: the header is committed as checkpoint zero and
		// recorded, like any chunk, by the first round whose sync covers it.
		pc.w, pc.headerPending, err = createShard(store, path, streamer.N(), &encs.enc[0])
		return err
	}
	if prog.Offset == 0 {
		if err := fresh(); err != nil {
			return err
		}
	} else {
		// A resumed PE is audited, and possibly rolled back, before it is
		// extended. That rewrites its progress record and the manifest from
		// here, so the checkpointer must have nothing in flight.
		if err := cp.idle(); err != nil {
			return err
		}
		if store.Local() {
			// Before extending committed state, audit it: re-hash the committed
			// chunks in the store against their manifest digests. A mismatch
			// means the shard rotted (or a failpoint bit it) since the
			// checkpoint — appending to it would launder corruption into a
			// "complete" job, so the bad suffix is quarantined and regenerated
			// instead. Non-local backends (S3: parts of an open multipart
			// upload are unreadable) skip the audit — there the store verified
			// every part's checksum on receipt.
			if err := auditCommitted(store, path, format, streamer.N(), manifest, mpath, prog); err != nil {
				return err
			}
		}
		var err error
		if prog.Offset == 0 {
			// The audit found the header itself corrupt and reset the PE.
			err = fresh()
		} else if pc.w, err = reopenShard(store, path, prog.Offset); errors.Is(err, storage.ErrNoShard) {
			// The store-side partial state is gone (expired multipart upload,
			// swept staging): roll the PE back to zero — durably, so a crash
			// mid-regeneration cannot resurrect the stale offset — and start
			// over. Determinism makes the reset safe: the regenerated bytes
			// are identical to the lost ones.
			*prog = PEProgress{PE: prog.PE}
			if err = writeManifest(store, mpath, manifest); err == nil {
				err = fresh()
			}
		}
		if err != nil {
			return err
		}
	}

	// The progress record is the checkpointer's from open on; the range
	// left to generate is fixed here.
	done := prog.ChunksDone
	cp.open(pc)
	opened = true
	sink := &orderedStage{cp: cp, pc: pc}
	produce := func(worker, chunk int, send func(*block, bool) bool) {
		// chunk-generate covers everything the producing goroutine does
		// for the chunk: generate, encode, digest, compress.
		sp := trace.Start("job", "chunk-generate", obs.GenLane(uint64(chunk)), pc.span)
		enc := &encs.enc[worker]
		enc.begin(send, trace != nil)
		last := enc.finish(streamer.EmitChunk(uint64(chunk), &enc.em))
		if trace != nil {
			sp.End(obs.U64("chunk", uint64(chunk)), obs.U64("edges", last.edges),
				obs.U64("payload_bytes", last.payloadBytes), obs.U64("wire_bytes", last.wireBytes),
				obs.U64("encode_ns", uint64(enc.encodeNs)),
				obs.U64("redundant_vertices", enc.em.RedundantVertices), obs.U64("comparisons", enc.em.Comparisons))
		}
		send(last, true)
	}
	if err := pe.Ordered(int(first+done), int(count-done), len(encs.enc),
		produce, sink.deliver, encs.blocks.put); err != nil {
		return err
	}
	return cp.finish(pc)
}

// orderedStage is the ordered stage of one PE: it receives the PE's
// finished blocks in chunk order (the consume side of pe.Ordered), on
// whichever pipeline goroutine owns the delivery head, and writes them
// into the shard. A chunk's last block commits it — a boundary mark, no
// I/O — and hands its record to the checkpointer. Nothing here waits for
// a sync, a manifest or a hook.
type orderedStage struct {
	cp *checkpointer
	pc *peCheckpoint
}

// deliver takes one block of a chunk. A chunk's bytes are appended as
// they arrive; its last block commits it. A chunk that failed to generate
// surfaces here, in chunk order, and commits nothing; a checkpointer that
// failed stops the run at the next block.
func (s *orderedStage) deliver(chunk int, b *block, final bool) error {
	if s.cp.failed.Load() {
		return s.cp.failure()
	}
	if final && b.err != nil {
		return b.err
	}
	var sp obs.Span
	if final {
		sp = s.cp.opts.Trace.Start("job", "chunk-commit", obs.PELane(s.pc.prog.PE), s.pc.span)
	}
	var err error
	if b.n > 0 {
		err = s.pc.w.write(b.buf[:b.n])
	}
	var off int64
	if final && err == nil {
		off, err = s.pc.w.commit(&b.chunkTrailer)
	}
	if final {
		sp.End(obs.U64("chunk", uint64(chunk)), obs.U64("bytes", b.wireBytes), obs.U64("edges", b.edges))
	}
	if err != nil || !final {
		return err
	}
	s.cp.add(s.pc, pendingChunk{
		rec:   ChunkRecord{Digest: hex.EncodeToString(b.payload[:]), End: off, Edges: b.edges},
		chunk: uint64(chunk),
	})
	return nil
}

// PEStatus is one PE's progress as seen by Inspect.
type PEStatus struct {
	PE         uint64
	Worker     uint64
	Chunks     uint64
	ChunksDone uint64
	Edges      uint64
	Done       bool
}

// WorkerStatus is one worker's progress as seen by Inspect.
type WorkerStatus struct {
	Worker  uint64
	Started bool // manifest present
	PEs     []PEStatus
}

// Status is the aggregated state of a job directory.
type Status struct {
	Dir      string
	Spec     Spec
	SpecHash string
	Workers  []WorkerStatus
}

// Inspect reads a job directory's spec and every worker manifest and
// returns the aggregated progress. Workers without a manifest appear as
// not started with zero progress.
func Inspect(dir string) (*Status, error) {
	store, err := storage.Resolve(dir)
	if err != nil {
		return nil, err
	}
	spec, err := loadSpec(store, dir)
	if err != nil {
		return nil, err
	}
	manifests, err := loadManifests(store, dir, spec)
	if err != nil {
		return nil, err
	}
	st := &Status{Dir: dir, Spec: spec, SpecHash: spec.Hash()}
	for w, m := range manifests {
		ws := WorkerStatus{Worker: uint64(w), Started: m != nil}
		lo, hi := spec.WorkerPEs(uint64(w))
		for pe := lo; pe < hi; pe++ {
			ps := PEStatus{PE: pe, Worker: uint64(w), Chunks: spec.ChunksPerPE}
			if m != nil {
				if p := m.progress(pe); p != nil {
					ps.ChunksDone, ps.Edges, ps.Done = p.ChunksDone, p.Edges, p.Done
				}
			}
			ws.PEs = append(ws.PEs, ps)
		}
		st.Workers = append(st.Workers, ws)
	}
	return st, nil
}

// loadManifests reads every worker manifest of a job, indexed by worker;
// a worker that has not started has none (nil).
func loadManifests(store storage.Backend, dir string, spec Spec) ([]*Manifest, error) {
	manifests := make([]*Manifest, spec.Workers)
	for w := range manifests {
		path := ManifestPath(dir, uint64(w))
		if _, err := store.Stat(path); errors.Is(err, fs.ErrNotExist) {
			continue
		} else if err != nil {
			return nil, fmt.Errorf("job: cannot stat manifest for worker %d: %w", w, err)
		}
		m, err := readManifest(store, dir, spec, uint64(w))
		if err != nil {
			return nil, err
		}
		manifests[w] = m
	}
	return manifests, nil
}

// Complete reports whether every PE of every worker is done.
func (st *Status) Complete() bool {
	for _, w := range st.Workers {
		for _, p := range w.PEs {
			if !p.Done {
				return false
			}
		}
	}
	return true
}

// CompletedPEs returns the PEs whose shards are finalized, in PE order.
func (st *Status) CompletedPEs() []uint64 {
	var pes []uint64
	for _, w := range st.Workers {
		for _, p := range w.PEs {
			if p.Done {
				pes = append(pes, p.PE)
			}
		}
	}
	return pes
}

// Gaps returns the resumable gaps: every PE that is not finalized, with
// its committed chunk count — exactly what a resume would pick up.
func (st *Status) Gaps() []PEStatus {
	var gaps []PEStatus
	for _, w := range st.Workers {
		for _, p := range w.PEs {
			if !p.Done {
				gaps = append(gaps, p)
			}
		}
	}
	return gaps
}
