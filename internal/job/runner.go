package job

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"math"
	"os"
	"strings"
	"time"

	kagen "repro"
	"repro/internal/failpoint"
	"repro/internal/graph"
	"repro/internal/merkle"
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
	// durable — shard bytes held by the store, manifest published — with
	// the PE, its committed chunk count and its cumulative committed
	// edges. On the filesystem that is after every chunk; on S3 chunks
	// promote when their multipart part finishes uploading, so several
	// calls can arrive back to back. Returning an error aborts the run at
	// exactly the state a crash at that point would leave: the cancel,
	// test and CI interruption hook.
	OnCheckpoint func(pe, chunksDone, edges uint64) error
	// Trace, if set, collects spans for this worker's run — worker → PE →
	// chunk-generate/chunk-commit (plus the storage layer's upload-part
	// spans when this trace is also installed via obs.SetActive) — and
	// persists them to <dir>/trace/workerNNNNN.json before Run returns.
	// Nil disables tracing entirely; the hot path then sees only nil
	// checks.
	Trace *obs.Trace
	// OnCommitLatency, if set, observes the wall seconds the ordered stage
	// spent on each successfully committed chunk: writing the chunk's
	// finished blocks into the shard plus the backend commit (fsync / part
	// seal), keyed by PE. Encoding and compression are not in it — they
	// ran earlier, on the goroutine that generated the chunk. Unlike
	// OnCheckpoint — which fires at manifest-promotion time and so
	// interleaves across PEs on striped backends — this fires at commit
	// time on the committing goroutine.
	OnCommitLatency func(pe uint64, seconds float64)
}

// Run executes (or, if a manifest with progress exists, continues) one
// worker's share of a job: each PE of the worker's range streams its
// remaining chunks into its shard, checkpointing after every chunk. It
// needs no communication with other workers — the spec alone determines
// every byte each of them writes.
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
		if manifest, err = readManifest(store, mpath, spec); err != nil {
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
	for i := range manifest.PEs {
		prog := &manifest.PEs[i]
		if prog.Done {
			continue
		}
		if err := runPE(store, dir, spec, streamer, format, encs, manifest, mpath, prog, opts, log); err != nil {
			return fmt.Errorf("job: worker %d, PE %d: %w", worker, prog.PE, err)
		}
	}
	return nil
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
// the checkpoint sink writes and commits them.
func runPE(store storage.Backend, dir string, spec Spec, streamer kagen.Streamer, format kagen.Format, encs *chunkEncoders, manifest *Manifest, mpath string, prog *PEProgress, opts RunOptions, log *slog.Logger) (err error) {
	first, count := spec.ChunkRange(prog.PE)
	path := ShardPath(dir, prog.PE, format)
	log.Info("pe starting", "pe", prog.PE, "chunks", count, "chunks_done", prog.ChunksDone)
	peSpan := opts.Trace.Start("job", "pe", obs.PELane(prog.PE), obs.Span{})
	defer func() {
		peSpan.End(obs.U64("pe", prog.PE), obs.U64("chunks_done", prog.ChunksDone), obs.U64("edges", prog.Edges))
		if err == nil {
			log.Info("pe finished", "pe", prog.PE, "chunks", count, "edges", prog.Edges)
		}
	}()
	if prog.Offset > 0 && store.PartialReads() {
		// Before extending committed state, audit it: re-hash the committed
		// chunks in the store against their manifest digests. A mismatch
		// means the shard rotted (or a failpoint bit it) since the
		// checkpoint — appending to it would launder corruption into a
		// "complete" job, so the bad suffix is quarantined and regenerated
		// instead. Backends without partial reads (S3: parts of an open
		// multipart upload are unreadable) skip the audit — there the store
		// verified every part's checksum on receipt.
		if err := auditCommitted(store, path, format, streamer.N(), manifest, mpath, prog); err != nil {
			return err
		}
	}

	var w *shardWriter
	var headerPending int64 // header committed to the writer but not yet durable/recorded
	fresh := func() error {
		// Fresh shard: commit the header as checkpoint zero. It is
		// recorded in the manifest only once durable — immediately on the
		// filesystem, after its part uploads on S3.
		var off int64
		if w, off, err = createShard(store, path, format, streamer.N(), &encs.enc[0]); err != nil {
			return err
		}
		if dur, derr := w.Durable(); derr != nil {
			w.Close()
			return derr
		} else if dur >= off {
			prog.Offset, prog.HeaderEnd = off, off
			if err = writeManifest(store, mpath, manifest); err != nil {
				w.Close()
				return err
			}
		} else {
			headerPending = off
		}
		return nil
	}
	if prog.Offset == 0 {
		if err := fresh(); err != nil {
			return err
		}
	} else if w, err = reopenShard(store, path, prog.Offset); errors.Is(err, storage.ErrNoShard) {
		// The store-side partial state is gone (expired multipart upload,
		// swept staging): roll the PE back to zero — durably, so a crash
		// mid-regeneration cannot resurrect the stale offset — and start
		// over. Determinism makes the reset safe: the regenerated bytes
		// are identical to the lost ones.
		*prog = PEProgress{PE: prog.PE}
		if err := writeManifest(store, mpath, manifest); err != nil {
			return err
		}
		if err := fresh(); err != nil {
			return err
		}
	} else if err != nil {
		return err
	}

	sink := &checkpointSink{
		store: store, local: store.Local(), w: w, path: path,
		manifest: manifest, mpath: mpath, prog: prog,
		firstChunk: first, headerPending: headerPending,
		onCheckpoint:    opts.OnCheckpoint,
		onCommitLatency: opts.OnCommitLatency,
		trace:           opts.Trace, peSpan: peSpan, log: log,
	}
	produce := func(worker, chunk int, send func(*block, bool) bool) {
		// chunk-generate covers everything the producing goroutine does
		// for the chunk: generate, encode, digest, compress.
		sp := opts.Trace.Start("job", "chunk-generate", obs.GenLane(uint64(chunk)), peSpan)
		enc := &encs.enc[worker]
		enc.begin(send, opts.Trace != nil)
		last := enc.finish(streamer.StreamChunk(uint64(chunk), enc.emit))
		if opts.Trace != nil {
			sp.End(obs.U64("chunk", uint64(chunk)), obs.U64("edges", last.edges),
				obs.U64("payload_bytes", last.payloadBytes), obs.U64("wire_bytes", last.wireBytes),
				obs.U64("encode_ns", uint64(enc.encodeNs)))
		}
		send(last, true)
	}
	err = pe.Ordered(int(first+prog.ChunksDone), int(count-prog.ChunksDone), len(encs.enc),
		produce, sink.deliver, encs.blocks.put)
	if err != nil {
		w.Close() // keep the partial state: committed bytes survive for resume
		return err
	}
	// Publish the shard, then promote whatever was still waiting on
	// uploads — after Finalize the whole shard is durable by definition.
	if err := w.Finalize(); err != nil {
		return err
	}
	if err := sink.promote(math.MaxInt64); err != nil {
		return err
	}
	leaves, err := prog.leafDigests()
	if err != nil {
		return err
	}
	root := merkle.Root(leaves)
	prog.Root = hex.EncodeToString(root[:])
	prog.Done = true
	return writeManifest(store, mpath, manifest)
}

// pendingChunk is a chunk committed to the shard writer whose checkpoint
// is not yet durable on the backend — on S3, a chunk whose part is still
// uploading. It holds everything promote needs to record the chunk once
// Durable catches up.
type pendingChunk struct {
	rec   ChunkRecord
	chunk uint64 // global chunk index
}

// checkpointSink is the ordered stage of one PE: it receives the PE's
// finished blocks in chunk order (the consume side of pe.Ordered), writes
// them into the shard, and turns every chunk's last block into a
// checkpoint — shard commit (fsync / sealed multipart part), then atomic
// manifest publish. The manifest only ever records durable offsets: on
// the filesystem a commit is immediately durable, so every chunk promotes
// with its own checkpoint; on S3 committed chunks wait in the pending
// tail until the contiguous uploaded prefix (Durable) covers them, so the
// manifest can lag generation but never lead the store.
type checkpointSink struct {
	store         storage.Backend
	local         bool
	w             *shardWriter
	path          string // shard destination, used only by fault injection
	manifest      *Manifest
	mpath         string
	prog          *PEProgress
	firstChunk    uint64
	headerPending int64 // committed header end not yet recorded (0 = recorded)
	tail          []pendingChunk
	onCheckpoint  func(pe, chunksDone, edges uint64) error
	// Observability. All nil/zero when disabled: deliver then pays two nil
	// checks and promote pays one.
	onCommitLatency func(pe uint64, seconds float64)
	commitTime      time.Duration // spent on the chunk in flight (onCommitLatency only)
	trace           *obs.Trace
	peSpan          obs.Span
	log             *slog.Logger
}

// deliver takes one block of a chunk. A chunk's bytes are appended as
// they arrive; its last block commits it. A chunk that failed to generate
// surfaces here, in chunk order, and commits nothing.
func (s *checkpointSink) deliver(chunk int, b *block, final bool) error {
	if final && b.err != nil {
		return b.err
	}
	var sp obs.Span
	if final {
		sp = s.trace.Start("job", "chunk-commit", obs.PELane(s.prog.PE), s.peSpan)
	}
	var t0 time.Time
	if s.onCommitLatency != nil {
		t0 = time.Now()
	}
	var err error
	if b.n > 0 {
		err = s.w.write(b.buf[:b.n])
	}
	start, off := s.w.committed, int64(0)
	if final && err == nil {
		off, err = s.w.commit(&b.chunkTrailer)
	}
	if s.onCommitLatency != nil {
		s.commitTime += time.Since(t0)
	}
	if final {
		sp.End(obs.U64("chunk", uint64(chunk)), obs.U64("bytes", b.wireBytes), obs.U64("edges", b.edges))
	}
	if err != nil || !final {
		return err
	}
	if s.onCommitLatency != nil {
		s.onCommitLatency(s.prog.PE, s.commitTime.Seconds())
		s.commitTime = 0
	}
	s.tail = append(s.tail, pendingChunk{
		rec:   ChunkRecord{Digest: hex.EncodeToString(b.payload[:]), End: off, Edges: b.edges},
		chunk: uint64(chunk),
	})
	dur, err := s.w.Durable()
	if err != nil {
		return err
	}
	if err := s.promote(dur); err != nil {
		return err
	}
	if failpoint.Armed() && s.local {
		// The byte-level fault injectors reach into the shard with os-level
		// tooling — local backends only.
		if err := s.inject(start, off); err != nil {
			return err
		}
	} else if failpoint.Armed() && failpoint.Eval("job/crash") {
		return failpoint.Crash("job/crash")
	}
	return nil
}

// promote records every pending chunk whose committed bytes the backend
// durably holds (End <= dur) into the PE's progress, publishes the
// manifest once if anything moved, and fires the checkpoint hook once
// per promoted chunk. The header must promote before any chunk can.
func (s *checkpointSink) promote(dur int64) error {
	changed := false
	if s.headerPending > 0 && s.headerPending <= dur {
		s.prog.Offset, s.prog.HeaderEnd = s.headerPending, s.headerPending
		s.headerPending = 0
		changed = true
	}
	type hookState struct{ done, edges uint64 }
	var calls []hookState
	if s.headerPending == 0 {
		for len(s.tail) > 0 && s.tail[0].rec.End <= dur {
			pc := s.tail[0]
			s.tail = s.tail[1:]
			s.prog.ChunksDone = pc.chunk - s.firstChunk + 1
			s.prog.Offset = pc.rec.End
			s.prog.Edges += pc.rec.Edges
			s.prog.Chunks = append(s.prog.Chunks, pc.rec)
			calls = append(calls, hookState{s.prog.ChunksDone, s.prog.Edges})
			changed = true
		}
	}
	if !changed {
		return nil
	}
	if err := writeManifest(s.store, s.mpath, s.manifest); err != nil {
		return err
	}
	if s.log != nil && s.log.Enabled(context.Background(), slog.LevelDebug) {
		// Guarded: per-chunk logging must cost one atomic level check when
		// the level is above debug, not an argument build.
		s.log.Debug("checkpoint", "pe", s.prog.PE,
			"chunks_done", s.prog.ChunksDone, "edges", s.prog.Edges, "offset", s.prog.Offset)
	}
	if s.onCheckpoint != nil {
		for _, c := range calls {
			if err := s.onCheckpoint(s.prog.PE, c.done, c.edges); err != nil {
				return err
			}
		}
	}
	return nil
}

// inject evaluates the post-checkpoint fault-injection sites against the
// chunk just committed as bytes [start, end) of the shard. Sites that
// need chunk bytes to corrupt only count non-empty chunks, so arming
// "fire on the 2nd evaluation" always hits a real chunk.
func (s *checkpointSink) inject(start, end int64) error {
	path := localPath(s.path)
	if end > start {
		if failpoint.Eval("job/chunk-bitflip") {
			// Flip one bit in the middle of the committed chunk — the rot a
			// verify pass must detect. The run continues: the corruption is
			// already durable and the manifest already vouches for the
			// original bytes.
			if err := flipByteAt(path, start+(end-start)/2); err != nil {
				return err
			}
		}
		if failpoint.Eval("job/shard-truncate") {
			// Cut the committed chunk in half and crash: the manifest now
			// leads the shard, which resume must refuse to paper over.
			if err := os.Truncate(path, start+(end-start)/2); err != nil {
				return err
			}
			return failpoint.Crash("job/shard-truncate")
		}
	}
	if failpoint.Eval("job/torn-tail") {
		// Append garbage past the committed offset and crash — the torn
		// tail a real crash mid-batch leaves, which resume truncates away.
		f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			return err
		}
		_, werr := f.Write([]byte("\x00torn tail garbage\xff"))
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return werr
		}
		return failpoint.Crash("job/torn-tail")
	}
	if failpoint.Eval("job/crash") {
		// Clean crash between checkpoints: disk state is exactly a
		// committed snapshot.
		return failpoint.Crash("job/crash")
	}
	return nil
}

// flipByteAt XORs one bit of a file in place and syncs it.
func flipByteAt(path string, off int64) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		return err
	}
	b[0] ^= 0x01
	if _, err := f.WriteAt(b[:], off); err != nil {
		return err
	}
	return f.Sync()
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
	st := &Status{Dir: dir, Spec: spec, SpecHash: spec.Hash()}
	for w := uint64(0); w < spec.Workers; w++ {
		ws := WorkerStatus{Worker: w}
		lo, hi := spec.WorkerPEs(w)
		var m *Manifest
		if _, serr := store.Stat(ManifestPath(dir, w)); serr == nil {
			if m, err = readManifest(store, ManifestPath(dir, w), spec); err != nil {
				return nil, err
			}
			ws.Started = true
		} else if !errors.Is(serr, fs.ErrNotExist) {
			return nil, fmt.Errorf("job: cannot stat manifest for worker %d: %w", w, serr)
		}
		for pe := lo; pe < hi; pe++ {
			ps := PEStatus{PE: pe, Worker: w, Chunks: spec.ChunksPerPE}
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

// Merge streams every finalized shard, in PE order, into one edge-list
// stream of the job's format on out. It refuses to merge an incomplete
// job — use Inspect to report the gaps instead.
func Merge(dir string, out io.Writer) error {
	// Merge spans land on the process-global trace: merge runs outside
	// any worker, so there is no RunOptions to thread a trace through.
	sp := obs.Active().Start("job", "merge", obs.LaneWorker, obs.Span{})
	defer sp.End(obs.Str("dir", dir))
	store, err := storage.Resolve(dir)
	if err != nil {
		return err
	}
	st, err := Inspect(dir)
	if err != nil {
		return err
	}
	spec := st.Spec
	if gaps := st.Gaps(); len(gaps) > 0 {
		return fmt.Errorf("job: %d of %d PEs incomplete — run or resume the missing workers before merging", len(gaps), spec.PEs)
	}
	streamer, err := spec.Streamer()
	if err != nil {
		return err
	}
	format := spec.ShardFormat()
	sink := kagen.NewFormatSink(out, format)
	err = sink.Begin(streamer.N(), spec.PEs)
	for pe := uint64(0); pe < spec.PEs && err == nil; pe++ {
		// Shards are decoded incrementally and re-encoded batch by batch,
		// so merge memory stays O(batch) — a job sized to generate within
		// tens of MB must not materialize whole shards to merge.
		err = streamShardEdges(store, ShardPath(dir, pe, format), format, func(batch []kagen.Edge) error {
			return sink.Batch(pe, batch)
		})
		if err == nil {
			err = sink.EndPE(pe)
		}
	}
	if cerr := sink.Close(); err == nil {
		err = cerr
	}
	return err
}

// streamShardEdges reads one shard object and delivers its edges in
// bounded, non-empty batches, using the shared graph decoders so the
// parsing rules stay identical to the materializing readers.
func streamShardEdges(store storage.Backend, path string, format kagen.Format, deliver func([]kagen.Edge) error) error {
	f, err := store.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var r io.Reader = f
	if format.Compressed() {
		gz, err := gzip.NewReader(f)
		if err != nil {
			return err
		}
		defer gz.Close()
		r = gz
	}
	const batchCap = 8192
	batch := make([]kagen.Edge, 0, batchCap)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		err := deliver(batch)
		batch = batch[:0]
		return err
	}
	edge := func(u, v uint64) error {
		batch = append(batch, kagen.Edge{U: u, V: v})
		if len(batch) == batchCap {
			return flush()
		}
		return nil
	}
	if format.Binary() {
		err = graph.StreamEdgeListBinary(r, nil, edge)
	} else {
		err = graph.StreamEdgeListText(r, nil, edge)
	}
	if err != nil {
		return fmt.Errorf("job: shard %s: %w", path, err)
	}
	return flush()
}

// MergeToFile is Merge writing to a freshly created destination, local
// or object store; nothing is visible there until the merge succeeds.
func MergeToFile(dir, path string) error {
	store, err := storage.Resolve(path)
	if err != nil {
		return err
	}
	w, err := store.Create(path, false)
	if err != nil {
		return err
	}
	if err := Merge(dir, w); err != nil {
		w.Abort()
		return err
	}
	return w.Finalize()
}
