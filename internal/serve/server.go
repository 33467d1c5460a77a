// Package serve is the multi-tenant generation service over the job
// runner: an HTTP API where submitting a job.Spec returns a job ID, a
// bounded worker pool executes jobs through internal/job's
// chunk-granular checkpoint machinery, and results stream back as one
// merged edge list or as per-PE shards with HTTP range support.
//
// The paper's communication-free property makes the service shape
// almost free. The spec's SHA-256 hash is a complete instance identity —
// (model, parameters, seed, partition) determine every output byte — so
// the hash is the job ID, completed job directories form a
// content-addressed result cache (an identical re-submission returns the
// existing job without touching a generator), and crash recovery is a
// restart: the startup scan finds every incomplete job directory and
// re-enqueues it, and each resumed worker re-enters its stream at the
// last durable checkpoint, producing bytes identical to an uninterrupted
// run.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"net/textproto"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	kagen "repro"
	"repro/internal/job"
	"repro/internal/obs"
	"repro/internal/storage"
)

// Job lifecycle states. Queued and running live only in memory; the
// durable truth is the job directory (spec + manifests), which is why a
// crashed server re-derives queued/running as "resume" and complete as
// "cache entry" from the directory alone.
const (
	StateQueued      = "queued"
	StateRunning     = "running"
	StateComplete    = "complete"
	StateFailed      = "failed"
	StateCancelled   = "cancelled"
	StateInterrupted = "interrupted" // shutdown mid-run; resumed on restart
)

var (
	errCancelled = errors.New("serve: job cancelled")
	errShutdown  = errors.New("serve: server shutting down")
)

// Config tunes a Server; only Dir is required.
type Config struct {
	// Dir is the data directory: one job directory per spec hash.
	Dir string
	// Executors bounds the number of concurrently running jobs (default 2).
	Executors int
	// QueueCap bounds the submission queue; a full queue rejects new
	// submissions with 429 (default 16).
	QueueCap int
	// Goroutines bounds each job's chunk pipeline (0 = GOMAXPROCS).
	Goroutines int
	// OnCheckpoint, if set, runs after every durable checkpoint of every
	// job; returning an error aborts that job's run exactly as a crash at
	// that checkpoint would. Test hook.
	OnCheckpoint func(jobID string, pe, chunks uint64) error
	// Pprof mounts net/http/pprof under /debug/pprof/ on the handler.
	// Off by default: profiling endpoints on a public listener are a
	// conscious choice, not a side effect.
	Pprof bool
	// DisableTrace turns off per-job span collection. Traces are on by
	// default (bounded per worker, a few MB at worst) because a stall
	// report without a trace is just a wall clock.
	DisableTrace bool
}

// traceCapPerWorker bounds one worker run's span arena (~96 B/slot).
const traceCapPerWorker = 1 << 14

// jobState is the in-memory view of one job; all fields are guarded by
// Server.mu.
type jobState struct {
	id          string
	dir         string
	spec        job.Spec
	state       string
	errMsg      string
	cancel      context.CancelFunc // set while running
	chunksDone  uint64
	chunksTotal uint64
	edges       uint64
	queuedAt    time.Time // when the job entered the queue (zero = resumed/unknown)
	// integrity is the last verify pass's outcome (nil = never verified).
	// Snapshots are immutable: handlers replace the pointer, never mutate
	// through it.
	integrity *IntegrityStatus
}

// IntegrityStatus is the outcome of the last POST /jobs/{id}/verify.
type IntegrityStatus struct {
	// State is "verified" (clean pass), "corrupt" (faults found and not
	// — or not fully — repaired), or "repaired" (faults found, repaired,
	// and a follow-up pass came back clean).
	State         string    `json:"state"`
	ChunksChecked int       `json:"chunks_checked"`
	Faults        int       `json:"faults"`
	CheckedAt     time.Time `json:"checked_at"`
}

// Server is the generation service. Create with New, mount Handler on an
// http.Server, stop with Close.
type Server struct {
	cfg     Config
	metrics *Metrics
	log     *slog.Logger
	mux     *http.ServeMux
	pool    *pool
	cancel  context.CancelFunc
	ctx     context.Context

	mu   sync.Mutex // guards jobs and every jobState field
	jobs map[string]*jobState
}

// New opens (or creates) the data directory, registers every existing
// job — completed directories as cache entries, incomplete ones
// re-enqueued for resume — and starts the executor pool.
func New(cfg Config) (*Server, error) {
	if cfg.Dir == "" {
		return nil, errors.New("serve: Config.Dir is required")
	}
	if cfg.Executors <= 0 {
		cfg.Executors = 2
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 16
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		metrics: NewMetrics(),
		log:     obs.Logger("serve"),
		cancel:  cancel,
		ctx:     ctx,
		jobs:    make(map[string]*jobState),
	}
	// Feed S3 part-upload latencies into the histogram. Process-global
	// like the upload counters themselves; Close uninstalls it.
	storage.SetPartUploadObserver(func(seconds float64) { s.metrics.PartUpload.Observe(seconds) })

	// Terminally failed jobs live under failed/ so the startup scan never
	// re-enqueues them: without the compaction, a job that fails its
	// resume on every restart would be retried forever. They stay
	// registered (listable, DELETEable) but inert.
	for _, dir := range mustList(filepath.Join(cfg.Dir, "failed")) {
		id := filepath.Base(dir)
		msg := "failed (moved to failed/ by a previous run)"
		if b, err := os.ReadFile(filepath.Join(dir, "error.txt")); err == nil && len(b) > 0 {
			msg = string(b)
		}
		js := &jobState{id: id, dir: dir, state: StateFailed, errMsg: msg}
		if spec, err := job.Load(dir); err == nil {
			js.spec, js.chunksTotal = spec, spec.TotalChunks()
		}
		s.jobs[id] = js
	}

	dirs, err := job.List(cfg.Dir)
	if err != nil {
		cancel()
		return nil, err
	}
	var resume []*jobState
	for _, dir := range dirs {
		st, err := job.Inspect(dir)
		if err != nil {
			// A corrupt directory must not take the server down — surface
			// it as a failed job and compact it into failed/ so the next
			// restart does not rediscover (and re-report) it.
			js := &jobState{
				id: filepath.Base(dir), dir: dir, state: StateFailed, errMsg: err.Error(),
			}
			s.moveToFailed(js)
			s.jobs[js.id] = js
			continue
		}
		js := &jobState{
			id: st.SpecHash, dir: dir, spec: st.Spec,
			chunksTotal: st.Spec.TotalChunks(),
		}
		for _, w := range st.Workers {
			for _, pe := range w.PEs {
				js.chunksDone += pe.ChunksDone
				js.edges += pe.Edges
			}
		}
		if st.Complete() {
			js.state = StateComplete
		} else {
			js.state = StateQueued
			resume = append(resume, js)
		}
		s.jobs[js.id] = js
	}
	sort.Slice(resume, func(i, j int) bool { return resume[i].id < resume[j].id })

	// The resume backlog must never be rejected by backpressure — size the
	// queue to hold all of it on top of the configured submission bound.
	s.pool = newPool(ctx, cfg.Executors, cfg.QueueCap+len(resume), &s.metrics.QueueDepth)
	for _, js := range resume {
		s.metrics.JobsResumed.Inc()
		js := js
		js.queuedAt = time.Now()
		s.log.Info("resuming incomplete job", "job", js.id, "model", js.spec.Model,
			"chunks_done", js.chunksDone, "chunks_total", js.chunksTotal)
		s.pool.trySubmit(func(ctx context.Context) { s.execute(ctx, js) })
	}
	s.log.Info("startup scan done", "dir", cfg.Dir,
		"jobs", len(s.jobs), "resumed", len(resume), "executors", cfg.Executors)

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /jobs", s.handleList)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("POST /jobs/{id}/verify", s.handleVerify)
	s.mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /jobs/{id}/shards/{pe}", s.handleShard)
	s.mux.HandleFunc("GET /jobs/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	if cfg.Pprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s, nil
}

// mustList is job.List tolerating a missing root (no failed/ yet).
func mustList(root string) []string {
	dirs, err := job.List(root)
	if err != nil {
		return nil
	}
	return dirs
}

// moveToFailed compacts a terminally failed job into failed/<id>: the
// directory is moved out of the startup scan's path (so restarts stop
// retrying it), the failure message is persisted beside it, and js.dir
// is repointed so status and DELETE keep working.
func (s *Server) moveToFailed(js *jobState) {
	dest := filepath.Join(s.cfg.Dir, "failed", js.id)
	if js.dir == dest {
		return
	}
	if err := os.MkdirAll(filepath.Join(s.cfg.Dir, "failed"), 0o755); err != nil {
		return // leave it in place; the next restart reports it again
	}
	os.RemoveAll(dest)
	if err := os.Rename(js.dir, dest); err != nil {
		return
	}
	js.dir = dest
	os.WriteFile(filepath.Join(dest, "error.txt"), []byte(js.errMsg), 0o644)
}

// statusWriter records the response code for the request log. Unwrap
// keeps http.ResponseController (and everything built on it) working
// through the wrapper.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// Handler returns the HTTP handler to mount: the API mux wrapped in
// request-lifecycle logging (one line per request at info level — the
// deferred log also fires when a handler panics to abort a stream).
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !s.log.Enabled(r.Context(), slog.LevelInfo) {
			s.mux.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		defer func() {
			s.log.Info("request", "method", r.Method, "path", r.URL.Path,
				"status", sw.code, "remote", r.RemoteAddr,
				"elapsed", time.Since(start).Seconds())
		}()
		s.mux.ServeHTTP(sw, r)
	})
}

// Metrics returns the server's metric set (shared, live).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Close stops the executors: running jobs abort at their next durable
// checkpoint (state "interrupted", resumed by the next startup scan) and
// queued jobs stay queued on disk. Close returns once every executor has
// exited; it does not touch job directories.
func (s *Server) Close() {
	s.log.Info("shutting down", "dir", s.cfg.Dir)
	s.cancel()
	s.pool.wait()
	storage.SetPartUploadObserver(nil)
}

// JobStatus is the JSON shape of one job in API responses.
type JobStatus struct {
	ID          string           `json:"id"`
	State       string           `json:"state"`
	Model       string           `json:"model"`
	Format      string           `json:"format"`
	Seed        uint64           `json:"seed"`
	PEs         uint64           `json:"pes"`
	ChunksPerPE uint64           `json:"chunks_per_pe"`
	Workers     uint64           `json:"workers"`
	ChunksDone  uint64           `json:"chunks_done"`
	ChunksTotal uint64           `json:"chunks_total"`
	Edges       uint64           `json:"edges"`
	Cached      bool             `json:"cached,omitempty"`
	Error       string           `json:"error,omitempty"`
	Integrity   *IntegrityStatus `json:"integrity,omitempty"`
}

// statusLocked snapshots a jobState; the caller holds s.mu.
func (js *jobState) statusLocked() JobStatus {
	return JobStatus{
		ID: js.id, State: js.state, Model: js.spec.Model,
		Format: js.spec.Format, Seed: js.spec.Seed, PEs: js.spec.PEs,
		ChunksPerPE: js.spec.ChunksPerPE, Workers: js.spec.Workers,
		ChunksDone: js.chunksDone, ChunksTotal: js.chunksTotal,
		Edges: js.edges, Error: js.errMsg, Integrity: js.integrity,
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// handleSubmit accepts a job.Spec, returns the job it identifies:
// 202 a fresh job was enqueued, 200 the spec matched an existing job
// (complete = content-addressed cache hit, in-flight = dedupe),
// 429 the submission queue is full.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := job.DecodeSpec(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	id := spec.Hash()

	s.mu.Lock()
	if js, ok := s.jobs[id]; ok {
		switch js.state {
		case StateComplete:
			s.metrics.CacheHits.Inc()
			st := js.statusLocked()
			st.Cached = true
			s.mu.Unlock()
			writeJSON(w, http.StatusOK, st)
			return
		case StateQueued, StateRunning, StateInterrupted:
			s.metrics.JobsDeduped.Inc()
			st := js.statusLocked()
			s.mu.Unlock()
			writeJSON(w, http.StatusOK, st)
			return
		default:
			// failed or cancelled: drop the stale directory (a compacted
			// failure lives under failed/) and enqueue afresh under the
			// same identity.
			stale := js.dir
			delete(s.jobs, id)
			os.RemoveAll(stale)
		}
	}
	js := &jobState{
		id: id, dir: filepath.Join(s.cfg.Dir, id), spec: spec,
		state: StateQueued, chunksTotal: spec.TotalChunks(),
		queuedAt: time.Now(),
	}
	s.jobs[id] = js
	s.mu.Unlock()

	// Init is durable (fsynced file + dir): once we answer 202, a crashed
	// server still finds — and finishes — the job on restart.
	if _, err := os.Stat(job.SpecPath(js.dir)); errors.Is(err, os.ErrNotExist) {
		if err := job.Init(js.dir, spec); err != nil {
			s.dropJob(js)
			writeError(w, http.StatusInternalServerError, "init: %v", err)
			return
		}
	} else if err != nil {
		s.dropJob(js)
		writeError(w, http.StatusInternalServerError, "stat: %v", err)
		return
	}
	if !s.pool.trySubmit(func(ctx context.Context) { s.execute(ctx, js) }) {
		s.metrics.QueueRejected.Inc()
		s.dropJob(js)
		os.RemoveAll(js.dir)
		s.log.Warn("submission rejected: queue full", "job", id, "model", spec.Model, "queue_cap", s.cfg.QueueCap)
		writeError(w, http.StatusTooManyRequests, "submission queue full (%d queued)", s.cfg.QueueCap)
		return
	}
	s.metrics.JobsSubmitted.Inc()
	s.metrics.JobsByModel.Inc(spec.Model)
	s.log.Info("job accepted", "job", id, "model", spec.Model,
		"pes", spec.PEs, "workers", spec.Workers, "chunks", js.chunksTotal)

	s.mu.Lock()
	st := js.statusLocked()
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) dropJob(js *jobState) {
	s.mu.Lock()
	if cur, ok := s.jobs[js.id]; ok && cur == js {
		delete(s.jobs, js.id)
	}
	s.mu.Unlock()
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]JobStatus, 0, len(s.jobs))
	for _, js := range s.jobs {
		out = append(out, js.statusLocked())
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

// lookup returns the job for the request's {id}, or writes 404.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*jobState, bool) {
	id := r.PathValue("id")
	s.mu.Lock()
	js, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "no job %s", id)
		return nil, false
	}
	return js, true
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	js, ok := s.lookup(w, r)
	if !ok {
		return
	}
	s.mu.Lock()
	st := js.statusLocked()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

// handleCancel cancels a queued or running job (its partial directory is
// removed — a cancelled partial result must not linger in the
// content-addressed cache) or evicts a finished one.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	js, ok := s.lookup(w, r)
	if !ok {
		return
	}
	s.mu.Lock()
	switch js.state {
	case StateQueued:
		js.state = StateCancelled
		js.errMsg = "cancelled before start"
		s.metrics.JobsCancelled.Inc()
		os.RemoveAll(js.dir)
	case StateRunning:
		// The executor observes the cancellation at its next checkpoint,
		// marks the job cancelled and removes the directory.
		js.cancel()
	case StateComplete, StateFailed, StateCancelled, StateInterrupted:
		delete(s.jobs, js.id)
		os.RemoveAll(js.dir)
	}
	st := js.statusLocked()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

// VerifyResponse is the JSON shape of POST /jobs/{id}/verify.
type VerifyResponse struct {
	Integrity *IntegrityStatus  `json:"integrity"`
	Faults    []job.Fault       `json:"faults,omitempty"`
	Repair    *job.RepairResult `json:"repair,omitempty"`
}

// handleVerify runs an integrity pass over a completed job: chunks are
// re-derived from the spec and checked against manifests, Merkle roots
// and disk bytes. Query parameters: all=true for an exhaustive pass,
// sample=N per-PE otherwise, repair=true to regenerate and splice
// whatever the pass finds (followed by a second pass to prove it clean).
// The outcome is recorded as the job's integrity status.
func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	js, ok := s.lookup(w, r)
	if !ok {
		return
	}
	s.mu.Lock()
	state, dir := js.state, js.dir
	s.mu.Unlock()
	if state != StateComplete {
		writeError(w, http.StatusConflict, "job %s is %s, not complete", js.id, state)
		return
	}
	q := r.URL.Query()
	opts := job.VerifyOptions{All: q.Get("all") == "true" || q.Get("all") == "1"}
	if v := q.Get("sample"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, "bad sample %q", v)
			return
		}
		opts.Sample = n
	}
	if v := q.Get("seed"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad seed %q", v)
			return
		}
		opts.Seed = n
	}
	repair := q.Get("repair") == "true" || q.Get("repair") == "1"

	// Verify and repair run without s.mu: they only read the spec and
	// touch the job directory under the per-worker file locks.
	res, err := job.Verify(dir, opts)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "verify: %v", err)
		return
	}
	s.metrics.VerifyChunksChecked.Add(uint64(res.ChunksChecked))
	s.metrics.VerifyFailures.Add(uint64(len(res.Faults)))

	resp := VerifyResponse{Faults: res.Faults}
	integrity := &IntegrityStatus{
		State: "verified", ChunksChecked: res.ChunksChecked,
		Faults: len(res.Faults), CheckedAt: time.Now().UTC(),
	}
	if !res.OK() {
		integrity.State = "corrupt"
		if repair {
			rep, err := job.Repair(dir, res.Faults)
			if err != nil {
				writeError(w, http.StatusInternalServerError, "repair: %v", err)
				return
			}
			s.metrics.VerifyRepaired.Add(uint64(rep.ChunksSpliced + rep.PEsReset + rep.WorkersRebuilt))
			resp.Repair = rep
			after, err := job.Verify(dir, job.VerifyOptions{All: true})
			if err != nil {
				writeError(w, http.StatusInternalServerError, "re-verify: %v", err)
				return
			}
			s.metrics.VerifyChunksChecked.Add(uint64(after.ChunksChecked))
			s.metrics.VerifyFailures.Add(uint64(len(after.Faults)))
			if after.OK() && len(rep.Unrepaired) == 0 {
				integrity.State = "repaired"
			} else {
				resp.Faults = after.Faults
				integrity.Faults = len(after.Faults)
			}
		}
	}
	resp.Integrity = integrity
	s.mu.Lock()
	js.integrity = integrity
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

// contentType maps a shard format to its HTTP media type.
func contentType(f kagen.Format) string {
	switch {
	case f.Compressed():
		return "application/gzip"
	case f.Binary():
		return "application/octet-stream"
	default:
		return "text/plain; charset=utf-8"
	}
}

// handleResult streams the job's shards merged into one edge list of the
// job's format — the single-stream consumer path. Shard-granular (and
// range-capable) access is under /shards/{pe}.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	js, ok := s.lookup(w, r)
	if !ok {
		return
	}
	s.mu.Lock()
	state, dir, format := js.state, js.dir, js.spec.ShardFormat()
	s.mu.Unlock()
	if state != StateComplete {
		writeError(w, http.StatusConflict, "job %s is %s, not complete", js.id, state)
		return
	}
	// The result is the job's shard bytes, copied: the spec hash fixes
	// them — for .gz, whose gzip members are what the writer's deflate
	// made, together with the build that wrote the shards, which this
	// job directory keeps for good. So the hash is a strong ETag: a
	// client that has the bytes for this hash has *the* bytes, forever.
	etag := `"` + js.id + `"`
	w.Header().Set("ETag", etag)
	if r.Header.Get("If-None-Match") == etag {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", contentType(format))
	w.Header().Set("Content-Disposition",
		fmt.Sprintf("attachment; filename=%q", js.id[:12]+"."+format.Ext()))
	if err := job.Merge(dir, w); err != nil {
		// Headers are gone; all we can do is cut the stream short so the
		// client sees a truncated body instead of silently missing edges.
		panic(http.ErrAbortHandler)
	}
}

// handleShard serves one PE's shard through its storage backend.
// http.ServeContent gives range requests for free (the backend reader
// seeks, and on S3 a seek+read is a ranged GET), so consumers can stripe
// downloads or re-fetch a tail. A shard is served as soon as its PE is
// finalized, even while the rest of the job still runs — finalized
// shards are immutable.
func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) {
	js, ok := s.lookup(w, r)
	if !ok {
		return
	}
	pe, err := strconv.ParseUint(r.PathValue("pe"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad PE index %q", r.PathValue("pe"))
		return
	}
	s.mu.Lock()
	state, dir, spec := js.state, js.dir, js.spec
	s.mu.Unlock()
	if pe >= spec.PEs {
		writeError(w, http.StatusNotFound, "job has %d PEs, no PE %d", spec.PEs, pe)
		return
	}
	if state != StateComplete {
		st, err := job.Inspect(dir)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "inspect: %v", err)
			return
		}
		done := false
		for _, p := range st.CompletedPEs() {
			if p == pe {
				done = true
				break
			}
		}
		if !done {
			writeError(w, http.StatusConflict, "shard %d is not finalized yet", pe)
			return
		}
	}
	format := spec.ShardFormat()
	path := job.ShardPath(dir, pe, format)
	store, err := storage.Resolve(path)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "resolve shard: %v", err)
		return
	}
	f, err := store.Open(path)
	if err != nil {
		if errors.Is(err, storage.ErrNotExist) {
			writeError(w, http.StatusNotFound, "shard %d not found", pe)
			return
		}
		writeError(w, http.StatusInternalServerError, "open shard: %v", err)
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", contentType(format))
	// Spec hash + PE pins the shard's bytes; ServeContent handles
	// If-None-Match (304) and If-Range against it. The zero modtime
	// disables Last-Modified, which could not be trusted anyway — the
	// ETag is the whole identity.
	w.Header().Set("ETag", fmt.Sprintf(`"%s-pe%d"`, js.id, pe))
	if rng := r.Header.Get("Range"); rng != "" {
		r = r.Clone(r.Context())
		r.Header.Set("Range", satisfiableRange(rng, f.Size()))
	}
	http.ServeContent(w, r, storage.Base(path), time.Time{}, f)
}

// satisfiableRange drops the ranges of a Range header that select no
// byte of a size-byte body: a zero-length suffix ("-0"), or any suffix of
// an empty body. http.ServeContent would answer each with a part whose
// Content-Range ends before it starts. When none is left it asks for the
// range starting at size, which ServeContent answers 416 once If-Range
// has kept the Range (200 for an empty body, whose Range it ignores).
func satisfiableRange(h string, size int64) string {
	specs, ok := strings.CutPrefix(h, "bytes=")
	if !ok {
		return h
	}
	var keep []string
	for _, ra := range strings.Split(specs, ",") {
		start, end, _ := strings.Cut(ra, "-")
		end = textproto.TrimString(end)
		n, err := strconv.ParseInt(end, 10, 64)
		if textproto.TrimString(start) == "" && !strings.HasPrefix(end, "-") && err == nil && (n == 0 || size == 0) {
			continue
		}
		keep = append(keep, ra)
	}
	if len(keep) == 0 {
		return "bytes=" + strconv.FormatInt(size, 10) + "-"
	}
	return "bytes=" + strings.Join(keep, ",")
}

// handleTrace serves the merged Chrome trace-event JSON of a job's
// recorded worker runs — loadable directly in Perfetto or
// chrome://tracing. 404 when the job ran with tracing disabled (or
// predates it).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	js, ok := s.lookup(w, r)
	if !ok {
		return
	}
	s.mu.Lock()
	dir := js.dir
	s.mu.Unlock()
	// Buffer before writing: a merge error after the header is sent
	// could not change the status code anymore.
	var buf bytes.Buffer
	if err := job.WriteTraceJSON(dir, &buf); err != nil {
		if errors.Is(err, job.ErrNoTrace) {
			writeError(w, http.StatusNotFound, "job %s has no recorded trace", js.id)
		} else {
			writeError(w, http.StatusInternalServerError, "trace: %v", err)
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(buf.Bytes())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WriteText(w)
}

// execute runs one job to completion (or abort) on an executor.
func (s *Server) execute(srvCtx context.Context, js *jobState) {
	s.mu.Lock()
	if js.state != StateQueued {
		// Cancelled while queued; the directory is already gone.
		s.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(srvCtx)
	js.state = StateRunning
	js.cancel = cancel
	queuedAt := js.queuedAt
	s.mu.Unlock()
	defer cancel()

	if !queuedAt.IsZero() {
		s.metrics.QueueWait.Observe(time.Since(queuedAt).Seconds())
	}
	started := time.Now()
	s.metrics.JobsInflight.Add(1)
	err := s.runJob(ctx, js)
	s.metrics.JobsInflight.Add(-1)

	s.mu.Lock()
	defer s.mu.Unlock()
	js.cancel = nil
	switch {
	case err == nil:
		js.state = StateComplete
		s.metrics.JobsCompleted.Inc()
	case errors.Is(err, errCancelled):
		js.state = StateCancelled
		js.errMsg = "cancelled"
		s.metrics.JobsCancelled.Inc()
		// A cancelled partial must not be mistaken for a cache entry.
		os.RemoveAll(js.dir)
	case srvCtx.Err() != nil:
		// Shutdown, not failure: the directory stays, and the next
		// startup scan resumes from the last durable checkpoint.
		js.state = StateInterrupted
		js.errMsg = "interrupted by shutdown"
	default:
		js.state = StateFailed
		js.errMsg = err.Error()
		s.metrics.JobsFailed.Inc()
		// Compact immediately: the next startup scan must not re-enqueue
		// a job that just failed for a non-transient reason.
		s.moveToFailed(js)
	}
	if js.state == StateFailed {
		s.log.Error("job failed", "job", js.id, "err", js.errMsg,
			"elapsed", time.Since(started).Seconds())
	} else {
		s.log.Info("job finished", "job", js.id, "state", js.state,
			"edges", js.edges, "elapsed", time.Since(started).Seconds())
	}
}

// runJob drives every worker of the job through job.Run with a
// checkpoint hook that feeds the metrics, updates the in-memory progress
// snapshot, and turns context cancellation into a clean abort at the
// next durable checkpoint: the hook's error stops the worker's
// checkpointer, and generation with it at the next block.
func (s *Server) runJob(ctx context.Context, js *jobState) error {
	spec := js.spec.Normalized()
	// The hook reports cumulative per-PE edges; seed the delta tracker
	// from the manifests so a resumed PE's pre-crash edges are neither
	// re-counted in the metric nor double-added to the snapshot.
	//
	// job.Run calls the hook from the worker's checkpointer goroutine,
	// one call at a time, so what it mutates needs no lock of its own.
	peEdges := make(map[uint64]uint64)
	if st, err := job.Inspect(js.dir); err == nil {
		for _, w := range st.Workers {
			for _, pe := range w.PEs {
				peEdges[pe.PE] = pe.Edges
			}
		}
	}
	// Checkpoint latency is tracked per PE: one PE finishes while the next
	// already checkpoints, and measuring across the interleave would
	// report intervals far shorter than any PE's real checkpoint cadence.
	// A PE's first checkpoint has no predecessor and records nothing;
	// chunks recorded by one manifest publish arrive back to back.
	lastByPE := make(map[uint64]time.Time)
	hook := func(pe, chunks, edges uint64) error {
		now := time.Now()
		if last, ok := lastByPE[pe]; ok {
			s.metrics.Checkpoint.Observe(now.Sub(last).Seconds())
		}
		lastByPE[pe] = now
		d := edges - peEdges[pe]
		peEdges[pe] = edges
		s.metrics.ChunksCommitted.Inc()
		s.metrics.EdgesGenerated.Add(d)
		s.mu.Lock()
		js.chunksDone++
		js.edges += d
		s.mu.Unlock()
		if s.cfg.OnCheckpoint != nil {
			if err := s.cfg.OnCheckpoint(js.id, pe, chunks); err != nil {
				return err
			}
		}
		if ctx.Err() != nil {
			if s.ctx.Err() != nil {
				return errShutdown
			}
			return errCancelled
		}
		return nil
	}
	for w := uint64(0); w < spec.Workers; w++ {
		var tr *obs.Trace
		if !s.cfg.DisableTrace {
			// One trace per worker run: the runner persists it to
			// <dir>/trace/workerNNNNN.json, and GET /jobs/{id}/trace merges
			// the per-worker files.
			tr = obs.NewTrace(traceCapPerWorker)
		}
		if err := job.Run(js.dir, w, job.RunOptions{
			Goroutines: s.cfg.Goroutines, OnCheckpoint: hook,
			Trace: tr,
			OnCommitLatency: func(pe uint64, seconds float64) {
				s.metrics.CheckpointRounds.Inc()
				s.metrics.Commit.Observe(seconds)
			},
		}); err != nil {
			return err
		}
	}
	return nil
}
