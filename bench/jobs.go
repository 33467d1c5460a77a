package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/job"
	"repro/internal/storage"
	"repro/internal/storage/s3test"
)

// setupSamples is how many extra set-ups precede every repetition, so that
// setup_s is a median of a few hundred samples spread over the whole run
// rather than of one per repetition: a durable Init is a handful of
// fsyncs, and their latency drifts by tens of percent within a minute.
const setupSamples = 20

// site is where one repetition's job lives: a fresh directory under the
// scratch root, or a prefix on a fresh in-process S3 server (s3test keeps
// objects in RAM, so a server per repetition bounds memory).
type site struct {
	dir   string
	close func()
}

const (
	s3Access = "bench-access"
	s3Secret = "bench-secret"
	s3Bucket = "bench"
)

// newSite prepares an empty job destination for the workload's backend.
func (b *bench) newSite(w *workload) (site, error) {
	b.seq++
	if w.S3 {
		srv := s3test.New(s3Access, s3Secret, s3Bucket)
		// The backend reads its configuration from the environment on
		// every storage.Resolve; these are the variables it already has.
		for k, v := range map[string]string{
			"KAGEN_S3_ENDPOINT":     srv.URL(),
			"AWS_ACCESS_KEY_ID":     s3Access,
			"AWS_SECRET_ACCESS_KEY": s3Secret,
			"AWS_REGION":            "us-east-1",
			"KAGEN_S3_CONCURRENCY":  fmt.Sprint(b.goroutines),
		} {
			if err := os.Setenv(k, v); err != nil {
				srv.Close()
				return site{}, err
			}
		}
		return site{dir: fmt.Sprintf("s3://%s/job-%d", s3Bucket, b.seq), close: srv.Close}, nil
	}
	dir := filepath.Join(b.out, "jobs", fmt.Sprintf("%s-%d", w.Name, b.seq))
	if err := os.RemoveAll(dir); err != nil {
		return site{}, err
	}
	if err := os.MkdirAll(filepath.Dir(dir), 0o755); err != nil {
		return site{}, err
	}
	return site{dir: dir, close: func() { os.RemoveAll(dir) }}, nil
}

// startJob is the set-up a user pays before Run: a destination and a
// durable job.Init. It returns the site and the seconds both took.
func (b *bench) startJob(w *workload, spec job.Spec) (site, float64, error) {
	t0 := time.Now()
	st, err := b.newSite(w)
	if err != nil {
		return site{}, 0, err
	}
	if err := job.Init(st.dir, spec); err != nil {
		st.close()
		return site{}, 0, err
	}
	return st, time.Since(t0).Seconds(), nil
}

// cost is what one measured call consumed.
type cost struct {
	wall  float64 // seconds
	cpu   float64 // process user+sys seconds
	alloc float64 // bytes allocated (MemStats.TotalAlloc delta)
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// measure runs f after a forced GC and returns its wall time, process
// CPU time and bytes allocated.
func measure(f func() error) (cost, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0, t0 := cpuSeconds(), time.Now()
	err := f()
	c := cost{wall: time.Since(t0).Seconds(), cpu: cpuSeconds() - c0}
	runtime.ReadMemStats(&m1)
	c.alloc = float64(m1.TotalAlloc - m0.TotalAlloc)
	return c, err
}

// jobFacts is what a finished job directory holds, read back through the
// public API: committed edges, shard bytes, and the SHA-256 over the
// concatenated shard objects in PE order.
type jobFacts struct {
	edges     uint64
	wireBytes int64
	digest    string
}

func inspectJob(dir string) (jobFacts, error) {
	var f jobFacts
	st, err := job.Inspect(dir)
	if err != nil {
		return f, err
	}
	if !st.Complete() {
		return f, fmt.Errorf("job %s incomplete after Run: %d gaps", dir, len(st.Gaps()))
	}
	for _, ws := range st.Workers {
		for _, pe := range ws.PEs {
			f.edges += pe.Edges
		}
	}
	store, err := storage.Resolve(dir)
	if err != nil {
		return f, err
	}
	h := sha256.New()
	for pe := uint64(0); pe < st.Spec.PEs; pe++ {
		r, err := store.Open(job.ShardPath(dir, pe, st.Spec.ShardFormat()))
		if err != nil {
			return f, err
		}
		n, err := io.Copy(h, r)
		r.Close()
		if err != nil {
			return f, err
		}
		f.wireBytes += n
	}
	f.digest = hex.EncodeToString(h.Sum(nil))
	return f, nil
}

// countingDiscard counts the bytes written to it and keeps none.
type countingDiscard struct{ n int64 }

func (c *countingDiscard) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// verifyChunks is how many chunks per PE the sampled Verify checks: a
// quarter of them.
func verifyChunks(spec job.Spec) int { return max(1, int(spec.ChunksPerPE/4)) }

// verifySample is the reader-side check every repetition times: the same
// quarter of each PE's chunks every time (fixed sampling seed),
// regenerated, re-encoded, read back and compared.
func verifySample(dir string, spec job.Spec) (seconds float64, chunksChecked float64, err error) {
	t0 := time.Now()
	res, err := job.Verify(dir, job.VerifyOptions{Sample: verifyChunks(spec), Seed: int64(spec.Seed)})
	seconds = time.Since(t0).Seconds()
	if err != nil {
		return seconds, 0, err
	}
	if !res.OK() {
		return seconds, 0, fmt.Errorf("verify found %d faults, first: %s", len(res.Faults), res.Faults[0])
	}
	return seconds, float64(res.ChunksChecked), nil
}

// runOptions are the options of every untraced job.Run.
func (b *bench) runOptions() job.RunOptions {
	return job.RunOptions{Goroutines: b.goroutines}
}

// warmUp is the discarded first run of a job workload. It must pass an
// exhaustive Verify, and it pins the reference every timed repetition has
// to reproduce: the shard-set digest and the committed edge count.
func (b *bench) warmUp(w *workload, spec job.Spec) (jobFacts, bool) {
	st, _, err := b.startJob(w, spec)
	if !b.op("warm-up Init", err) {
		return jobFacts{}, false
	}
	defer st.close()
	if !b.op("warm-up Run", job.Run(st.dir, 0, b.runOptions())) {
		return jobFacts{}, false
	}
	ref, err := inspectJob(st.dir)
	if err == nil && w.ExactEdges != nil && ref.edges != w.ExactEdges(spec) {
		err = fmt.Errorf("%d edges committed, want %d", ref.edges, w.ExactEdges(spec))
	}
	if !b.op("warm-up output check", err) {
		return ref, false
	}
	res, err := job.Verify(st.dir, job.VerifyOptions{All: true})
	if err == nil && !res.OK() {
		err = fmt.Errorf("%d faults, first: %s", len(res.Faults), res.Faults[0])
	}
	return ref, b.op("warm-up Verify(All)", err)
}

// jobE2E measures one job workload with tracing off. After the warm-up it
// repeats {set-up samples, fresh site, Init, Run, output check, sampled
// Verify, Merge} until `seconds` have passed and returns the
// per-repetition samples of every end-to-end metric.
func (b *bench) jobE2E(w *workload, spec job.Spec, seconds float64) samples {
	out := samples{}
	add := out.add
	ref, ok := b.warmUp(w, spec)
	if !ok {
		return out
	}
	totalChunks := float64(spec.TotalChunks())

	repeatFor(seconds, func() bool {
		for i := 0; i < setupSamples && !b.quick; i++ {
			st, setup, err := b.startJob(w, spec)
			if !b.op("set-up", err) {
				return false
			}
			st.close()
			add("setup_s", setup)
		}
		st, setup, err := b.startJob(w, spec)
		if !b.op("Init", err) {
			return false
		}
		defer st.close()
		run, err := measure(func() error { return job.Run(st.dir, 0, b.runOptions()) })
		if !b.op("Run", err) {
			return false
		}
		facts, err := inspectJob(st.dir)
		if err == nil && facts != ref {
			err = fmt.Errorf("output differs from the warm-up run: %d edges, %d shard bytes, digest %.12s; want %d, %d, %.12s",
				facts.edges, facts.wireBytes, facts.digest, ref.edges, ref.wireBytes, ref.digest)
		}
		if !b.op("output check", err) {
			return false
		}
		medges := float64(facts.edges) / 1e6
		add("setup_s", setup)
		add("edges_per_s", float64(facts.edges)/run.wall)
		add("job_ms_p50", (setup+run.wall)*1e3)
		add("cpu_s_per_medge", run.cpu/medges)
		add("alloc_mb_per_medge", run.alloc/1e6/medges)

		vs, checked, err := verifySample(st.dir, spec)
		if b.op("Verify", err) {
			add("verify_edges_per_s", checked/totalChunks*float64(facts.edges)/vs)
		}
		var sink countingDiscard
		t0 := time.Now()
		err = job.Merge(st.dir, &sink)
		ms := time.Since(t0).Seconds()
		if b.op("Merge", err) {
			add("read_mb_per_s", float64(sink.n)/1e6/ms)
		}
		return true
	})
	return out
}
