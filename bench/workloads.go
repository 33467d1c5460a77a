package main

import (
	"repro/internal/job"
)

// workload is one set of inputs. Every workload is a list of job specs
// built from the seed — the program under test only ever sees the specs —
// plus where the jobs run: through job.Run on a filesystem directory, on
// an in-process S3 server, or submitted over HTTP to a serve.Server.
type workload struct {
	Name string
	Why  string
	// S3 runs the job against s3:// on a fresh s3test server per repetition.
	S3 bool
	// Serve submits the specs to a serve.Server with closed-loop HTTP
	// clients instead of calling job.Run.
	Serve bool
	// Specs builds the inputs; quick shrinks them to smoke-test size.
	Specs func(seed uint64, quick bool) []job.Spec
	// ExactEdges is the edge count each spec must produce; nil when the
	// model fixes only an expectation and the warm-up's count is the
	// reference.
	ExactEdges func(s job.Spec) uint64
}

func exactM(s job.Spec) uint64 { return s.M }

// An undirected edge is emitted once per endpoint, by the PE owning it.
func exact2M(s job.Spec) uint64 { return 2 * s.M }

// The sizes below are frozen: a timed repetition (Run + sampled Verify +
// Merge) takes 1.5-3 s on the 2-core reference box, so a 20 s run holds
// 7-12 repetitions. See README.md for the calibration numbers.
var workloads = []workload{
	{
		Name: "rmat_bin_fs",
		Why:  "rmat scale 22, m=2^22, 4 PEs x 16 chunks, binary, filesystem: generator-bound, the O(m log n) descent owns the wall and codec/storage idle",
		Specs: func(seed uint64, quick bool) []job.Spec {
			s := job.Spec{Model: "rmat", Scale: 22, M: 1 << 22, Seed: seed, PEs: 4, ChunksPerPE: 16, Workers: 1, Format: "binary"}
			if quick {
				s.Scale, s.M, s.ChunksPerPE = 12, 1<<14, 4
			}
			return []job.Spec{s}
		},
		ExactEdges: exactM,
	},
	{
		Name: "gnm_textgz_fs",
		Why:  "gnm_directed n=2^20, m=2^20, 4 PEs x 16 chunks, text.gz, filesystem: codec/commit-bound, the serial encode+gzip+fsync sink owns the wall and the generator is a minority",
		Specs: func(seed uint64, quick bool) []job.Spec {
			s := job.Spec{Model: "gnm_directed", N: 1 << 20, M: 1 << 20, Seed: seed, PEs: 4, ChunksPerPE: 16, Workers: 1, Format: "text.gz"}
			if quick {
				s.N, s.M, s.ChunksPerPE = 1<<12, 1<<14, 4
			}
			return []job.Spec{s}
		},
		ExactEdges: exactM,
	},
	{
		Name: "rgg_bin_s3",
		Why:  "rgg2d n=2^19 (~6.5M edges), 4 PEs x 4 chunks, binary, s3:// on an in-process server: striped multipart upload, SigV4+HTTP and the spatial generator family",
		S3:   true,
		Specs: func(seed uint64, quick bool) []job.Spec {
			s := job.Spec{Model: "rgg2d", N: 1 << 19, Seed: seed, PEs: 4, ChunksPerPE: 4, Workers: 1, Format: "binary"}
			if quick {
				s.N = 1 << 12
			}
			return []job.Spec{s}
		},
	},
	{
		Name:  "serve_small_jobs",
		Why:   "24 distinct gnm_undirected n=2^15 m=2^18 4x4-chunk text jobs over HTTP, 2 closed-loop clients: per-job fixed costs (durable Init, ~80 fsyncs, queue) are a third of a job; /result is the read side",
		Serve: true,
		Specs: func(seed uint64, quick bool) []job.Spec {
			n, count := uint64(1<<15), 24
			m := uint64(1 << 18)
			if quick {
				n, m, count = 1<<10, 1<<12, 4
			}
			specs := make([]job.Spec, count)
			for i := range specs {
				specs[i] = job.Spec{Model: "gnm_undirected", N: n, M: m, Seed: seed<<16 + uint64(i), PEs: 4, ChunksPerPE: 4, Workers: 1, Format: "text"}
			}
			return specs
		},
		ExactEdges: exact2M,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricDef declares one metric. BENCHMARK.json repeats name, unit,
// direction and bound; bench_test.go keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: allowed worsening as a share of the median
	// Moves names, for a per-layer metric, the end-to-end metric and
	// workload it is expected to move; elsewhere the prediction is no
	// change.
	Moves string
}

// endToEnd is what a user of the system waits for or pays for. Every
// workload reports every one of them. On serve_small_jobs the same names
// are measured through the HTTP API (see README.md).
//
// A bound holds on every workload, so the noisiest one sets it: on the
// reference box the spread between runs (quartile distance over ten
// seeds, as a share of the median) is 2-5% on the three job workloads
// but 10-21% for the wall-clock and CPU metrics of serve_small_jobs,
// whose ~80 fsyncs per 60 ms job make it follow the virtual disk's
// latency. Allocation repeats within 1%.
var endToEnd = []metricDef{
	{Name: "edges_per_s", Unit: "edges/s", Better: "higher", Bound: 0.25},
	{Name: "job_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_s_per_medge", Unit: "s/Medge", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb_per_medge", Unit: "MB/Medge", Better: "lower", Bound: 0.05},
	{Name: "verify_edges_per_s", Unit: "edges/s", Better: "higher", Bound: 0.25},
	{Name: "read_mb_per_s", Unit: "MB/s", Better: "higher", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer attributes the end-to-end numbers to Go packages. The prefix
// is the package; "gen" is the workload's generator package (rmat, gnm or
// rgg). A count that is legitimately zero on a workload (no parts are
// uploaded on the filesystem, nothing is compressed in a plain format)
// is reported as 0.
var perLayer = []metricDef{
	{Name: "gen.stream_ns_per_edge", Unit: "ns/edge", Better: "lower", Moves: "edges_per_s, cpu_s_per_medge on rmat_bin_fs (most), rgg_bin_s3 (part); verify_edges_per_s everywhere"},
	{Name: "gen.allocs_per_chunk", Unit: "count", Better: "lower", Moves: "alloc_mb_per_medge"},
	{Name: "gen.alloc_bytes_per_edge", Unit: "B/edge", Better: "lower", Moves: "alloc_mb_per_medge"},
	{Name: "pe.handoff_ns_per_edge", Unit: "ns/edge", Better: "lower", Moves: "edges_per_s on rmat_bin_fs, rgg_bin_s3"},
	{Name: "pe.stream_speedup_g2", Unit: "ratio", Better: "higher", Moves: "edges_per_s on rmat_bin_fs"},
	{Name: "pe.run_speedup_g2", Unit: "ratio", Better: "higher", Moves: "edges_per_s on gnm_textgz_fs once the sink stops being serial"},
	{Name: "kagen.encode_ns_per_edge", Unit: "ns/edge", Better: "lower", Moves: "edges_per_s on gnm_textgz_fs; read_mb_per_s"},
	{Name: "kagen.payload_bytes_per_edge", Unit: "B/edge", Better: "lower", Moves: "job.wire_bytes_per_edge"},
	{Name: "kagen.decode_ns_per_edge", Unit: "ns/edge", Better: "lower", Moves: "read_mb_per_s"},
	{Name: "job.digest_ns_per_edge", Unit: "ns/edge", Better: "lower", Moves: "edges_per_s, cpu_s_per_medge"},
	{Name: "job.compress_ns_per_edge", Unit: "ns/edge", Better: "lower", Moves: "edges_per_s, cpu_s_per_medge on gnm_textgz_fs"},
	{Name: "job.compress_ratio", Unit: "ratio", Better: "higher", Moves: "job.wire_bytes_per_edge on gnm_textgz_fs"},
	{Name: "job.wire_bytes_per_edge", Unit: "B/edge", Better: "lower", Moves: "trades against edges_per_s and read_mb_per_s through gzip level and member size"},
	{Name: "job.chunk_generate_s", Unit: "s", Better: "lower", Moves: "attribution of edges_per_s"},
	{Name: "job.chunk_commit_s", Unit: "s", Better: "lower", Moves: "attribution of edges_per_s"},
	{Name: "job.pe_s", Unit: "s", Better: "lower", Moves: "attribution of edges_per_s"},
	{Name: "job.worker_s", Unit: "s", Better: "lower", Moves: "attribution of edges_per_s"},
	{Name: "job.dark_share", Unit: "ratio", Better: "lower", Moves: "shrinks when inner spans are added; must not grow"},
	{Name: "job.commit_ms_p50", Unit: "ms", Better: "lower", Moves: "edges_per_s on gnm_textgz_fs; job_ms_p50 on serve_small_jobs"},
	{Name: "job.commit_ms_p90", Unit: "ms", Better: "lower", Moves: "edges_per_s on gnm_textgz_fs"},
	{Name: "job.checkpoints", Unit: "count", Better: "lower", Moves: "exact count; fixed by the spec"},
	{Name: "job.manifest_put_ms_p50", Unit: "ms", Better: "lower", Moves: "edges_per_s on gnm_textgz_fs, serve_small_jobs"},
	{Name: "job.manifest_bytes_final", Unit: "B", Better: "lower", Moves: "job.manifest_put_ms_p50"},
	{Name: "job.init_ms", Unit: "ms", Better: "lower", Moves: "job_ms_p50 on serve_small_jobs; setup_s"},
	{Name: "job.live_heap_mb", Unit: "MB", Better: "lower", Moves: "guards alloc_mb_per_medge trade-offs"},
	{Name: "merkle.root_us", Unit: "us", Better: "lower", Moves: "none expected"},
	{Name: "storage.commit_ms_p50", Unit: "ms", Better: "lower", Moves: "edges_per_s on gnm_textgz_fs (fsync), rgg_bin_s3 (part seal)"},
	{Name: "storage.commit_ms_p90", Unit: "ms", Better: "lower", Moves: "edges_per_s on gnm_textgz_fs, rgg_bin_s3"},
	{Name: "storage.write_mb_per_s", Unit: "MB/s", Better: "higher", Moves: "edges_per_s on rgg_bin_s3"},
	{Name: "storage.put_ms_p50", Unit: "ms", Better: "lower", Moves: "job.manifest_put_ms_p50"},
	{Name: "storage.read_mb_per_s", Unit: "MB/s", Better: "higher", Moves: "verify_edges_per_s, read_mb_per_s on rgg_bin_s3"},
	{Name: "storage.upload_part_s", Unit: "s", Better: "lower", Moves: "edges_per_s, cpu_s_per_medge on rgg_bin_s3 only"},
	{Name: "storage.parts_uploaded", Unit: "count", Better: "lower", Moves: "rgg_bin_s3 only; exact count"},
	{Name: "storage.part_retries", Unit: "count", Better: "lower", Moves: "must be 0"},
	{Name: "storage.max_in_flight", Unit: "count", Better: "higher", Moves: "edges_per_s on rgg_bin_s3 when the pool saturates"},
	{Name: "storage.checksum_rehashed", Unit: "count", Better: "lower", Moves: "cpu_s_per_medge on rgg_bin_s3"},
	{Name: "serve.post_ms_p50", Unit: "ms", Better: "lower", Moves: "job_ms_p50 on serve_small_jobs"},
	{Name: "serve.status_poll_us_p50", Unit: "us", Better: "lower", Moves: "job_ms_p50 on serve_small_jobs"},
	{Name: "serve.submit_to_complete_ms_p90", Unit: "ms", Better: "lower", Moves: "tail of job_ms_p50 on serve_small_jobs"},
	{Name: "serve.result_ttfb_ms_p50", Unit: "ms", Better: "lower", Moves: "read_mb_per_s on serve_small_jobs"},
	{Name: "serve.shard_range_ms_p50", Unit: "ms", Better: "lower", Moves: "none end to end; striped download path"},
	{Name: "serve.cache_hits_per_s", Unit: "req/s", Better: "higher", Moves: "none end to end; resubmission path"},
	{Name: "serve.metrics_scrape_ms", Unit: "ms", Better: "lower", Moves: "none — cost of looking"},
	{Name: "serve.queue_wait_ms_mean", Unit: "ms", Better: "lower", Moves: "job_ms_p50 on serve_small_jobs"},
	{Name: "serve.commit_ms_mean", Unit: "ms", Better: "lower", Moves: "job_ms_p50 on serve_small_jobs"},
	{Name: "serve.rejected_429", Unit: "count", Better: "lower", Moves: "must be 0"},
	{Name: "serve.jobs_failed", Unit: "count", Better: "lower", Moves: "must be 0"},
	{Name: "obs.trace_overhead_pct", Unit: "%", Better: "lower", Moves: "none — cost of looking"},
	{Name: "obs.spans_recorded", Unit: "count", Better: "lower", Moves: "exact count"},
	{Name: "obs.spans_dropped", Unit: "count", Better: "lower", Moves: "must be 0"},
}
