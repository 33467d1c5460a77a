package serve

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/storage"
)

// The metrics layer is deliberately flat: a fixed set of typed fields on
// one struct, each a few atomic words, exposed in Prometheus text
// exposition format (0.0.4) on GET /metrics. No registry, no dependency
// — the serving hot path (a checkpoint hook firing after every chunk)
// touches only atomics. The one concession to dimensionality is
// LabeledCounter: a single label whose values are discovered at runtime
// (job models), still just an atomic per value after first touch.

// Counter is a monotonically increasing uint64.
type Counter struct{ v atomic.Uint64 }

func (c *Counter) Add(n uint64)  { c.v.Add(n) }
func (c *Counter) Inc()          { c.v.Add(1) }
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable, signed instantaneous value.
type Gauge struct{ v atomic.Int64 }

func (g *Gauge) Add(n int64)  { g.v.Add(n) }
func (g *Gauge) Set(n int64)  { g.v.Store(n) }
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket cumulative histogram. Observations are
// lock-free; WriteText reads may tear between bucket and sum updates,
// which Prometheus scrapes tolerate (the next scrape converges).
type Histogram struct {
	bounds []float64       // upper bounds, ascending; +Inf implicit
	counts []atomic.Uint64 // len(bounds)+1, last is +Inf
	sum    atomic.Uint64   // float64 bits
	count  atomic.Uint64
}

// NewHistogram returns a histogram over the given ascending upper bounds.
func NewHistogram(bounds ...float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// LabeledCounter is a counter family over one label dimension whose
// values appear at runtime. Incrementing an existing label value is a
// map load plus an atomic add; creating a value is a one-time
// LoadOrStore. This is deliberately as far from a registry as label
// support can get: one dimension, counters only.
type LabeledCounter struct{ m sync.Map }

// Inc increments the counter for one label value.
func (c *LabeledCounter) Inc(value string) {
	if v, ok := c.m.Load(value); ok {
		v.(*Counter).Inc()
		return
	}
	v, _ := c.m.LoadOrStore(value, &Counter{})
	v.(*Counter).Inc()
}

// Value returns the count for one label value (0 if never incremented).
func (c *LabeledCounter) Value(value string) uint64 {
	if v, ok := c.m.Load(value); ok {
		return v.(*Counter).Value()
	}
	return 0
}

// escapeLabel escapes a label value per the exposition format.
var escapeLabel = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// writeText emits the family sorted by label value, so scrapes are
// deterministic.
func (c *LabeledCounter) writeText(w io.Writer, name, label, help string) error {
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name); err != nil {
		return err
	}
	type kv struct {
		k string
		v uint64
	}
	var vals []kv
	c.m.Range(func(k, v any) bool {
		vals = append(vals, kv{k.(string), v.(*Counter).Value()})
		return true
	})
	sort.Slice(vals, func(i, j int) bool { return vals[i].k < vals[j].k })
	for _, e := range vals {
		if _, err := fmt.Fprintf(w, "%s{%s=\"%s\"} %d\n", name, label, escapeLabel.Replace(e.k), e.v); err != nil {
			return err
		}
	}
	return nil
}

// Metrics is the server's flat metric set.
type Metrics struct {
	JobsSubmitted   Counter // new specs accepted into the queue
	JobsDeduped     Counter // submissions matching a queued/running job
	CacheHits       Counter // submissions served by a completed job
	JobsResumed     Counter // incomplete jobs re-enqueued at startup
	JobsCompleted   Counter
	JobsFailed      Counter
	JobsCancelled   Counter
	QueueRejected   Counter // 429s from the bounded submission queue
	EdgesGenerated  Counter // edges durably committed (rate = edges/sec)
	ChunksCommitted Counter // durable checkpoints
	// CheckpointRounds counts manifest publishes; one round records every
	// chunk committed since the previous one, so ChunksCommitted /
	// CheckpointRounds is the group-commit batch size.
	CheckpointRounds Counter
	// Verify/repair counters, fed by POST /jobs/{id}/verify.
	VerifyChunksChecked Counter        // chunks re-derived and checked
	VerifyFailures      Counter        // integrity faults found
	VerifyRepaired      Counter        // chunks spliced + PEs reset + manifests rebuilt
	JobsByModel         LabeledCounter // jobs accepted, by spec model
	QueueDepth          Gauge          // jobs waiting in the submission queue
	JobsInflight        Gauge          // jobs currently executing
	Checkpoint          *Histogram     // seconds between durable checkpoints, per PE
	QueueWait           *Histogram     // seconds from accepted submission to execution start
	Commit              *Histogram     // seconds one checkpoint round (shard sync + manifest publish) took
	PartUpload          *Histogram     // seconds one S3 part upload took (storage observer)
}

// NewMetrics returns a zeroed metric set. Checkpoint/commit buckets span
// sub-millisecond chunk commits to multi-second stalls; queue-wait
// buckets span instant dispatch to a minutes-deep backlog; part-upload
// buckets span LAN object stores to cross-region puts.
func NewMetrics() *Metrics {
	return &Metrics{
		Checkpoint: NewHistogram(0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5),
		Commit:     NewHistogram(0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5),
		QueueWait:  NewHistogram(0.001, 0.01, 0.1, 0.5, 1, 5, 15, 60, 300),
		PartUpload: NewHistogram(0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 15, 60),
	}
}

// WriteText writes the metric set in Prometheus text exposition format,
// in a fixed order so scrapes and tests are deterministic.
func (m *Metrics) WriteText(w io.Writer) error {
	counters := []struct {
		name, help string
		c          *Counter
	}{
		{"kagen_jobs_submitted_total", "New job specs accepted into the queue.", &m.JobsSubmitted},
		{"kagen_jobs_deduped_total", "Submissions matching an already queued or running job.", &m.JobsDeduped},
		{"kagen_cache_hits_total", "Submissions served from the content-addressed result cache.", &m.CacheHits},
		{"kagen_jobs_resumed_total", "Incomplete jobs re-enqueued by the startup scan.", &m.JobsResumed},
		{"kagen_jobs_completed_total", "Jobs run to completion.", &m.JobsCompleted},
		{"kagen_jobs_failed_total", "Jobs that ended with an error.", &m.JobsFailed},
		{"kagen_jobs_cancelled_total", "Jobs cancelled by DELETE.", &m.JobsCancelled},
		{"kagen_queue_rejected_total", "Submissions rejected with 429 because the queue was full.", &m.QueueRejected},
		{"kagen_edges_generated_total", "Edges durably committed across all jobs.", &m.EdgesGenerated},
		{"kagen_chunks_committed_total", "Durable chunk checkpoints across all jobs.", &m.ChunksCommitted},
		{"kagen_checkpoint_rounds_total", "Checkpoint rounds (one shard sync and one manifest publish each) across all jobs; chunks committed per round is the group-commit batch size.", &m.CheckpointRounds},
		{"kagen_verify_chunks_checked_total", "Chunks re-derived from the spec and checked by verify.", &m.VerifyChunksChecked},
		{"kagen_verify_failures_total", "Integrity faults found by verify.", &m.VerifyFailures},
		{"kagen_verify_repaired_total", "Repair actions taken (chunks spliced, PEs reset, manifests rebuilt).", &m.VerifyRepaired},
	}
	for _, c := range counters {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n",
			c.name, c.help, c.name, c.name, c.c.Value()); err != nil {
			return err
		}
	}
	if err := m.JobsByModel.writeText(w, "kagen_jobs_by_model_total", "model",
		"Jobs accepted into the queue, by spec model."); err != nil {
		return err
	}
	// Striped-upload counters from the storage layer, process-global:
	// they cover every S3 destination the process writes (jobs, merges),
	// not just serve's own. All zero when every destination is local.
	up := storage.UploadStats()
	uploads := []struct {
		name, help string
		v          int64
	}{
		{"kagen_storage_parts_uploaded_total", "Multipart parts uploaded to object-store backends.", up.PartsUploaded},
		{"kagen_storage_part_retries_total", "Part uploads retried after a transient object-store error.", up.PartRetries},
		{"kagen_storage_bytes_uploaded_total", "Part payload bytes uploaded to object-store backends.", up.BytesUploaded},
		{"kagen_storage_checksums_reused_total", "Part checksums reused verbatim from chunk commit digests.", up.ChecksumReused},
		{"kagen_storage_checksums_rehashed_total", "Part checksums recomputed because parts coalesced chunks.", up.ChecksumRehashed},
	}
	for _, c := range uploads {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n",
			c.name, c.help, c.name, c.name, c.v); err != nil {
			return err
		}
	}
	const inflight = "kagen_storage_parts_max_inflight"
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n",
		inflight, "High-water mark of concurrently uploading parts.",
		inflight, inflight, up.MaxInFlight); err != nil {
		return err
	}
	gauges := []struct {
		name, help string
		g          *Gauge
	}{
		{"kagen_queue_depth", "Jobs waiting in the submission queue.", &m.QueueDepth},
		{"kagen_jobs_inflight", "Jobs currently executing.", &m.JobsInflight},
	}
	for _, g := range gauges {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n",
			g.name, g.help, g.name, g.name, g.g.Value()); err != nil {
			return err
		}
	}
	version, goVersion := obs.BuildInfo()
	if _, err := fmt.Fprintf(w,
		"# HELP kagen_build_info Build metadata of the running binary; value is always 1.\n"+
			"# TYPE kagen_build_info gauge\n"+
			"kagen_build_info{version=\"%s\",go=\"%s\"} 1\n",
		escapeLabel.Replace(version), escapeLabel.Replace(goVersion)); err != nil {
		return err
	}
	hists := []struct {
		name, help string
		h          *Histogram
	}{
		{"kagen_checkpoint_seconds", "Seconds between successive durable chunk checkpoints of one PE.", m.Checkpoint},
		{"kagen_queue_wait_seconds", "Seconds an accepted job waited in the queue before executing.", m.QueueWait},
		{"kagen_commit_seconds", "Seconds one checkpoint round took: syncing the open shards (fsync / upload progress) and publishing the manifest that records every chunk the sync covered. Rounds run beside generation; no generator waits for them.", m.Commit},
		{"kagen_storage_part_upload_seconds", "Seconds one multipart part upload took.", m.PartUpload},
	}
	for _, h := range hists {
		if err := h.h.writeText(w, h.name, h.help); err != nil {
			return err
		}
	}
	return nil
}

func (h *Histogram) writeText(w io.Writer, name, help string) error {
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name); err != nil {
		return err
	}
	cum := uint64(0)
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatBound(b), cum); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.bounds)].Load()
	_, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %g\n%s_count %d\n",
		name, cum, name, math.Float64frombits(h.sum.Load()), name, h.count.Load())
	return err
}

func formatBound(b float64) string { return fmt.Sprintf("%g", b) }
