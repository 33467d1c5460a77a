package serve

import (
	"strings"
	"sync"
	"testing"
)

// TestMetricsExposition: the text exposition carries every metric with
// HELP/TYPE lines, cumulative histogram buckets, and the exact values
// the typed API recorded.
func TestMetricsExposition(t *testing.T) {
	m := NewMetrics()
	m.JobsSubmitted.Add(3)
	m.CacheHits.Inc()
	m.EdgesGenerated.Add(12345)
	m.QueueDepth.Set(2)
	m.JobsInflight.Add(1)
	m.Checkpoint.Observe(0.0007) // le 0.001
	m.Checkpoint.Observe(0.3)    // le 0.5
	m.Checkpoint.Observe(99)     // +Inf only
	m.JobsByModel.Inc("rgg2d")
	m.JobsByModel.Inc("gnm_undirected")
	m.JobsByModel.Inc("rgg2d")
	m.QueueWait.Observe(0.05)
	m.Commit.Observe(0.002)
	m.CheckpointRounds.Inc()
	m.ChunksCommitted.Add(5)
	m.PartUpload.Observe(0.12)

	var sb strings.Builder
	if err := m.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE kagen_jobs_submitted_total counter",
		"kagen_jobs_submitted_total 3",
		"kagen_cache_hits_total 1",
		"kagen_edges_generated_total 12345",
		"kagen_chunks_committed_total 5",
		"# TYPE kagen_checkpoint_rounds_total counter",
		"kagen_checkpoint_rounds_total 1",
		"# TYPE kagen_storage_parts_uploaded_total counter",
		"# TYPE kagen_storage_parts_max_inflight gauge",
		"# TYPE kagen_queue_depth gauge",
		"kagen_queue_depth 2",
		"kagen_jobs_inflight 1",
		"# TYPE kagen_checkpoint_seconds histogram",
		`kagen_checkpoint_seconds_bucket{le="0.0005"} 0`,
		`kagen_checkpoint_seconds_bucket{le="0.001"} 1`,
		`kagen_checkpoint_seconds_bucket{le="0.5"} 2`,
		`kagen_checkpoint_seconds_bucket{le="+Inf"} 3`,
		"kagen_checkpoint_seconds_count 3",
		"# TYPE kagen_jobs_by_model_total counter",
		`kagen_jobs_by_model_total{model="gnm_undirected"} 1`,
		`kagen_jobs_by_model_total{model="rgg2d"} 2`,
		"# TYPE kagen_build_info gauge",
		"# TYPE kagen_queue_wait_seconds histogram",
		"kagen_queue_wait_seconds_count 1",
		`kagen_queue_wait_seconds_bucket{le="0.1"} 1`,
		"# TYPE kagen_commit_seconds histogram",
		"kagen_commit_seconds_count 1",
		"# TYPE kagen_storage_part_upload_seconds histogram",
		"kagen_storage_part_upload_seconds_count 1",
		`kagen_storage_part_upload_seconds_bucket{le="0.5"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	if m.Checkpoint.Count() != 3 {
		t.Errorf("histogram count %d, want 3", m.Checkpoint.Count())
	}
	if !strings.Contains(out, `kagen_build_info{version="`) {
		t.Errorf("exposition missing build info labels\n%s", out)
	}
	// Labeled series are emitted in sorted label order so scrapes diff
	// cleanly.
	if strings.Index(out, `model="gnm_undirected"`) > strings.Index(out, `model="rgg2d"`) {
		t.Errorf("labeled series not sorted by label value\n%s", out)
	}
	if got := m.JobsByModel.Value("rgg2d"); got != 2 {
		t.Errorf("JobsByModel[rgg2d] = %d, want 2", got)
	}
	if got := m.JobsByModel.Value("missing"); got != 0 {
		t.Errorf("JobsByModel[missing] = %d, want 0", got)
	}
}

// TestMetricsExpositionLint: every sample family has exactly one HELP
// and one TYPE line, every sample belongs to a declared family, and no
// family is declared twice — the same invariants the CI smoke enforces
// against a live /metrics endpoint.
func TestMetricsExpositionLint(t *testing.T) {
	m := NewMetrics()
	m.JobsByModel.Inc("ba")
	m.QueueWait.Observe(1)
	var sb strings.Builder
	if err := m.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	help := map[string]int{}
	typ := map[string]int{}
	for _, line := range strings.Split(sb.String(), "\n") {
		if line == "" {
			continue
		}
		f := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "# HELP "):
			help[f[2]]++
		case strings.HasPrefix(line, "# TYPE "):
			typ[f[2]]++
		default:
			name := f[0]
			if i := strings.IndexByte(name, '{'); i >= 0 {
				name = name[:i]
			}
			base := name
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if s, ok := strings.CutSuffix(name, suffix); ok && typ[s] > 0 {
					base = s
					break
				}
			}
			if typ[base] == 0 {
				t.Errorf("sample %q has no TYPE declaration", f[0])
			}
			if help[base] == 0 {
				t.Errorf("sample %q has no HELP declaration", f[0])
			}
		}
	}
	for name, n := range typ {
		if n != 1 {
			t.Errorf("family %s declared %d times", name, n)
		}
	}
	if len(typ) == 0 {
		t.Fatal("no TYPE lines in exposition")
	}
}

// TestLabeledCounterConcurrent: concurrent Inc on colliding and fresh
// labels is safe (race detector) and loses no increments.
func TestLabeledCounterConcurrent(t *testing.T) {
	var c LabeledCounter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc("shared")
				if j%100 == 0 {
					c.Inc("only-" + string(rune('a'+i)))
				}
			}
		}(i)
	}
	wg.Wait()
	if got := c.Value("shared"); got != 8000 {
		t.Errorf("shared = %d, want 8000", got)
	}
	if got := c.Value("only-a"); got != 10 {
		t.Errorf("only-a = %d, want 10", got)
	}
}

// TestMetricsConcurrent: the hot-path types are safe under concurrent
// writers (the race detector is the assertion).
func TestMetricsConcurrent(t *testing.T) {
	m := NewMetrics()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				m.EdgesGenerated.Add(2)
				m.QueueDepth.Add(1)
				m.QueueDepth.Add(-1)
				m.Checkpoint.Observe(0.01)
			}
		}()
	}
	wg.Wait()
	if got := m.EdgesGenerated.Value(); got != 16000 {
		t.Errorf("counter %d, want 16000", got)
	}
	if got := m.Checkpoint.Count(); got != 8000 {
		t.Errorf("histogram count %d, want 8000", got)
	}
	if got := m.QueueDepth.Value(); got != 0 {
		t.Errorf("gauge %d, want 0", got)
	}
}
