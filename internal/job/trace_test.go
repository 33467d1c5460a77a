package job

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"repro/internal/obs"
)

// traceEvents decodes a Chrome trace export into its complete events.
func traceEvents(t *testing.T, b []byte) []map[string]any {
	t.Helper()
	var out struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatalf("trace does not parse as JSON: %v", err)
	}
	var spans []map[string]any
	for _, e := range out.TraceEvents {
		if e["ph"] == "X" {
			spans = append(spans, e)
		}
	}
	return spans
}

// TestRunTraced runs a multi-PE sharded job with tracing and checks the
// persisted trace: worker → pe → chunk-generate/chunk-commit/checkpoint
// spans with correct nesting, plus the commit-latency hook firing once
// per checkpoint round — as often as there are checkpoint spans, whose
// chunk counts add up to the job's.
func TestRunTraced(t *testing.T) {
	spec := Spec{Model: "gnm_undirected", N: 400, M: 2000, Seed: 21,
		PEs: 3, ChunksPerPE: 2, Workers: 1, Format: "text"}
	dir := t.TempDir()
	if err := Init(dir, spec); err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace(1 << 12)
	var mu sync.Mutex
	latencies := map[uint64]int{}
	err := Run(dir, 0, RunOptions{
		Trace: tr,
		OnCommitLatency: func(pe uint64, seconds float64) {
			if seconds < 0 {
				t.Errorf("negative commit latency for PE %d", pe)
			}
			mu.Lock()
			latencies[pe]++
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rounds := 0
	for pe, n := range latencies {
		if pe >= spec.PEs {
			t.Errorf("%d commit-latency observations for PE %d, which the job does not have", n, pe)
		}
		rounds += n
	}

	var buf bytes.Buffer
	if err := WriteTraceJSON(dir, &buf); err != nil {
		t.Fatalf("WriteTraceJSON: %v", err)
	}
	spans := traceEvents(t, buf.Bytes())

	count := map[string]int{}
	byID := map[uint64]map[string]any{}
	id := func(e map[string]any, k string) uint64 {
		args, _ := e["args"].(map[string]any)
		v, _ := args[k].(float64)
		return uint64(v)
	}
	checkpointed := 0
	for _, e := range spans {
		count[e["name"].(string)]++
		byID[id(e, "id")] = e
		if e["name"] == "checkpoint" {
			checkpointed += int(id(e, "chunks"))
		}
	}
	chunks := int(spec.PEs * spec.ChunksPerPE)
	// Every PE has a finishing round; a round can cover all of a PE's chunks.
	if count["checkpoint"] != rounds || rounds < int(spec.PEs) || rounds > chunks+2*int(spec.PEs) {
		t.Errorf("%d checkpoint spans, %d commit-latency observations for %d PEs of %d chunks",
			count["checkpoint"], rounds, spec.PEs, spec.ChunksPerPE)
	}
	if checkpointed != chunks {
		t.Errorf("checkpoint spans cover %d chunks, the job has %d", checkpointed, chunks)
	}
	if count["worker"] != 1 || count["pe"] != int(spec.PEs) ||
		count["chunk-generate"] != chunks || count["chunk-commit"] != chunks {
		t.Fatalf("span counts = %v, want 1 worker, %d pe, %d chunk-generate, %d chunk-commit",
			count, spec.PEs, chunks, chunks)
	}
	// Nesting: every pe span's parent is the worker span; every chunk
	// span's parent is a pe span.
	for _, e := range spans {
		parent, ok := byID[id(e, "parent")]
		switch e["name"] {
		case "pe":
			if !ok || parent["name"] != "worker" {
				t.Fatalf("pe span not nested under worker: %v", e)
			}
		case "chunk-generate", "chunk-commit", "checkpoint":
			if !ok || parent["name"] != "pe" {
				t.Fatalf("%s span not nested under pe: %v", e["name"], e)
			}
		}
	}
}

// TestRunUntraced: with no Trace, nothing is persisted and
// WriteTraceJSON reports ErrNoTrace.
func TestRunUntraced(t *testing.T) {
	spec := Spec{Model: "gnm_undirected", N: 100, M: 200, Seed: 1,
		PEs: 2, ChunksPerPE: 1, Workers: 1, Format: "text"}
	dir := t.TempDir()
	if err := Init(dir, spec); err != nil {
		t.Fatal(err)
	}
	if err := Run(dir, 0, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTraceJSON(dir, &buf); err != ErrNoTrace {
		t.Fatalf("WriteTraceJSON on untraced job: %v, want ErrNoTrace", err)
	}
}

// TestTracedRunDeterministic: tracing must not change the generated
// bytes — the traced and untraced shards are identical.
func TestTracedRunDeterministic(t *testing.T) {
	spec := Spec{Model: "gnm_undirected", N: 300, M: 900, Seed: 4,
		PEs: 2, ChunksPerPE: 2, Workers: 1, Format: "binary"}
	plain, traced := t.TempDir(), t.TempDir()
	for _, d := range []string{plain, traced} {
		if err := Init(d, spec); err != nil {
			t.Fatal(err)
		}
	}
	if err := Run(plain, 0, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := Run(traced, 0, RunOptions{Trace: obs.NewTrace(0)}); err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := Merge(plain, &a); err != nil {
		t.Fatal(err)
	}
	if err := Merge(traced, &b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("traced run produced different merged bytes than untraced run")
	}
}
