package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// traceDoc mirrors the Chrome trace-event JSON shape the trace endpoint
// serves.
type traceDoc struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Name string `json:"name"`
		Cat  string `json:"cat"`
		Ph   string `json:"ph"`
		TS   float64
		Dur  float64
	} `json:"traceEvents"`
}

// TestServeTraceEndpoint: an executed job records spans per worker and
// GET /jobs/{id}/trace serves them merged as valid Chrome trace JSON
// with worker, PE, and chunk events.
func TestServeTraceEndpoint(t *testing.T) {
	spec := testSpec() // 2 PEs x 3 chunks, 1 job worker
	srv, err := New(Config{Dir: t.TempDir(), Executors: 1, QueueCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	st, code := submit(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit returned %d", code)
	}
	waitState(t, ts, st.ID, StateComplete)

	code, body := get(t, ts.URL+"/jobs/"+st.ID+"/trace")
	if code != http.StatusOK {
		t.Fatalf("trace returned %d: %s", code, body)
	}
	var doc traceDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("trace endpoint served invalid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit %q, want ms", doc.DisplayTimeUnit)
	}
	counts := map[string]int{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			counts[e.Name]++
		}
	}
	norm := spec.Normalized()
	if counts["worker"] != int(norm.Workers) {
		t.Errorf("worker spans %d, want %d", counts["worker"], norm.Workers)
	}
	if counts["pe"] != int(norm.PEs) {
		t.Errorf("pe spans %d, want %d", counts["pe"], norm.PEs)
	}
	total := int(norm.PEs * norm.ChunksPerPE)
	if counts["chunk-generate"] != total || counts["chunk-commit"] != total {
		t.Errorf("chunk spans generate=%d commit=%d, want %d each",
			counts["chunk-generate"], counts["chunk-commit"], total)
	}

	// Every checkpoint round is a span, a count and a commit-latency
	// observation; a PE takes at least one and they cover every chunk.
	rounds := srv.Metrics().CheckpointRounds.Value()
	if got := srv.Metrics().Commit.Count(); got != rounds || counts["checkpoint"] != int(rounds) {
		t.Errorf("commit histogram count %d, %d checkpoint spans, want both %d (kagen_checkpoint_rounds_total)",
			got, counts["checkpoint"], rounds)
	}
	if chunks := srv.Metrics().ChunksCommitted.Value(); rounds < norm.PEs || chunks != uint64(total) {
		t.Errorf("%d checkpoint rounds recorded %d chunks, want >= %d rounds and %d chunks", rounds, chunks, norm.PEs, total)
	}

	// Unknown job: 404.
	if code, _ := get(t, ts.URL+"/jobs/nope/trace"); code != http.StatusNotFound {
		t.Errorf("trace of unknown job returned %d, want 404", code)
	}
}

// TestServeTraceDisabled: with DisableTrace no spans are recorded and
// the endpoint reports 404 rather than an empty document.
func TestServeTraceDisabled(t *testing.T) {
	spec := testSpec()
	srv, err := New(Config{Dir: t.TempDir(), Executors: 1, QueueCap: 4, DisableTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	st, code := submit(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit returned %d", code)
	}
	waitState(t, ts, st.ID, StateComplete)
	if code, body := get(t, ts.URL+"/jobs/"+st.ID+"/trace"); code != http.StatusNotFound {
		t.Errorf("trace with tracing disabled returned %d (%s), want 404", code, body)
	}
}

// TestServePprofGate: /debug/pprof/ is mounted only when Config.Pprof
// is set.
func TestServePprofGate(t *testing.T) {
	for _, on := range []bool{false, true} {
		srv, err := New(Config{Dir: t.TempDir(), Executors: 1, QueueCap: 1, Pprof: on})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		code, body := get(t, ts.URL+"/debug/pprof/")
		want := http.StatusNotFound
		if on {
			want = http.StatusOK
		}
		if code != want {
			t.Errorf("pprof=%v: /debug/pprof/ returned %d, want %d", on, code, want)
		}
		if on && !strings.Contains(string(body), "goroutine") {
			t.Errorf("pprof index does not list profiles: %s", body)
		}
		ts.Close()
		srv.Close()
	}
}
