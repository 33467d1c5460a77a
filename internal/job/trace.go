package job

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"strings"

	"repro/internal/obs"
	"repro/internal/storage"
)

// Tracing a run produces one Chrome trace-event JSON object per worker
// under <dir>/trace/, written by the worker that ran (each worker's
// spans are disjoint, and timestamps are wall-anchored, so the files
// merge onto one timeline without coordination — the same
// communication-free property as the shards themselves).

// TraceDir returns the trace prefix inside a job directory.
func TraceDir(dir string) string { return storage.Join(dir, "trace") }

// TracePath returns one worker's trace object inside a job directory.
func TracePath(dir string, worker uint64) string {
	return storage.Join(TraceDir(dir), fmt.Sprintf("worker%05d.json", worker))
}

// ErrNoTrace reports a job directory without recorded traces — the job
// ran without RunOptions.Trace.
var ErrNoTrace = errors.New("job: no trace recorded (run with tracing enabled)")

// writeWorkerTrace persists a worker's spans into the job directory.
// Called after run() joins all generation and upload goroutines, which
// is the quiescence WriteJSON requires.
func writeWorkerTrace(store storage.Backend, dir string, worker uint64, tr *obs.Trace) error {
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		return err
	}
	return store.Put(TracePath(dir, worker), buf.Bytes(), storage.PutOptions{})
}

// WriteTraceJSON merges every worker trace in a job directory into one
// Chrome trace-event JSON document on w. Returns ErrNoTrace when the
// job has no trace objects. Timestamps are wall-anchored so the files
// align on one timeline; the args.id/args.parent span annotations are
// unique only within one worker's events (viewers lay out by lane and
// time, not by these ids).
func WriteTraceJSON(dir string, w io.Writer) error {
	store, err := storage.Resolve(dir)
	if err != nil {
		return err
	}
	names, err := store.List(TraceDir(dir))
	if errors.Is(err, fs.ErrNotExist) {
		return ErrNoTrace
	}
	if err != nil {
		return err
	}
	merged := struct {
		DisplayTimeUnit string            `json:"displayTimeUnit"`
		TraceEvents     []json.RawMessage `json:"traceEvents"`
	}{DisplayTimeUnit: "ms", TraceEvents: []json.RawMessage{}}
	found := false
	for _, name := range names {
		if !strings.HasSuffix(name, ".json") {
			continue
		}
		b, err := store.Get(name)
		if err != nil {
			return err
		}
		var one struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		if err := json.Unmarshal(b, &one); err != nil {
			return fmt.Errorf("job: corrupt trace %s: %w", name, err)
		}
		found = true
		merged.TraceEvents = append(merged.TraceEvents, one.TraceEvents...)
	}
	if !found {
		return ErrNoTrace
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&merged)
}
