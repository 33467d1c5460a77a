package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestQuantile(t *testing.T) {
	v := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.25, 1.75}, {0.9, 3.7}} {
		if got := quantile(v, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %g) = %g, want %g", v, c.q, got, c.want)
		}
	}
	if !reflect.DeepEqual(v, []float64{4, 1, 3, 2}) {
		t.Errorf("quantile reordered its input: %v", v)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one sample = %g, want 7", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %g, want 0", got)
	}
	if s := summarize([]float64{1, 2, 3, 4, 5}); s != (summary{Median: 3, Q1: 2, Q3: 4, N: 5}) {
		t.Errorf("summarize = %+v", s)
	}
}

func TestFoldSpans(t *testing.T) {
	events := []obs.Event{
		// pe [0,100) with two overlapping generate children covering
		// [10,50) and [30,70) — union 60 — and a commit [80,90).
		{Name: "pe", ID: 1, Start: 0, Dur: 100},
		{Name: "chunk-generate", ID: 2, Parent: 1, Start: 10, Dur: 40},
		{Name: "chunk-generate", ID: 3, Parent: 1, Start: 30, Dur: 40},
		{Name: "chunk-commit", ID: 4, Parent: 1, Start: 80, Dur: 10},
		// nested: upload-part inside the commit, running past its end; only
		// the part inside the parent is subtracted.
		{Name: "upload-part", ID: 5, Parent: 4, Start: 85, Dur: 20},
		// parent 99 was dropped from the trace: counted, subtracted nowhere.
		{Name: "chunk-commit", ID: 6, Parent: 99, Start: 200, Dur: 7},
	}
	got := foldSpans(events)
	want := map[string]spanStat{
		"pe":             {Count: 1, Total: 100, Self: 100 - 60 - 10},
		"chunk-generate": {Count: 2, Total: 80, Self: 80},
		"chunk-commit":   {Count: 2, Total: 17, Self: 5 + 7},
		"upload-part":    {Count: 1, Total: 20, Self: 20},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("foldSpans =\n %+v\nwant\n %+v", got, want)
	}
}

func TestParseProm(t *testing.T) {
	text := `# HELP kagen_jobs_failed_total Jobs that ended with an error.
# TYPE kagen_jobs_failed_total counter
kagen_jobs_failed_total 3
kagen_jobs_by_model_total{model="gnm_undirected"} 32
kagen_commit_seconds_bucket{le="+Inf"} 512
kagen_commit_seconds_sum 0.34375
kagen_commit_seconds_count 512

not a sample
`
	got := parseProm(text)
	want := map[string]float64{
		"kagen_jobs_failed_total":                           3,
		`kagen_jobs_by_model_total{model="gnm_undirected"}`: 32,
		`kagen_commit_seconds_bucket{le="+Inf"}`:            512,
		"kagen_commit_seconds_sum":                          0.34375,
		"kagen_commit_seconds_count":                        512,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parseProm = %v, want %v", got, want)
	}
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validMetricName reports whether name fits the benchmark contract: it
// starts with a letter or digit and holds at most 64 letters, digits,
// '_', '.' and '-'.
func validMetricName(name string) bool { return metricNameRE.MatchString(name) }

func TestValidMetricName(t *testing.T) {
	for _, ok := range []string{"edges_per_s", "job.commit_ms_p90", "a", "9lives", "x-y.z_0", strings.Repeat("a", 64)} {
		if !validMetricName(ok) {
			t.Errorf("validMetricName(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", ".hidden", "_x", "has space", "pct%", "a/b", strings.Repeat("a", 65)} {
		if validMetricName(bad) {
			t.Errorf("validMetricName(%q) = true", bad)
		}
	}
}

// manifest is the shape of BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestManifestMatchesCatalogue keeps BENCHMARK.json and the tables in
// workloads.go in step, and inside the limits the manifest must meet.
func TestManifestMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	var m manifest
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", m.RunSeconds)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloads.go", len(m.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !validMetricName(n) {
			t.Errorf("name %q is outside the contract", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for i, w := range workloads {
		name(w.Name)
		if m.Workloads[i].Name != w.Name || m.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, workloads.go has {%s %s}", i, m.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(m.EndToEnd) != len(endToEnd) || len(m.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, workloads.go has %d+%d",
			len(m.EndToEnd), len(m.PerLayer), len(endToEnd), len(perLayer))
	}
	direction := func(d metricDef) {
		t.Helper()
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
	}
	hasSetup := false
	for i, d := range endToEnd {
		name(d.Name)
		direction(d)
		e := m.EndToEnd[i]
		if e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better || e.Bound != d.Bound {
			t.Errorf("end_to_end %d: BENCHMARK.json has %+v, workloads.go has %+v", i, e, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for i, d := range perLayer {
		name(d.Name)
		direction(d)
		if d.Moves == "" {
			t.Errorf("metric %s does not say which end-to-end metric it should move", d.Name)
		}
		e := m.PerLayer[i]
		if e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better {
			t.Errorf("per_layer %d: BENCHMARK.json has %+v, workloads.go has %+v", i, e, d)
		}
	}
}

// TestQuickSmoke runs every workload in both modes at smoke-test size:
// every operation must succeed and each mode must emit exactly the
// metrics the catalogue names.
func TestQuickSmoke(t *testing.T) {
	// The S3 workload configures its backend through the process
	// environment; have the test restore it.
	for _, k := range []string{"KAGEN_S3_ENDPOINT", "AWS_ACCESS_KEY_ID", "AWS_SECRET_ACCESS_KEY", "AWS_REGION", "KAGEN_S3_CONCURRENCY"} {
		t.Setenv(k, os.Getenv(k))
	}
	b := &bench{out: t.TempDir(), quick: true, goroutines: 2}
	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			res := b.runWorkload(w, 1, 0, traced)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics emitted, catalogue names %d", w.Name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s not emitted", w.Name, traced, d.Name)
				case v.Unit != d.Unit:
					t.Errorf("%s: metric %s has unit %q, want %q", w.Name, d.Name, v.Unit, d.Unit)
				case !traced && v.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %g, must be positive", w.Name, d.Name, v.Value)
				}
			}
		}
	}
	// The result line has exactly the four keys the contract names.
	line, err := json.Marshal(result{Metrics: map[string]metricValue{}})
	var keys map[string]json.RawMessage
	if err == nil {
		err = json.Unmarshal(line, &keys)
	}
	if err != nil || len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
		t.Errorf("result line = %s, %v", line, err)
	}
}
