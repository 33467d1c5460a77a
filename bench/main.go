// Command bench is the repository's end-to-end benchmark: it drives the
// public entry points a user of this module waits for — job.Init/Run/
// Verify/Merge on the filesystem and on an in-process S3 server, and the
// serve HTTP API — and reports throughput, latency, CPU and allocation
// per edge, plus a per-layer budget from a separate traced pass.
//
//	go run ./bench --workload rmat_bin_fs --seed 1 --seconds 20 --trace 0
//	go run ./bench                 # every workload, both passes
//	go run ./bench --selfcheck     # every workload twice, medians compared against the bounds
//	go run ./bench --quick         # smoke-test sizes
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md and the
// BENCHMARK.json at the repository root.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
)

// result is one run of one workload in one mode.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// spread holds quartiles and sample counts for the human-readable
	// report; the contract's JSON line carries only the values.
	spread map[string]summary
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench carries what every workload driver shares: where scratch data
// goes, how much parallelism generates load, and the failure ledger.
type bench struct {
	out        string // scratch root: job directories, traces
	quick      bool
	goroutines int // load-generating goroutines / clients / connections: min(2, nproc)
	seq        int // distinguishes job directories

	mu        sync.Mutex // guards the ledger: HTTP clients report from their own goroutines
	attempted int
	failed    int
}

// op counts one attempted operation and, if err is non-nil, one failure.
// It returns whether the operation succeeded.
func (b *bench) op(what string, err error) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if err != nil {
		b.failed++
		fmt.Fprintf(os.Stderr, "bench: FAILED %s: %v\n", what, err)
		return false
	}
	return true
}

// runWorkload runs one workload in one mode and assembles the result in
// the contract's shape: with traced false every end-to-end metric, with
// traced true every per-layer metric.
func (b *bench) runWorkload(w *workload, seed uint64, seconds float64, traced bool) result {
	b.attempted, b.failed = 0, 0
	specs := w.Specs(seed, b.quick)
	var measured samples
	defs := endToEnd
	switch {
	case traced:
		measured, defs = b.layers(w, specs, seconds), perLayer
	case w.Serve:
		measured = b.serveE2E(w, specs, seconds)
	default:
		measured = b.jobE2E(w, specs[0], seconds)
	}
	res := result{Metrics: map[string]metricValue{}, spread: map[string]summary{}}
	for _, d := range defs {
		v := measured[d.Name]
		if len(v) == 0 {
			b.op("metric "+d.Name, errors.New("not measured"))
			continue
		}
		s := summarize(v)
		if math.IsNaN(s.Median) || math.IsInf(s.Median, 0) {
			b.op("metric "+d.Name, fmt.Errorf("not a number: %v", s.Median))
			continue
		}
		res.Metrics[d.Name] = metricValue{Value: s.Median, Unit: d.Unit}
		res.spread[d.Name] = s
	}
	res.Attempted, res.Failed = max(b.attempted, 1), b.failed
	res.Correct = b.failed == 0
	return res
}

func (r result) print(w *workload, traced bool) {
	mode := "end-to-end (tracing off)"
	if traced {
		mode = "per-layer (traced pass + layer replay)"
	}
	fmt.Printf("\n== %s — %s ==\n", w.Name, mode)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := r.spread[n]
		fmt.Printf("%-34s %14.6g %-9s q1 %-12.6g q3 %-12.6g n=%d\n",
			n, s.Median, r.Metrics[n].Unit, s.Q1, s.Q3, s.N)
	}
	fmt.Printf("operations: attempted %d, failed %d\n", r.Attempted, r.Failed)
}

func main() {
	var (
		name      = flag.String("workload", "", "run one workload (default: all of them, both passes)")
		seed      = flag.Uint64("seed", 1, "becomes Spec.Seed of every generated spec")
		seconds   = flag.Float64("seconds", 20, "how long one run measures")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from the traced pass and layer replay")
		quick     = flag.Bool("quick", false, "tiny inputs, one repetition: a smoke test, not a measurement")
		selfcheck = flag.Bool("selfcheck", false, "run every workload's end-to-end pass twice and fail if two medians differ by more than the metric's bound")
		out       = flag.String("out", filepath.Join("bench", "out"), "scratch directory for job directories and Chrome trace files")
	)
	flag.Parse()

	b := &bench{out: *out, quick: *quick, goroutines: min(2, runtime.NumCPU())}
	if *quick {
		*seconds = 0
	}
	if err := os.MkdirAll(b.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "bench: %s %s/%s nproc=%d load goroutines/clients=%d (closed loop) seed=%d seconds=%g out=%s\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), b.goroutines, *seed, *seconds, b.out)

	ok := true
	switch {
	case *selfcheck:
		ok = b.selfcheck(*seed, *seconds)
	case *name != "":
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		res := b.runWorkload(w, *seed, *seconds, *trace != 0)
		res.print(w, *trace != 0)
		line, _ := json.Marshal(res) // plain data: cannot fail
		fmt.Println(string(line))
		ok = res.Correct
	default:
		all := map[string]result{}
		for i := range workloads {
			w := &workloads[i]
			for _, traced := range []bool{false, true} {
				res := b.runWorkload(w, *seed, *seconds, traced)
				res.print(w, traced)
				ok = ok && res.Correct
				key := w.Name + "/end_to_end"
				if traced {
					key = w.Name + "/per_layer"
				}
				all[key] = res
			}
		}
		line, _ := json.Marshal(all)
		fmt.Println(string(line))
	}
	if !ok {
		os.Exit(1)
	}
}

// selfcheck runs every workload's end-to-end pass twice back to back and
// reports, per metric, how far the second median is from the first. It
// fails when a metric got worse by more than its bound or any operation
// failed.
func (b *bench) selfcheck(seed uint64, seconds float64) bool {
	ok := true
	for i := range workloads {
		w := &workloads[i]
		first := b.runWorkload(w, seed, seconds, false)
		second := b.runWorkload(w, seed, seconds, false)
		ok = ok && first.Correct && second.Correct
		fmt.Printf("\n== %s — selfcheck ==\n", w.Name)
		for _, d := range endToEnd {
			a, c := first.Metrics[d.Name].Value, second.Metrics[d.Name].Value
			worse := (c - a) / a
			if d.Better == "higher" {
				worse = (a - c) / a
			}
			verdict := "ok"
			if worse > d.Bound {
				verdict, ok = "OUT OF BOUND", false
			}
			fmt.Printf("%-22s first %-12.6g second %-12.6g worse by %+6.2f%% (bound %g%%) %s\n",
				d.Name, a, c, 100*worse, 100*d.Bound, verdict)
		}
	}
	return ok
}
