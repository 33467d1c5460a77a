// Command benchsuite drives the paper's evaluation at laptop scale.
//
// In its default mode it regenerates every figure of §8 (Figs. 6-18) as
// CSV-like series tables; see internal/experiments for the sweep
// definitions.
//
// With -bench it instead executes the per-configuration micro-benchmarks
// of bench_test.go (shared via internal/benchreg) through
// testing.Benchmark and writes the measured ns/op, B/op and allocs/op per
// benchmark as JSON — the file committed as BENCH_kagen.json, which pins
// the repository's performance trajectory. -checkjson validates the shape
// of such a file (used by CI to keep the format honest).
//
// -compare diffs two such files (typically the committed baseline against
// a fresh -bench run) on ns/op and allocs/op and exits non-zero when any
// benchmark regressed beyond the threshold — the CI regression gate.
//
// Usage:
//
//	benchsuite [-exp all|fig06|fig07|...|fig18] [-quick] [-seed N]
//	benchsuite -bench [-benchtime 0.5s] [-quick] [-o BENCH_kagen.json]
//	benchsuite -checkjson BENCH_kagen.json
//	benchsuite -compare [-threshold pct] [-allocs-only] old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/benchreg"
	"repro/internal/experiments"
)

// benchFile is the JSON shape written by -bench and verified by -checkjson.
type benchFile struct {
	Schema     string       `json:"schema"`
	GoOS       string       `json:"goos"`
	GoArch     string       `json:"goarch"`
	Benchmarks []benchEntry `json:"benchmarks"`
}

type benchEntry struct {
	Name     string  `json:"name"`
	N        int     `json:"n"`
	NsOp     float64 `json:"ns_op"`
	BOp      int64   `json:"b_op"`
	AllocsOp int64   `json:"allocs_op"`
}

const benchSchema = "kagen-bench/v1"

func main() {
	testing.Init() // registers test.benchtime before flag.Parse
	var (
		quick      = flag.Bool("quick", false, "smaller sizes, fewer points per series; with -bench, one iteration per benchmark")
		seed       = flag.Uint64("seed", 42, "instance seed")
		exp        = flag.String("exp", "all", "experiment to run (all, fig06..fig18)")
		bench      = flag.Bool("bench", false, "run the micro-benchmark registry and write JSON instead of the figure sweeps")
		benchtime  = flag.String("benchtime", "0.5s", "per-benchmark measuring time for -bench (testing.B semantics, e.g. 1s or 100x)")
		out        = flag.String("o", "", "output file for -bench JSON (default: stdout)")
		checkjson  = flag.String("checkjson", "", "validate the shape of an existing bench JSON file and exit")
		compare    = flag.Bool("compare", false, "compare two bench JSON files (old.json new.json) and fail on regressions")
		threshold  = flag.Float64("threshold", 10, "max allowed regression in percent for -compare")
		allocsOnly = flag.Bool("allocs-only", false, "with -compare, gate only on allocs/op (timings are noisy on shared runners)")
	)
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("benchsuite: -compare needs exactly two files, got %d", flag.NArg()))
		}
		if err := compareBenchFiles(flag.Arg(0), flag.Arg(1), *threshold, *allocsOnly); err != nil {
			fatal(err)
		}
	case *checkjson != "":
		if err := checkBenchFile(*checkjson); err != nil {
			fatal(err)
		}
		fmt.Printf("%s: valid %s file\n", *checkjson, benchSchema)
	case *bench:
		if err := runBench(*quick, *benchtime, *out); err != nil {
			fatal(err)
		}
	default:
		err := experiments.Run(*exp, experiments.Config{
			Quick: *quick,
			Seed:  *seed,
			Out:   os.Stdout,
		})
		if err != nil {
			fatal(err)
		}
	}
}

// runBench executes every registered leaf benchmark with testing.Benchmark
// and writes the results as a benchFile.
func runBench(quick bool, benchtime, out string) error {
	if quick {
		benchtime = "1x"
	}
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		return fmt.Errorf("benchsuite: bad -benchtime: %w", err)
	}
	file := benchFile{Schema: benchSchema, GoOS: runtime.GOOS, GoArch: runtime.GOARCH}
	for _, c := range benchreg.All() {
		r := testing.Benchmark(c.F)
		file.Benchmarks = append(file.Benchmarks, benchEntry{
			Name:     c.Name,
			N:        r.N,
			NsOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BOp:      r.AllocedBytesPerOp(),
			AllocsOp: r.AllocsPerOp(),
		})
		fmt.Fprintf(os.Stderr, "%-48s %12.0f ns/op %12d B/op %9d allocs/op\n",
			c.Name, file.Benchmarks[len(file.Benchmarks)-1].NsOp,
			r.AllocedBytesPerOp(), r.AllocsPerOp())
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(out, data, 0o644)
}

// checkBenchFile validates that a JSON file has the benchFile shape: the
// schema marker, at least one benchmark, and sane fields on every entry.
func checkBenchFile(path string) error {
	_, err := loadBenchFile(path)
	return err
}

// loadBenchFile reads, parses and shape-validates a bench JSON file.
func loadBenchFile(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var file benchFile
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if file.Schema != benchSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, file.Schema, benchSchema)
	}
	if len(file.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks recorded", path)
	}
	seen := make(map[string]bool, len(file.Benchmarks))
	for i, b := range file.Benchmarks {
		if b.Name == "" {
			return nil, fmt.Errorf("%s: benchmark %d has no name", path, i)
		}
		if seen[b.Name] {
			return nil, fmt.Errorf("%s: duplicate benchmark %q", path, b.Name)
		}
		seen[b.Name] = true
		if b.N <= 0 || b.NsOp < 0 || b.BOp < 0 || b.AllocsOp < 0 {
			return nil, fmt.Errorf("%s: benchmark %q has invalid measurements", path, b.Name)
		}
	}
	return &file, nil
}

// compareBenchFiles diffs the benchmarks shared by two bench JSON files.
// A benchmark regresses when its new ns/op or allocs/op exceeds the old
// value by more than threshold percent (allocs additionally get a slack
// of 2 allocations, so a 0→1 jitter never trips the gate). Benchmarks
// present in only one file are reported but never fail the comparison —
// the registry is allowed to evolve. Returns an error listing every
// regression, which fatal() turns into a non-zero exit.
func compareBenchFiles(oldPath, newPath string, threshold float64, allocsOnly bool) error {
	oldFile, err := loadBenchFile(oldPath)
	if err != nil {
		return err
	}
	newFile, err := loadBenchFile(newPath)
	if err != nil {
		return err
	}
	oldBy := make(map[string]benchEntry, len(oldFile.Benchmarks))
	for _, b := range oldFile.Benchmarks {
		oldBy[b.Name] = b
	}
	pct := func(oldV, newV float64) float64 {
		if oldV <= 0 {
			return 0
		}
		return (newV - oldV) / oldV * 100
	}
	var regressions []string
	matched := 0
	for _, nb := range newFile.Benchmarks {
		ob, ok := oldBy[nb.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "new benchmark (no baseline): %s\n", nb.Name)
			continue
		}
		matched++
		delete(oldBy, nb.Name)
		if !allocsOnly {
			if d := pct(ob.NsOp, nb.NsOp); d > threshold {
				regressions = append(regressions, fmt.Sprintf(
					"%s: ns/op %+.1f%% (%.0f -> %.0f)", nb.Name, d, ob.NsOp, nb.NsOp))
			}
		}
		allowed := float64(ob.AllocsOp)*(1+threshold/100) + 2
		if float64(nb.AllocsOp) > allowed {
			regressions = append(regressions, fmt.Sprintf(
				"%s: allocs/op %d -> %d (allowed %.0f)", nb.Name, ob.AllocsOp, nb.AllocsOp, allowed))
		}
	}
	for name := range oldBy {
		fmt.Fprintf(os.Stderr, "baseline benchmark missing from new run: %s\n", name)
	}
	if len(regressions) > 0 {
		return fmt.Errorf("benchsuite: %d of %d benchmarks regressed beyond %.0f%%:\n  %s",
			len(regressions), matched, threshold, strings.Join(regressions, "\n  "))
	}
	fmt.Printf("%d benchmarks compared, none regressed beyond %.0f%%\n", matched, threshold)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}
