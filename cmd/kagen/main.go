// Command kagen generates graphs from the supported network models and
// writes them as edge lists (text or binary) or METIS adjacency files.
//
// With -stream the graph is never materialized: the PEs run on a worker
// pool through the job runner's chunk encoders, and each PE's bytes are
// written to -o in PE order while later PEs generate, so instances larger
// than memory can be generated (formats: text, binary, text.gz,
// binary.gz, their sharded-<fmt> variants, and none). A sharded-<fmt>
// stream writes one shard per PE as a job with one chunk per PE, its PEs
// split over -workers job workers that run in this process at once: -o
// names the job directory, which `kagen job verify`, `merge` and
// `validate -job` read, and a failed run names the
// `kagen job resume -dir DEST -worker W` of each worker it left unfinished.
//
// The `kagen job` subcommands plan, execute, checkpoint and resume
// multi-process generation runs with zero inter-worker communication;
// see `kagen job` for usage. `kagen serve` runs the long-lived
// multi-tenant generation service over the same job machinery — jobs are
// content-addressed by their spec hash, overload is rejected with 429,
// and a killed server resumes every incomplete job on restart; see
// `kagen serve -h`.
//
// Examples:
//
//	kagen -model gnm_undirected -n 65536 -m 1048576 -o graph.txt
//	kagen -model rhg -n 1048576 -deg 16 -gamma 2.8 -pes 8 -format metis -o graph.metis
//	kagen -model rgg2d -n 100000 -stats
//	kagen -model rgg2d -n 100000000 -pes 256 -stream -format binary.gz -o huge.bin.gz
//	kagen -model srhg -n 10000000 -pes 64 -stream -format sharded-text.gz -o srhg-job/
//	kagen job init -dir j -model gnm_undirected -n 100000000 -m 1000000000 -pes 128 -chunks-per-pe 8 -job-workers 4 -format binary.gz
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	kagen "repro"
	"repro/internal/job"
	"repro/internal/obs"
	"repro/internal/storage"
)

// logFlags registers the shared -log-level/-log-format flags on a
// flagset and returns the function that applies them after parsing.
func logFlags(fs *flag.FlagSet, defaultLevel string) func() {
	level := fs.String("log-level", defaultLevel, "log level: debug, info, warn, error")
	format := fs.String("log-format", "text", "log format: text or json (one line per event, to stderr)")
	return func() {
		if err := obs.Configure(*level, *format, nil); err != nil {
			fatal(err)
		}
	}
}

func printVersion() {
	version, goVersion := obs.BuildInfo()
	fmt.Printf("kagen %s (%s)\n", version, goVersion)
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "job":
			jobMain(os.Args[2:])
			return
		case "serve":
			serveMain(os.Args[2:])
			return
		case "version", "-version", "--version":
			printVersion()
			return
		}
	}
	var (
		model   = flag.String("model", "gnm_undirected", "model: "+modelList())
		pes     = flag.Uint64("pes", 1, "number of logical PEs (chunks)")
		workers = flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
		seed    = flag.Uint64("seed", 1, "random seed")
		out     = flag.String("o", "", "output destination: a file, file:// or s3:// URI (default: stdout; the job directory or URI for sharded formats)")
		format  = flag.String("format", "text", "output format: text, binary, metis, none; with -stream also text.gz, binary.gz and sharded-<fmt>")
		stats   = flag.Bool("stats", false, "print graph statistics to stderr")
		stream  = flag.Bool("stream", false, "stream edges to -o as they are generated, without materializing the graph")
		params  kagen.ModelParams
	)
	params.RegisterFlags(flag.CommandLine)
	applyLog := logFlags(flag.CommandLine, "warn")
	flag.Parse()
	applyLog()

	gen, err := kagen.New(kagen.Model(*model), params, kagen.Options{Seed: *seed, PEs: *pes, Workers: *workers})
	if err != nil {
		fatal(err)
	}

	if *stream {
		if f, ok := strings.CutPrefix(*format, "sharded-"); ok {
			spec := job.SpecFor(*model, params)
			spec.Seed, spec.PEs, spec.Format = *seed, *pes, f
			runSharded(spec, gen.N(), *out, *workers, *stats)
			return
		}
		runStream(gen, *model, *format, *out, *workers, *stats)
		return
	}

	start := time.Now()
	el, err := gen.Generate()
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)

	if *stats {
		s := kagen.ComputeStats(el)
		fmt.Fprintf(os.Stderr,
			"model=%s n=%d edges=%d avg_degree=%.2f max_degree=%d components=%d self_loops=%d time=%s\n",
			*model, s.N, s.M, s.AvgDegree, s.MaxDegree, s.Components, s.SelfLoops, elapsed)
	}

	if err := writeGraph(el, *format, *out); err != nil {
		fatal(err)
	}
}

// writeGraph writes a materialized graph to out ("" or "-" is stdout).
func writeGraph(el *kagen.EdgeList, format, out string) error {
	var write func(io.Writer, *kagen.EdgeList) error
	switch format {
	case "text":
		write = kagen.WriteEdgeListText
	case "binary":
		write = kagen.WriteEdgeListBinary
	case "metis":
		write = kagen.WriteMetis
	case "none":
		return nil
	default:
		return fmt.Errorf("unknown format %q", format)
	}
	return writeTo(out, func(w io.Writer) error { return write(w, el) })
}

// writeTo runs fill on out: stdout for "" or "-", else the destination's
// single-shot writer, so nothing is published at out unless fill
// succeeds.
func writeTo(out string, fill func(io.Writer) error) error {
	if out == "" || out == "-" {
		return fill(os.Stdout)
	}
	store, err := storage.Resolve(out)
	if err != nil {
		return err
	}
	return storage.WriteObject(store, out, fill)
}

// runStream writes the edge stream through job.Stream, the job's chunk
// encoders without shards. -format none streams the zero format, which
// generates and counts but writes nothing.
func runStream(s kagen.Streamer, model, format, out string, workers int, stats bool) {
	var f kagen.Format
	if format != "none" {
		var err error
		if f, err = kagen.ParseFormat(format); err != nil {
			fatal(err)
		}
	}
	start := time.Now()
	var edges uint64
	stream := func(w io.Writer) (err error) {
		edges, err = job.Stream(s, f, w, workers)
		return err
	}
	var err error
	if f == "" {
		err = stream(io.Discard) // -format none writes nowhere
	} else {
		err = writeTo(out, stream)
	}
	if err != nil {
		fatal(err)
	}
	if stats {
		fmt.Fprintf(os.Stderr, "model=%s n=%d edges=%d pes=%d time=%s\n",
			model, s.N(), edges, s.PEs(), time.Since(start))
	}
}

func runSharded(spec job.Spec, n uint64, out string, workers int, stats bool) {
	start := time.Now()
	edges, err := streamSharded(spec, out, workers, job.RunOptions{Goroutines: 1})
	if err != nil {
		fatal(err)
	}
	if stats {
		fmt.Fprintf(os.Stderr, "model=%s n=%d edges=%d pes=%d time=%s\n",
			spec.Model, n, edges, spec.PEs, time.Since(start))
	}
}

// streamSharded writes one shard per PE as a job at out with one chunk
// per PE: its PEs*1 chunks are the -pes chunks of a direct stream, so
// each shard holds exactly that PE's edges. The PEs are split over
// min(PEs, workers) job workers (0 = GOMAXPROCS), which all run here at
// once; shard bytes do not depend on the split. It returns the edge total.
func streamSharded(spec job.Spec, out string, workers int, opts job.RunOptions) (uint64, error) {
	if out == "" || out == "-" {
		return 0, fmt.Errorf("format sharded-%s needs -o <job directory or URI>", spec.Format)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	spec = spec.Normalized()
	spec.ChunksPerPE, spec.Workers = 1, min(spec.PEs, uint64(workers))
	if err := job.Init(out, spec); err != nil {
		return 0, fmt.Errorf("%w%s", err, continueHint(out))
	}
	errs := make([]error, spec.Workers)
	var wg sync.WaitGroup
	for w := range spec.Workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := job.Run(out, w, opts); err != nil {
				errs[w] = fmt.Errorf("%w (continue with: kagen job resume -dir %s -worker %d)", err, out, w)
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return 0, err
	}
	st, err := job.Inspect(out)
	if err != nil {
		return 0, err
	}
	var edges uint64
	for _, w := range st.Workers {
		for _, pe := range w.PEs {
			edges += pe.Edges
		}
	}
	return edges, nil
}

// continueHint names the commands that finish the unfinished workers of
// the job at dir, or is empty if dir holds no job or a complete one.
func continueHint(dir string) string {
	st, err := job.Inspect(dir)
	if err != nil {
		return ""
	}
	var cmds []string
	for _, w := range st.Workers {
		for _, pe := range w.PEs {
			if !pe.Done {
				verb := "resume"
				if !w.Started {
					verb = "run"
				}
				cmds = append(cmds, fmt.Sprintf("kagen job %s -dir %s -worker %d", verb, dir, w.Worker))
				break
			}
		}
	}
	if len(cmds) == 0 {
		return ""
	}
	return " (continue with: " + strings.Join(cmds, "; ") + ")"
}

func modelList() string {
	names := make([]string, 0, len(kagen.Models()))
	for _, m := range kagen.Models() {
		names = append(names, string(m))
	}
	return strings.Join(names, ", ")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kagen:", err)
	os.Exit(1)
}
