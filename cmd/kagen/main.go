// Command kagen generates graphs from the supported network models and
// writes them as edge lists or METIS adjacency files.
//
// An edge list is streamed, never materialized: the PEs run on a worker
// pool through the job runner's chunk encoders, and each PE's bytes are
// written to -o in PE order while later PEs generate, so instances larger
// than memory can be generated (formats: text, binary, text.gz,
// binary.gz, their sharded-<fmt> variants, and none). A sharded-<fmt> run writes one shard
// per PE as a job with one chunk per PE, its PEs split over -workers job
// workers that run in this process at once: -o names the job directory,
// which `kagen job verify`, `merge` and `validate -job` read, and a
// failed run names the `kagen job resume -dir DEST -worker W` of each
// worker it left unfinished. -format metis alone materializes the graph,
// because a METIS file lists every vertex's neighbours together; METIS
// graphs are undirected, so it refuses the models that list each edge in
// one orientation (gnm_directed, gnp_directed, ba, rmat).
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
//	kagen -model rgg2d -n 100000 -format none -stats
//	kagen -model rgg2d -n 100000000 -pes 256 -format binary.gz -o huge.bin.gz
//	kagen -model srhg -n 10000000 -pes 64 -format sharded-text.gz -o srhg-job/
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
	if err := generate(os.Args[1:]); err != nil {
		fatal(err)
	}
}

// generate runs kagen without a subcommand: parse args, write the graph
// to -o in -format, and with -stats print one line to stderr.
func generate(args []string) error {
	fs := flag.NewFlagSet("kagen", flag.ExitOnError)
	var (
		model   = fs.String("model", "gnm_undirected", "model: "+modelList())
		pes     = fs.Uint64("pes", 1, "number of logical PEs (chunks)")
		workers = fs.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
		seed    = fs.Uint64("seed", 1, "random seed")
		out     = fs.String("o", "", "output destination: a file, file:// or s3:// URI (default: stdout; the job directory or URI for sharded formats)")
		format  = fs.String("format", "text", "output format: "+formatList())
		stats   = fs.Bool("stats", false, "print model, n, edges, pes and time to stderr")
		params  kagen.ModelParams
	)
	params.RegisterFlags(fs)
	applyLog := logFlags(fs, "warn")
	fs.Parse(args)
	applyLog()

	gen, err := kagen.New(kagen.Model(*model), params, kagen.Options{Seed: *seed, PEs: *pes, Workers: *workers})
	if err != nil {
		return err
	}
	start := time.Now()
	var edges uint64
	if f, ok := strings.CutPrefix(*format, "sharded-"); ok {
		spec := job.SpecFor(*model, params)
		spec.Seed, spec.PEs, spec.Format = *seed, *pes, f
		edges, err = streamSharded(spec, *out, *workers, job.RunOptions{Goroutines: 1})
	} else if *format == "metis" {
		edges, err = writeMetis(kagen.Model(*model), gen, *out)
	} else {
		edges, err = runStream(gen, *format, *out, *workers)
	}
	if err != nil {
		return err
	}
	if *stats {
		fmt.Fprintf(os.Stderr, "model=%s n=%d edges=%d pes=%d time=%s\n",
			*model, gen.N(), edges, gen.PEs(), time.Since(start))
	}
	return nil
}

// formatList is the -format usage: the streaming formats, their sharded
// variants, none and metis.
func formatList() string {
	var names []string
	for _, f := range kagen.Formats() {
		names = append(names, string(f))
	}
	return strings.Join(names, ", ") + ", sharded-<fmt>, none or metis"
}

// writeMetis is the one output that materializes the graph: a METIS file
// lists each vertex's neighbours on its line, so it needs the whole
// adjacency before the first line can be written. METIS graphs are
// undirected, so a model whose stream lists each edge in one orientation
// has no METIS form.
func writeMetis(model kagen.Model, gen kagen.Generator, out string) (uint64, error) {
	if !kagen.BothOrientations(model) {
		return 0, fmt.Errorf("-format metis needs both orientations of every edge, and model %s lists each edge once; use text or binary", model)
	}
	el, err := gen.Generate()
	if err != nil {
		return 0, err
	}
	return uint64(el.Len()), writeTo(out, func(w io.Writer) error { return kagen.WriteMetis(w, el) })
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
// encoders without shards, and returns the edge count. -format none
// streams the zero format, which generates and counts but writes nothing.
func runStream(s kagen.Streamer, format, out string, workers int) (uint64, error) {
	var f kagen.Format
	var err error
	if format != "none" {
		if f, err = kagen.ParseFormat(format); err != nil {
			return 0, err
		}
	}
	var edges uint64
	stream := func(w io.Writer) (err error) {
		edges, err = job.Stream(s, f, w, workers)
		return err
	}
	if f == "" {
		err = stream(io.Discard) // -format none writes nowhere
	} else {
		err = writeTo(out, stream)
	}
	return edges, err
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
