// Command kagen generates graphs from the supported network models and
// writes them as edge lists (text or binary) or METIS adjacency files.
//
// With -stream the graph is never materialized: the model's streaming
// generator runs all PEs on a worker pool and the edge stream is written
// straight to the sink in deterministic PE order, so instances larger
// than memory can be generated (formats: text, binary, text.gz,
// binary.gz, their sharded-<fmt> variants, and none; with the sharded
// formats -o names a directory of per-PE files).
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
//	kagen -model srhg -n 10000000 -pes 64 -stream -format sharded-text.gz -o shards/
//	kagen job init -dir j -model gnm_undirected -n 100000000 -m 1000000000 -pes 128 -chunks-per-pe 8 -job-workers 4 -format binary.gz
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	kagen "repro"
	"repro/internal/obs"
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
		out     = flag.String("o", "", "output destination: a file, file:// or s3:// URI (default: stdout; a directory or URI prefix for sharded formats)")
		format  = flag.String("format", "text", "output format: text, binary, metis, none; with -stream also text.gz, binary.gz and sharded-<fmt>")
		stats   = flag.Bool("stats", false, "print graph statistics to stderr")
		stream  = flag.Bool("stream", false, "stream edges to the sink without materializing the graph")
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

	var w *os.File = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	switch *format {
	case "text":
		err = kagen.WriteEdgeListText(w, el)
	case "binary":
		err = kagen.WriteEdgeListBinary(w, el)
	case "metis":
		err = kagen.WriteMetis(w, el)
	case "none":
	default:
		err = fmt.Errorf("unknown format %q", *format)
	}
	if err != nil {
		fatal(err)
	}
}

// countingSink wraps a Sink and counts the delivered edges for -stats.
type countingSink struct {
	kagen.Sink
	edges uint64
}

func (c *countingSink) Batch(pe uint64, edges []kagen.Edge) error {
	c.edges += uint64(len(edges))
	return c.Sink.Batch(pe, edges)
}

// discardSink counts edges without writing them (-format none).
type discardSink struct{}

func (discardSink) Begin(n, pes uint64) error             { return nil }
func (discardSink) Batch(pe uint64, e []kagen.Edge) error { return nil }
func (discardSink) EndPE(pe uint64) error                 { return nil }
func (discardSink) Close() error                          { return nil }

func runStream(s kagen.Streamer, model, format, out string, workers int, stats bool) {
	var sink kagen.Sink
	switch {
	case format == "none":
		sink = discardSink{}
	case strings.HasPrefix(format, "sharded-"):
		f, err := kagen.ParseFormat(strings.TrimPrefix(format, "sharded-"))
		if err != nil {
			fatal(err)
		}
		if out == "" {
			fatal(fmt.Errorf("format %q needs -o <directory or URI>", format))
		}
		sink, err = kagen.OpenSink(out, f, kagen.SinkSharded(model))
		if err != nil {
			fatal(err)
		}
	default:
		f, err := kagen.ParseFormat(format)
		if err != nil {
			fatal(err)
		}
		// OpenSink resolves out — "" or "-" is stdout (where a non-seekable
		// pipe makes the binary sink fall back to sentinel framing, which
		// readers accept), a path or file:// is the local filesystem, and
		// s3:// streams a striped multipart upload to the object store.
		sink, err = kagen.OpenSink(out, f)
		if err != nil {
			fatal(err)
		}
	}

	counting := &countingSink{Sink: sink}
	start := time.Now()
	if err := kagen.Stream(s, workers, counting); err != nil {
		fatal(err)
	}
	if stats {
		fmt.Fprintf(os.Stderr, "model=%s n=%d edges=%d pes=%d time=%s\n",
			model, s.N(), counting.edges, s.PEs(), time.Since(start))
	}
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
