package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	kagen "repro"
	"repro/internal/job"
	"repro/internal/obs"
)

// jobUsage is printed for `kagen job` without (or with an unknown)
// subcommand.
const jobUsage = `usage: kagen job <command> [flags]

Plan, execute, checkpoint and resume distributed generation runs with
zero inter-worker communication. A job destination — a local directory
or an s3:// URI, named by -dir — holds the spec (job.json), one shard
per PE, and one checkpoint manifest per worker; any worker can
crash (or be preempted) and resume from its last chunk-granular
checkpoint, producing output byte-identical to an uninterrupted run. On
an object store, shards stream as striped multipart uploads — parts
upload while later chunks are still generating — and manifests only
ever record offsets the store durably holds.

Every chunk is re-derivable from the spec alone, so integrity never
rests on the bytes on disk: manifests carry per-chunk SHA-256 digests
under a Merkle root, verify re-derives chunks and compares, and repair
regenerates exactly what failed.

commands:
  init    write a new job spec into a directory
  run     execute one worker's PE range (continues from checkpoints)
  resume  like run, but requires an existing manifest
  status  summarize per-worker progress and resumable gaps (-watch polls)
  verify  re-derive sampled (or all) chunks and check manifests + shards
  repair  regenerate and splice back everything verify finds corrupt
  merge   concatenate the finished shards into one edge-list file
  trace   export the job's recorded spans as Chrome trace-event JSON

Every subcommand takes -log-level/-log-format (structured logs to
stderr). run/resume also take -trace (record worker/PE/chunk/upload
spans; persisted under <dir>/trace/ and exported by "job trace"),
-cpuprofile and -memprofile.

examples:
  kagen job init   -dir j -model gnm_undirected -n 1000000 -m 16000000 \
                   -pes 64 -chunks-per-pe 16 -job-workers 4 -format binary.gz
  kagen job run    -dir j -worker 0   # one process per worker, any order
  kagen job resume -dir j -worker 0   # after a crash
  kagen job status -dir j
  kagen job verify -dir j -sample 4   # spot-check 4 chunks per PE
  kagen job verify -dir j -all        # exhaustive audit
  kagen job repair -dir j             # fix what verify -all finds
  kagen job merge  -dir j -o graph.bin.gz
  kagen job run    -dir j -worker 0 -trace w0.json -log-level info
  kagen job trace  -dir j -o trace.json  # open in Perfetto / chrome://tracing
  kagen job status -dir j -watch      # live per-PE progress + edges/sec

  kagen job init   -dir s3://bucket/jobs/j -model rgg2d -n 1000000 -pes 16
  kagen job run    -dir s3://bucket/jobs/j -worker 0
  kagen job verify -dir s3://bucket/jobs/j -all
  kagen job merge  -dir s3://bucket/jobs/j -o s3://bucket/graph.txt
`

func jobMain(args []string) {
	if len(args) == 0 {
		fmt.Fprint(os.Stderr, jobUsage)
		os.Exit(2)
	}
	switch args[0] {
	case "init":
		jobInit(args[1:])
	case "run", "resume":
		jobRun(args[0], args[1:])
	case "status":
		jobStatus(args[1:])
	case "verify":
		jobVerify(args[1:])
	case "repair":
		jobRepair(args[1:])
	case "merge":
		jobMerge(args[1:])
	case "trace":
		jobTrace(args[1:])
	default:
		fmt.Fprintf(os.Stderr, "kagen job: unknown command %q\n\n", args[0])
		fmt.Fprint(os.Stderr, jobUsage)
		os.Exit(2)
	}
}

func jobInit(args []string) {
	fs := flag.NewFlagSet("kagen job init", flag.ExitOnError)
	var (
		dir     = fs.String("dir", "", "job destination: a directory or s3:// URI (created if missing)")
		model   = fs.String("model", "gnm_undirected", "model: "+modelList())
		seed    = fs.Uint64("seed", 1, "random seed")
		pes     = fs.Uint64("pes", 1, "logical PEs (one shard each)")
		cpp     = fs.Uint64("chunks-per-pe", 1, "chunks per PE (checkpoint granularity; part of the instance definition)")
		workers = fs.Uint64("job-workers", 1, "worker processes the PE set is split across")
		format  = fs.String("format", "text", "shard format: text, binary, text.gz, binary.gz")
		p       kagen.ModelParams
	)
	p.RegisterFlags(fs)
	applyLog := logFlags(fs, "warn")
	fs.Parse(args)
	applyLog()
	dest := jobDest(fs, *dir)
	spec := job.SpecFor(*model, p)
	spec.Seed, spec.PEs, spec.ChunksPerPE, spec.Workers, spec.Format = *seed, *pes, *cpp, *workers, *format
	if err := job.Init(dest, spec); err != nil {
		fatal(err)
	}
	spec = spec.Normalized()
	fmt.Printf("job %s: %s over %d PEs x %d chunks, %d worker(s), format %s\nspec hash %s\n",
		dest, spec.Model, spec.PEs, spec.ChunksPerPE, spec.Workers, spec.Format, spec.Hash())
}

func jobRun(verb string, args []string) {
	fs := flag.NewFlagSet("kagen job "+verb, flag.ExitOnError)
	var (
		dir        = fs.String("dir", "", "job destination: a directory or s3:// URI")
		worker     = fs.Uint64("worker", 0, "worker index in [0, job-workers)")
		workers    = fs.Int("workers", 0, "goroutines that generate, encode and compress chunks (0 = GOMAXPROCS)")
		failAfter  = fs.Int("fail-after", 0, "abort after at least this many checkpoints as a simulated crash — the manifest records that many chunks or, when one publish covered more, a few more (testing hook; 0 = never)")
		traceOut   = fs.String("trace", "", "record worker/PE/chunk/upload spans and write Chrome trace-event JSON to this file")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile (after GC) to this file when the run ends")
	)
	applyLog := logFlags(fs, "warn")
	fs.Parse(args)
	applyLog()
	dest := jobDest(fs, *dir)
	opts := job.RunOptions{Goroutines: *workers}
	var tr *obs.Trace
	if *traceOut != "" {
		tr = obs.NewTrace(0)
		// The active trace is what the storage layer's upload-part spans
		// attach to; RunOptions.Trace is what the job layer threads through.
		obs.SetActive(tr)
		opts.Trace = tr
	}
	if *failAfter > 0 {
		remaining := *failAfter
		opts.OnCheckpoint = func(pe, chunks, edges uint64) error {
			remaining--
			if remaining <= 0 {
				return fmt.Errorf("injected failure after checkpoint (pe %d, %d chunks)", pe, chunks)
			}
			return nil
		}
	}
	var cpuF *os.File
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		cpuF = f
	}
	var err error
	if verb == "resume" {
		err = job.Resume(dest, *worker, opts)
	} else {
		err = job.Run(dest, *worker, opts)
	}
	// Profiles and the trace are diagnostic artifacts: write them even
	// when the run failed, and only surface their errors when the run
	// itself succeeded.
	if cpuF != nil {
		pprof.StopCPUProfile()
		if cerr := cpuF.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if *memProfile != "" {
		if perr := writeHeapProfile(*memProfile); perr != nil && err == nil {
			err = perr
		}
	}
	if tr != nil {
		if terr := writeTraceFile(*traceOut, tr); terr != nil && err == nil {
			err = terr
		}
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("worker %d done\n", *worker)
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC() // materialize the final live set before snapshotting
	return pprof.WriteHeapProfile(f)
}

func writeTraceFile(path string, tr *obs.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// jobTrace exports the per-worker trace files a traced run persisted
// under <dir>/trace/ as one merged Chrome trace-event JSON document.
func jobTrace(args []string) {
	fs := flag.NewFlagSet("kagen job trace", flag.ExitOnError)
	dir := fs.String("dir", "", "job destination: a directory or s3:// URI")
	out := fs.String("o", "", "output file (default: stdout)")
	applyLog := logFlags(fs, "warn")
	fs.Parse(args)
	applyLog()
	dest := jobDest(fs, *dir)
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := job.WriteTraceJSON(dest, w); err != nil {
		fatal(err)
	}
	if *out != "" {
		fmt.Printf("trace written to %s\n", *out)
	}
}

func jobStatus(args []string) {
	fs := flag.NewFlagSet("kagen job status", flag.ExitOnError)
	dir := fs.String("dir", "", "job destination: a directory or s3:// URI")
	watch := fs.Bool("watch", false, "poll progress until the job completes, with per-PE throughput")
	interval := fs.Duration("interval", time.Second, "poll interval for -watch")
	applyLog := logFlags(fs, "warn")
	fs.Parse(args)
	applyLog()
	dest := jobDest(fs, *dir)
	if *watch {
		jobWatch(dest, *interval)
		return
	}
	st, err := job.Inspect(dest)
	if err != nil {
		fatal(err)
	}
	spec := st.Spec
	fmt.Printf("job %s: %s, seed %d, %d PEs x %d chunks, format %s\nspec hash %s\n",
		dest, spec.Model, spec.Seed, spec.PEs, spec.ChunksPerPE, spec.Format, st.SpecHash)
	for _, w := range st.Workers {
		donePEs, chunksDone, chunks := 0, uint64(0), uint64(0)
		var edges uint64
		for _, pe := range w.PEs {
			chunks += pe.Chunks
			chunksDone += pe.ChunksDone
			edges += pe.Edges
			if pe.Done {
				donePEs++
			}
		}
		state := "not started"
		if w.Started {
			state = fmt.Sprintf("%d/%d PEs, %d/%d chunks, %d edges", donePEs, len(w.PEs), chunksDone, chunks, edges)
		}
		fmt.Printf("worker %d: %s\n", w.Worker, state)
	}
	if gaps := st.Gaps(); len(gaps) > 0 {
		fmt.Printf("resumable gaps (%d PEs):\n", len(gaps))
		for _, g := range gaps {
			fmt.Printf("  pe %d (worker %d): %d/%d chunks committed\n", g.PE, g.Worker, g.ChunksDone, g.Chunks)
		}
	} else {
		fmt.Println("complete")
	}
}

// jobWatch polls Inspect and prints one frame per interval: a job-wide
// summary plus, for every in-progress PE, its chunk progress and edge
// throughput since the previous frame. It exits when the job completes.
func jobWatch(dest string, interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	prevEdges := map[uint64]uint64{}
	prevAt := time.Time{}
	for {
		st, err := job.Inspect(dest)
		if err != nil {
			fatal(err)
		}
		now := time.Now()
		var chunks, chunksDone, edges uint64
		var donePEs, totalPEs int
		for _, w := range st.Workers {
			for _, pe := range w.PEs {
				totalPEs++
				chunks += pe.Chunks
				chunksDone += pe.ChunksDone
				edges += pe.Edges
				if pe.Done {
					donePEs++
				}
			}
		}
		fmt.Printf("[%s] %s: %d/%d PEs, %d/%d chunks, %d edges\n",
			now.Format("15:04:05"), st.Spec.Model, donePEs, totalPEs, chunksDone, chunks, edges)
		dt := now.Sub(prevAt).Seconds()
		for _, w := range st.Workers {
			for _, pe := range w.PEs {
				if pe.Done || pe.ChunksDone == 0 {
					continue
				}
				rate := "-"
				if prev, seen := prevEdges[pe.PE]; seen && !prevAt.IsZero() && dt > 0 {
					rate = fmt.Sprintf("%.0f edges/s", float64(pe.Edges-prev)/dt)
				}
				fmt.Printf("  pe %d (worker %d): %d/%d chunks, %d edges, %s\n",
					pe.PE, pe.Worker, pe.ChunksDone, pe.Chunks, pe.Edges, rate)
				prevEdges[pe.PE] = pe.Edges
			}
		}
		if st.Complete() {
			fmt.Println("complete")
			return
		}
		prevAt = now
		time.Sleep(interval)
	}
}

func jobVerify(args []string) {
	fs := flag.NewFlagSet("kagen job verify", flag.ExitOnError)
	var (
		dir    = fs.String("dir", "", "job destination: a directory or s3:// URI")
		all    = fs.Bool("all", false, "check every committed chunk instead of a sample")
		sample = fs.Int("sample", 2, "chunks checked per PE when sampling")
		seed   = fs.Int64("seed", 0, "sampling seed (same seed = same chunks)")
	)
	applyLog := logFlags(fs, "warn")
	fs.Parse(args)
	applyLog()
	dest := jobDest(fs, *dir)
	res, err := job.Verify(dest, job.VerifyOptions{All: *all, Sample: *sample, Seed: *seed})
	if err != nil {
		fatal(err)
	}
	printVerifyResult(res)
	if !res.OK() {
		os.Exit(1)
	}
}

func printVerifyResult(res *job.VerifyResult) {
	fmt.Printf("verified %d chunks across %d PEs\n", res.ChunksChecked, res.PEsChecked)
	for _, f := range res.Faults {
		fmt.Printf("FAULT %s\n", f)
	}
	if res.OK() {
		fmt.Println("ok")
	} else {
		fmt.Printf("%d faults\n", len(res.Faults))
	}
}

func jobRepair(args []string) {
	fs := flag.NewFlagSet("kagen job repair", flag.ExitOnError)
	dir := fs.String("dir", "", "job destination: a directory or s3:// URI")
	applyLog := logFlags(fs, "warn")
	fs.Parse(args)
	applyLog()
	dest := jobDest(fs, *dir)
	// Repair is verify-driven: an exhaustive pass finds every fault, the
	// repair regenerates exactly those, and a second pass proves the job
	// clean — all from the spec, no other worker consulted.
	res, err := job.Verify(dest, job.VerifyOptions{All: true})
	if err != nil {
		fatal(err)
	}
	if res.OK() {
		fmt.Printf("verified %d chunks: nothing to repair\n", res.ChunksChecked)
		return
	}
	for _, f := range res.Faults {
		fmt.Printf("FAULT %s\n", f)
	}
	rep, err := job.Repair(dest, res.Faults)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("repaired: %d chunks spliced, %d PEs regenerated, %d manifests rebuilt\n",
		rep.ChunksSpliced, rep.PEsReset, rep.WorkersRebuilt)
	after, err := job.Verify(dest, job.VerifyOptions{All: true})
	if err != nil {
		fatal(err)
	}
	printVerifyResult(after)
	if len(rep.Unrepaired) > 0 || !after.OK() {
		os.Exit(1)
	}
}

func jobMerge(args []string) {
	fs := flag.NewFlagSet("kagen job merge", flag.ExitOnError)
	dir := fs.String("dir", "", "job destination: a directory or s3:// URI")
	out := fs.String("o", "", "merged output: a file or s3:// URI (default: stdout)")
	applyLog := logFlags(fs, "warn")
	fs.Parse(args)
	applyLog()
	dest := jobDest(fs, *dir)
	if *out == "" {
		if err := job.Merge(dest, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	if err := job.MergeToFile(dest, *out); err != nil {
		fatal(err)
	}
	fmt.Printf("merged into %s\n", *out)
}

// jobDest returns the job destination -dir names, and exits with the
// usage if it is unset.
func jobDest(fs *flag.FlagSet, dir string) string {
	if dir == "" {
		fmt.Fprintln(os.Stderr, "kagen job: -dir is required")
		fs.Usage()
		os.Exit(2)
	}
	return dir
}
