// Command validate checks a generated edge-list file against the defining
// and distributional properties of its network model, printing one line
// per check. Exit status 1 if any check fails.
//
// The input is a single edge-list file or URI in any streaming format
// (text, binary, text.gz, binary.gz). With -job the argument is a kagen
// job directory — including the output of `kagen -format
// sharded-<fmt>`: the model and its parameters come from the job spec,
// the worker manifests decide which PE shards are complete, only those
// are read, merged in PE order, and unfinished PEs are reported as
// resumable gaps (an incomplete job fails the "job complete" check, so
// exit status still gates CI).
//
// The model parameter flags and their defaults are kagen's own, so
// `validate -model X file` without parameters checks exactly what
// `kagen -model X` without parameters generated.
//
// Usage:
//
//	validate -model gnm_undirected -n 65536 -m 1048576 graph.txt
//	validate -model rhg -n 1048576 -deg 16 -gamma 2.8 -format binary graph.bin
//	validate -model rgg2d -n 1000000 -format binary.gz graph.bin.gz
//	validate -job jobdir/
package main

import (
	"flag"
	"fmt"
	"os"

	kagen "repro"
	"repro/internal/job"
	"repro/internal/validate"
)

func main() {
	var (
		model    = flag.String("model", "", "model the file claims to be")
		informat = flag.String("format", "text", "input format: text, binary, text.gz, binary.gz")
		jobDir   = flag.Bool("job", false, "input is a kagen job directory (model and parameters from its spec)")
		params   kagen.ModelParams
	)
	params.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if flag.NArg() != 1 || (*model == "" && !*jobDir) {
		fmt.Fprintln(os.Stderr, "usage: validate -model <name> [params] file\n       validate -job jobdir")
		os.Exit(2)
	}
	if *jobDir {
		report(validateJob(flag.Arg(0)))
		return
	}
	format, err := kagen.ParseFormat(*informat)
	if err != nil {
		fatal(err)
	}
	el, err := kagen.ReadEdgeListFrom(flag.Arg(0), format)
	if err != nil {
		fatal(err)
	}
	checks, err := kagen.Checks(kagen.Model(*model), el, params)
	if err != nil {
		fatal(err)
	}
	report(checks)
}

// validateJob checks a job directory: completed shards must parse, the
// job must be complete (resumable gaps are reported, and fail the check),
// and — once complete — the merged output must pass the model suite with
// the parameters pinned in the job spec.
func validateJob(dir string) []validate.Check {
	st, err := job.Inspect(dir)
	if err != nil {
		fatal(err)
	}
	spec := st.Spec
	fmt.Printf("job %s: %s, seed %d, %d PEs x %d chunks, format %s\n",
		dir, spec.Model, spec.Seed, spec.PEs, spec.ChunksPerPE, spec.Format)

	var checks []validate.Check
	format := spec.ShardFormat()
	completed := st.CompletedPEs()
	merged := &kagen.EdgeList{}
	parseErr := error(nil)
	for _, pe := range completed {
		el, err := kagen.ReadEdgeListFrom(job.ShardPath(dir, pe, format), format)
		if err != nil {
			parseErr = err
			break
		}
		if el.N > merged.N {
			merged.N = el.N
		}
		merged.Edges = append(merged.Edges, el.Edges...)
	}
	detail := fmt.Sprintf("%d completed PE shard(s), %d edges", len(completed), merged.Len())
	if parseErr != nil {
		detail = parseErr.Error()
	}
	checks = append(checks, validate.Check{Name: "completed shards parse", Passed: parseErr == nil, Detail: detail})

	gaps := st.Gaps()
	gapDetail := "no resumable gaps"
	if len(gaps) > 0 {
		gapDetail = fmt.Sprintf("%d PE(s) resumable:", len(gaps))
		for _, g := range gaps {
			gapDetail += fmt.Sprintf(" pe%d@%d/%d(w%d)", g.PE, g.ChunksDone, g.Chunks, g.Worker)
		}
	}
	checks = append(checks, validate.Check{Name: "job complete", Passed: len(gaps) == 0, Detail: gapDetail})

	if len(gaps) == 0 && parseErr == nil {
		mc, err := kagen.Checks(kagen.Model(spec.Model), merged, spec.Params())
		if err != nil {
			fatal(err)
		}
		checks = append(checks, mc...)
	}
	return checks
}

// report prints the check lines and exits 1 if any failed.
func report(checks []validate.Check) {
	failed := 0
	for _, c := range checks {
		status := "ok  "
		if !c.Passed {
			status = "FAIL"
			failed++
		}
		fmt.Printf("%s %-32s %s\n", status, c.Name, c.Detail)
	}
	if failed > 0 {
		fmt.Printf("%d of %d checks failed\n", failed, len(checks))
		os.Exit(1)
	}
	fmt.Printf("all %d checks passed\n", len(checks))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "validate:", err)
	os.Exit(1)
}
