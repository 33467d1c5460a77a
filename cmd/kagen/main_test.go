package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	kagen "repro"
	"repro/internal/job"
)

// gnmSharded is the spec kagen -format sharded-<format> builds
// for a 4-PE gnm_undirected instance.
func gnmSharded(format string) job.Spec {
	spec := job.SpecFor("gnm_undirected", kagen.ModelParams{N: 4096, M: 32768})
	spec.Seed, spec.PEs, spec.Format = 7, 4, format
	return spec
}

// TestShardedStreamRunsWorkersAtOnce pins that a sharded stream generates
// its PEs on more than one goroutine: each of two workers' first
// checkpoint waits until the other worker has reached its own, which
// workers run one after another never do. The shards equal a one-worker
// run's.
func TestShardedStreamRunsWorkersAtOnce(t *testing.T) {
	var arrived atomic.Int32
	both := make(chan struct{})
	hook := func(pe, _, _ uint64) error {
		if pe != 0 && pe != 2 { // the first PEs of workers 0 and 1
			return nil
		}
		if arrived.Add(1) == 2 {
			close(both)
		}
		select {
		case <-both:
			return nil
		case <-time.After(10 * time.Second):
			return fmt.Errorf("PE %d: the other worker never ran beside this one", pe)
		}
	}
	two := filepath.Join(t.TempDir(), "two")
	edges, err := streamSharded(gnmSharded("binary.gz"), two, 2, job.RunOptions{Goroutines: 1, OnCheckpoint: hook})
	if err != nil {
		t.Fatal(err)
	}
	if spec, err := job.Load(two); err != nil || spec.Workers != 2 || spec.ChunksPerPE != 1 {
		t.Fatalf("job spec %+v, %v: want 2 workers, 1 chunk per PE", spec, err)
	}
	one := filepath.Join(t.TempDir(), "one")
	edges1, err := streamSharded(gnmSharded("binary.gz"), one, 1, job.RunOptions{Goroutines: 1})
	if err != nil {
		t.Fatal(err)
	}
	if edges == 0 || edges != edges1 {
		t.Fatalf("edges: 2 workers %d, 1 worker %d", edges, edges1)
	}
	for pe := range uint64(4) {
		a, err := os.ReadFile(job.ShardPath(two, pe, kagen.FormatBinaryGz))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(job.ShardPath(one, pe, kagen.FormatBinaryGz))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("PE %d: shard differs between 2 workers and 1", pe)
		}
	}
}

// TestShardedStreamNamesUnfinishedWorkers pins the hints a failed sharded
// stream gives: the failure names the resume of the worker that failed,
// re-running the command names it again, and once the job is complete
// the refusal names none.
func TestShardedStreamNamesUnfinishedWorkers(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "job")
	stop := errors.New("stop")
	opts := job.RunOptions{Goroutines: 1, OnCheckpoint: func(pe, _, _ uint64) error {
		if pe == 2 {
			return stop
		}
		return nil
	}}
	want := fmt.Sprintf("kagen job resume -dir %s -worker 1", dir)
	_, err := streamSharded(gnmSharded("text"), dir, 2, opts)
	if err == nil || !strings.Contains(err.Error(), want) || strings.Contains(err.Error(), "-worker 0") {
		t.Fatalf("failed run: %v; want it to name only %q", err, want)
	}
	_, err = streamSharded(gnmSharded("text"), dir, 2, job.RunOptions{})
	if err == nil || !strings.Contains(err.Error(), "already holds a job") || !strings.Contains(err.Error(), want) {
		t.Fatalf("re-run: %v; want a refusal naming %q", err, want)
	}
	if err := job.Resume(dir, 1, job.RunOptions{}); err != nil {
		t.Fatal(err)
	}
	_, err = streamSharded(gnmSharded("text"), dir, 2, job.RunOptions{})
	if err == nil || strings.Contains(err.Error(), "continue with") {
		t.Fatalf("re-run of a complete job: %v; want a refusal with no hint", err)
	}
}

// TestEveryFormatWithoutModeFlag runs kagen with each -format value and
// no other switch: the four plain formats read back with the instance's
// edge count, sharded-binary leaves a complete job, none writes nothing
// and metis writes a header plus one line per vertex.
func TestEveryFormatWithoutModeFlag(t *testing.T) {
	const n = 4096
	gen, err := kagen.New(kagen.ModelGNMUndirected, kagen.ModelParams{N: n, M: 32768}, kagen.Options{Seed: 7, PEs: 3})
	if err != nil {
		t.Fatal(err)
	}
	want, err := gen.Generate()
	if err != nil {
		t.Fatal(err)
	}
	formats := []string{"sharded-binary", "none", "metis"}
	for _, f := range kagen.Formats() {
		formats = append(formats, string(f))
	}
	for _, format := range formats {
		t.Run(format, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "out")
			err := generate([]string{"-model", "gnm_undirected", "-n", fmt.Sprint(n), "-m", "32768",
				"-seed", "7", "-pes", "3", "-format", format, "-o", out})
			if err != nil {
				t.Fatal(err)
			}
			switch format {
			case "sharded-binary":
				st, err := job.Inspect(out)
				if err != nil {
					t.Fatal(err)
				}
				if !st.Complete() {
					t.Fatalf("job at %s is not complete: %v", out, st.Gaps())
				}
			case "none":
				if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
					t.Fatalf("-format none left something at -o: %v", err)
				}
			case "metis":
				b, err := os.ReadFile(out)
				if err != nil {
					t.Fatal(err)
				}
				if lines := strings.Count(string(b), "\n"); lines != n+1 {
					t.Fatalf("metis file has %d lines, want %d", lines, n+1)
				}
			default:
				el, err := kagen.ReadEdgeListFrom(out, kagen.Format(format))
				if err != nil {
					t.Fatal(err)
				}
				if el.N != n || el.Len() != want.Len() {
					t.Fatalf("read back n=%d with %d edges, want n=%d with %d", el.N, el.Len(), n, want.Len())
				}
			}
		})
	}
}

// TestMetisNeedsBothOrientations: METIS files describe undirected graphs,
// so -format metis refuses every model whose stream lists an edge in one
// orientation only, leaving nothing at -o, and for the others writes
// symmetric adjacency lists under a header of n and the undirected edge
// count. The model table's claim is checked against each model's edges:
// a model says it lists both orientations exactly when its edge list is
// symmetric.
func TestMetisNeedsBothOrientations(t *testing.T) {
	oneWay := map[kagen.Model]bool{kagen.ModelGNMDirected: true, kagen.ModelGNPDirected: true,
		kagen.ModelBA: true, kagen.ModelRMAT: true}
	params := kagen.ModelParams{N: 512, M: 2048, P: 0.01, D: 4, Scale: 9, AvgDeg: 8, Gamma: 2.8, Blocks: 2}
	for _, model := range kagen.Models() {
		gen, err := kagen.New(model, params, kagen.Options{Seed: 3, PEs: 3})
		if err != nil {
			t.Fatal(err)
		}
		el, err := gen.Generate()
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[kagen.Edge]bool, el.Len())
		for _, e := range el.Edges {
			seen[e] = true
		}
		symmetric := true
		for e := range seen {
			symmetric = symmetric && seen[kagen.Edge{U: e.V, V: e.U}]
		}
		if el.Len() == 0 || symmetric != !oneWay[model] || kagen.BothOrientations(model) != !oneWay[model] {
			t.Errorf("%s: %d edges, symmetric %v, BothOrientations %v; want one-way %v",
				model, el.Len(), symmetric, kagen.BothOrientations(model), oneWay[model])
		}

		out := filepath.Join(t.TempDir(), "g.metis")
		err = generate([]string{"-model", string(model), "-n", "512", "-m", "2048", "-p", "0.01", "-d", "4",
			"-scale", "9", "-deg", "8", "-gamma", "2.8", "-seed", "3", "-pes", "3", "-format", "metis", "-o", out})
		if oneWay[model] {
			if err == nil || !strings.Contains(err.Error(), "both orientations") {
				t.Errorf("%s: -format metis returned %v, want a refusal naming both orientations", model, err)
			}
			if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("%s: a refused -format metis left something at -o: %v", model, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		if model == kagen.ModelGNMUndirected {
			assertSymmetricMetis(t, out, gen.N(), el.Len())
		}
	}
}

// assertSymmetricMetis reads a METIS file back and checks its header (n
// vertices, half as many undirected edges as directed adjacencies) and
// that v is on u's line exactly as often as u is on v's.
func assertSymmetricMetis(t *testing.T, path string, n uint64, adjacencies int) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
	if want := fmt.Sprintf("%d %d", n, adjacencies/2); lines[0] != want || uint64(len(lines)) != n+1 {
		t.Fatalf("metis header %q and %d vertex lines, want %q and %d", lines[0], len(lines)-1, want, n)
	}
	count := map[[2]string]int{}
	total := 0
	for u, line := range lines[1:] {
		for _, v := range strings.Fields(line) {
			count[[2]string{fmt.Sprint(u + 1), v}]++
			total++
		}
	}
	if total != adjacencies {
		t.Fatalf("metis lists %d adjacencies, the graph has %d", total, adjacencies)
	}
	for k, c := range count {
		if back := count[[2]string{k[1], k[0]}]; back != c {
			t.Fatalf("vertex %s lists %s %d times, %s lists %s %d times", k[0], k[1], c, k[1], k[0], back)
		}
	}
}
