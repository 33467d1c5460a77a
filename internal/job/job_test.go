package job

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	kagen "repro"
	"repro/internal/failpoint"
	"repro/internal/merkle"
)

var errSimCrash = errors.New("simulated crash")

// interruptAfter returns an OnCheckpoint hook that aborts the run as a
// simulated crash after n durable checkpoints.
func interruptAfter(n int) func(pe, chunks, edges uint64) error {
	count := 0
	return func(pe, chunks, edges uint64) error {
		count++
		if count >= n {
			return errSimCrash
		}
		return nil
	}
}

// runAll runs every worker of a job to completion.
func runAll(t *testing.T, dir string, spec Spec) {
	t.Helper()
	for w := uint64(0); w < spec.Normalized().Workers; w++ {
		if err := Run(dir, w, RunOptions{Goroutines: 2}); err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
}

// readShards returns the raw bytes of every shard file, keyed by PE.
func readShards(t *testing.T, dir string, spec Spec) map[uint64][]byte {
	t.Helper()
	out := make(map[uint64][]byte)
	for pe := uint64(0); pe < spec.Normalized().PEs; pe++ {
		b, err := os.ReadFile(ShardPath(dir, pe, spec.ShardFormat()))
		if err != nil {
			t.Fatal(err)
		}
		out[pe] = b
	}
	return out
}

func testSpecs() []Spec {
	base := Spec{Seed: 99, PEs: 4, ChunksPerPE: 3, Workers: 2}
	var specs []Spec
	for _, f := range []string{"text", "binary", "text.gz", "binary.gz"} {
		s := base
		s.Model, s.N, s.M, s.Format = "gnm_undirected", 600, 4000, f
		specs = append(specs, s)
	}
	for _, f := range []string{"text", "binary.gz"} {
		s := base
		s.Model, s.N, s.R, s.Format = "rgg2d", 500, 0.07, f
		specs = append(specs, s)

		s = base
		s.Model, s.N, s.Prob, s.Blocks, s.PIn, s.POut, s.Format = "sbm", 500, 0, 2, 0.05, 0.005, f
		specs = append(specs, s)
	}
	return specs
}

// TestCrashResumeByteIdentical is the core contract: a job interrupted
// mid-PE after a recorded checkpoint — with a torn tail past the
// checkpoint, as a real crash leaves — and then resumed produces shard
// files byte-identical to an uninterrupted run, across models and
// compressed and uncompressed formats.
func TestCrashResumeByteIdentical(t *testing.T) {
	for _, spec := range testSpecs() {
		spec := spec
		t.Run(fmt.Sprintf("%s-%s", spec.Model, spec.Format), func(t *testing.T) {
			clean := t.TempDir()
			if err := Init(clean, spec); err != nil {
				t.Fatal(err)
			}
			runAll(t, clean, spec)

			crashed := t.TempDir()
			if err := Init(crashed, spec); err != nil {
				t.Fatal(err)
			}
			// Worker 0 owns PEs 0-1 (6 chunks): the torn-tail failpoint
			// fires at the 4th checkpoint — PE 1's first, exercising a
			// chunk-granular restart — appending garbage to the shard
			// exactly as a crash mid-batch would, then "crashing".
			t.Cleanup(failpoint.Reset)
			failpoint.Arm("job/torn-tail", 4)
			err := Run(crashed, 0, RunOptions{Goroutines: 2})
			if !errors.Is(err, failpoint.ErrCrash) {
				t.Fatalf("interrupted run returned %v, want simulated crash", err)
			}

			st, err := Inspect(crashed)
			if err != nil {
				t.Fatal(err)
			}
			gaps := st.Gaps()
			if len(gaps) == 0 {
				t.Fatal("interrupted job reports no gaps")
			}
			// The manifest records the chunk whose checkpoint fired the
			// failpoint — and, if the publish that recorded it covered more,
			// later chunks of PE 1, never its finalization.
			if partial := gaps[0]; partial.PE != 1 || partial.ChunksDone == 0 {
				t.Fatalf("expected the gap in PE 1 past its first chunk, got PE %d at %d/%d chunks",
					partial.PE, partial.ChunksDone, partial.Chunks)
			}

			if _, err := os.Stat(ManifestPath(crashed, 0)); err != nil {
				t.Fatalf("no manifest after interrupted run: %v", err)
			}
			if err := Resume(crashed, 0, RunOptions{Goroutines: 2}); err != nil {
				t.Fatalf("resume: %v", err)
			}
			// Worker 1 runs clean (crash-free workers are independent).
			if err := Run(crashed, 1, RunOptions{Goroutines: 2}); err != nil {
				t.Fatal(err)
			}

			want := readShards(t, clean, spec)
			got := readShards(t, crashed, spec)
			for pe, wb := range want {
				if string(got[pe]) != string(wb) {
					t.Errorf("shard %d differs after crash+resume (%d vs %d bytes)", pe, len(got[pe]), len(wb))
				}
			}

			st, err = Inspect(crashed)
			if err != nil {
				t.Fatal(err)
			}
			if !st.Complete() {
				t.Fatal("resumed job not complete")
			}

			// Merged outputs are byte-identical too.
			mc := filepath.Join(clean, "merged")
			mr := filepath.Join(crashed, "merged")
			if err := MergeToFile(clean, mc); err != nil {
				t.Fatal(err)
			}
			if err := MergeToFile(crashed, mr); err != nil {
				t.Fatal(err)
			}
			cb, err := os.ReadFile(mc)
			if err != nil {
				t.Fatal(err)
			}
			rb, err := os.ReadFile(mr)
			if err != nil {
				t.Fatal(err)
			}
			if string(cb) != string(rb) {
				t.Errorf("merged output differs after crash+resume")
			}
		})
	}
}

// TestJobMatchesDirectStream: the job's merged edge list equals the
// direct generator output for the same instance definition (same seed,
// Chunks = PEs*ChunksPerPE) — the job runner adds durability, not a new
// instance.
func TestJobMatchesDirectStream(t *testing.T) {
	spec := Spec{Model: "gnm_undirected", N: 600, M: 4000, Seed: 7,
		PEs: 3, ChunksPerPE: 4, Workers: 1, Format: "text.gz"}
	dir := t.TempDir()
	if err := Init(dir, spec); err != nil {
		t.Fatal(err)
	}
	runAll(t, dir, spec)
	merged := filepath.Join(dir, "merged.txt.gz")
	if err := MergeToFile(dir, merged); err != nil {
		t.Fatal(err)
	}
	got, err := kagen.ReadEdgeListFile(merged, kagen.FormatTextGz)
	if err != nil {
		t.Fatal(err)
	}
	want, err := kagen.GNM(spec.N, spec.M, false, kagen.Options{Seed: spec.Seed, PEs: spec.TotalChunks()})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != want.Len() {
		t.Fatalf("merged job has %d edges, direct run %d", got.Len(), want.Len())
	}
	for i := range want.Edges {
		if got.Edges[i] != want.Edges[i] {
			t.Fatalf("edge %d: job %v, direct %v", i, got.Edges[i], want.Edges[i])
		}
	}
}

// TestShardBytesIndependentOfWorkerSplit: a worker hands one set of
// write buffers, hashers and gzip state from each of its PEs to the next.
// A shard written with recycled state (one worker, PEs 1-3) must be
// byte-identical to the same shard written with fresh state (one worker
// per PE), and its recorded digests must verify.
func TestShardBytesIndependentOfWorkerSplit(t *testing.T) {
	for _, format := range []string{"binary", "text.gz"} {
		one := Spec{Model: "gnm_undirected", N: 600, M: 4000, Seed: 5,
			PEs: 4, ChunksPerPE: 3, Workers: 1, Format: format}
		each := one
		each.Workers = 4
		shards := map[uint64][]byte{}
		for _, spec := range []Spec{each, one} {
			dir := t.TempDir()
			if err := Init(dir, spec); err != nil {
				t.Fatal(err)
			}
			runAll(t, dir, spec)
			if res, err := Verify(dir, VerifyOptions{All: true}); err != nil || !res.OK() {
				t.Fatalf("%s, %d workers: verify: %v, %+v", format, spec.Workers, err, res)
			}
			for pe, b := range readShards(t, dir, spec) {
				if want, seen := shards[pe]; seen && string(b) != string(want) {
					t.Errorf("%s: shard %d differs between 4 workers and 1 (%d vs %d bytes)", format, pe, len(want), len(b))
				}
				shards[pe] = b
			}
		}
	}
}

// TestEmptyChunksCheckpointAndResume: a sparse instance over many chunks
// produces empty chunks; their checkpoints are free (offset unchanged)
// and resume across them stays byte-identical.
func TestEmptyChunksCheckpointAndResume(t *testing.T) {
	spec := Spec{Model: "gnm_undirected", N: 256, M: 8, Seed: 3,
		PEs: 4, ChunksPerPE: 4, Workers: 1, Format: "text"}
	clean := t.TempDir()
	if err := Init(clean, spec); err != nil {
		t.Fatal(err)
	}
	runAll(t, clean, spec)

	crashed := t.TempDir()
	if err := Init(crashed, spec); err != nil {
		t.Fatal(err)
	}
	err := Run(crashed, 0, RunOptions{OnCheckpoint: interruptAfter(6)})
	if !errors.Is(err, errSimCrash) {
		t.Fatalf("got %v, want simulated crash", err)
	}
	if err := Resume(crashed, 0, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	want := readShards(t, clean, spec)
	got := readShards(t, crashed, spec)
	for pe, wb := range want {
		if string(got[pe]) != string(wb) {
			t.Errorf("shard %d differs", pe)
		}
	}
}

func TestManifestRoundTrip(t *testing.T) {
	spec := Spec{Model: "gnm_undirected", N: 100, M: 200, Seed: 1,
		PEs: 4, ChunksPerPE: 2, Workers: 2, Format: "text"}.Normalized()
	m := newManifest(spec, 1)
	leaves := []merkle.Digest{sha256.Sum256([]byte("chunk0")), sha256.Sum256([]byte("chunk1"))}
	root := merkle.Root(leaves)
	m.PEs[0] = PEProgress{
		PE: m.PEs[0].PE, ChunksDone: 2, Offset: 123, Edges: 55, Done: true,
		HeaderEnd: 10,
		Chunks: []ChunkRecord{
			{Digest: hex.EncodeToString(leaves[0][:]), End: 70, Edges: 30},
			{Digest: hex.EncodeToString(leaves[1][:]), End: 123, Edges: 25},
		},
		Root: hex.EncodeToString(root[:]),
	}
	m.PEs[1] = PEProgress{
		PE: m.PEs[1].PE, ChunksDone: 1, Offset: 17, Edges: 9,
		HeaderEnd: 5,
		Chunks:    []ChunkRecord{{Digest: hex.EncodeToString(leaves[0][:]), End: 17, Edges: 9}},
	}

	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := WriteManifest(path, m); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("atomic write left its temp file behind")
	}
	got, err := ReadManifest(path, spec)
	if err != nil {
		t.Fatal(err)
	}
	if got.SpecHash != m.SpecHash || got.Worker != m.Worker || len(got.PEs) != len(m.PEs) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, m)
	}
	for i := range m.PEs {
		if !reflect.DeepEqual(got.PEs[i], m.PEs[i]) {
			t.Fatalf("PE %d round trip mismatch: %+v vs %+v", i, got.PEs[i], m.PEs[i])
		}
	}
}

// TestManifestRejectsCorruption: every class of manifest damage — torn
// JSON, trailing garbage, unknown fields, a foreign spec hash, impossible
// progress — must fail loudly instead of seeding a resume.
func TestManifestRejectsCorruption(t *testing.T) {
	spec := Spec{Model: "gnm_undirected", N: 100, M: 200, Seed: 1,
		PEs: 4, ChunksPerPE: 2, Workers: 2, Format: "text"}.Normalized()
	path := filepath.Join(t.TempDir(), "manifest.json")
	write := func(s string) {
		if err := os.WriteFile(path, []byte(s), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	valid := func() string {
		m := newManifest(spec, 0)
		if err := WriteManifest(path, m); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}()

	cases := map[string]string{
		"torn JSON":        valid[:len(valid)/2],
		"trailing garbage": valid + "{}",
		"unknown field":    strings.Replace(valid, `"spec_hash"`, `"spec_hash_v2"`, 1),
		"foreign hash":     strings.Replace(valid, spec.Hash(), strings.Repeat("ab", 32), 1),
		"excess chunks":    strings.Replace(valid, `"chunks_done": 0`, `"chunks_done": 99`, 1),
		"wrong PE":         strings.Replace(valid, `"pe": 1`, `"pe": 3`, 1),
	}
	for name, content := range cases {
		write(content)
		if _, err := ReadManifest(path, spec); err == nil {
			t.Errorf("%s: corrupt manifest accepted", name)
		}
	}

	// The pristine manifest still reads back fine (the harness itself is
	// not rejecting everything).
	write(valid)
	if _, err := ReadManifest(path, spec); err != nil {
		t.Errorf("valid manifest rejected: %v", err)
	}

	// A done PE with missing chunks is impossible state.
	m := newManifest(spec, 0)
	m.PEs[0].Done = true
	if err := WriteManifest(path, m); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(path, spec); err == nil {
		t.Error("done PE with 0 chunks accepted")
	}

	// Integrity-section damage: a finalized PE whose chunk digests or root
	// were tampered with must fail the read-time Merkle re-check.
	leaves := []merkle.Digest{sha256.Sum256([]byte("a")), sha256.Sum256([]byte("b"))}
	root := merkle.Root(leaves)
	m = newManifest(spec, 0)
	m.PEs[0] = PEProgress{
		PE: m.PEs[0].PE, ChunksDone: 2, Offset: 40, Edges: 6, Done: true, HeaderEnd: 8,
		Chunks: []ChunkRecord{
			{Digest: hex.EncodeToString(leaves[0][:]), End: 20, Edges: 4},
			{Digest: hex.EncodeToString(leaves[1][:]), End: 40, Edges: 2},
		},
		Root: hex.EncodeToString(root[:]),
	}
	if err := WriteManifest(path, m); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(path, spec); err != nil {
		t.Fatalf("well-formed integrity section rejected: %v", err)
	}
	tampered := m.PEs[0]
	for name, mutate := range map[string]func(p *PEProgress){
		"tampered digest": func(p *PEProgress) {
			d := sha256.Sum256([]byte("evil"))
			p.Chunks[0].Digest = hex.EncodeToString(d[:])
		},
		"tampered root": func(p *PEProgress) {
			d := sha256.Sum256([]byte("evil root"))
			p.Root = hex.EncodeToString(d[:])
		},
		"offsets not monotone": func(p *PEProgress) { p.Chunks[1].End = 10 },
		"edge sum mismatch":    func(p *PEProgress) { p.Chunks[1].Edges = 99 },
		"root on unfinished PE": func(p *PEProgress) {
			p.Done = false
			p.ChunksDone = 1
			p.Chunks = p.Chunks[:1]
			p.Offset = 20
			p.Edges = 4
		},
	} {
		cp := tampered
		cp.Chunks = append([]ChunkRecord(nil), tampered.Chunks...)
		mutate(&cp)
		m.PEs[0] = cp
		if err := WriteManifest(path, m); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadManifest(path, spec); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestSpecHashBindsInstanceDefinition: any change to the instance
// definition or execution shape changes the hash, and defaults normalize
// before hashing.
func TestSpecHashBindsInstanceDefinition(t *testing.T) {
	base := Spec{Model: "gnm_undirected", N: 100, M: 200, Seed: 1,
		PEs: 4, ChunksPerPE: 2, Workers: 2, Format: "text"}
	h := base.Hash()
	mutations := []func(*Spec){
		func(s *Spec) { s.Seed = 2 },
		func(s *Spec) { s.N = 101 },
		func(s *Spec) { s.ChunksPerPE = 4 },
		func(s *Spec) { s.PEs = 8 },
		func(s *Spec) { s.Model = "gnp_undirected" },
		func(s *Spec) { s.Format = "text.gz" },
	}
	for i, mutate := range mutations {
		s := base
		mutate(&s)
		if s.Hash() == h {
			t.Errorf("mutation %d did not change the spec hash", i)
		}
	}
	// Explicit defaults hash identically to omitted fields.
	a := Spec{Model: "gnm_undirected", N: 100, M: 200, Seed: 1}
	b := Spec{Model: "gnm_undirected", N: 100, M: 200, Seed: 1,
		PEs: 1, ChunksPerPE: 1, Workers: 1, Format: "text"}
	if a.Hash() != b.Hash() {
		t.Error("normalization does not apply before hashing")
	}
	// Job IDs and serve cache keys outlive builds: the hash of a model
	// whose instance definition never changed is what it has always been.
	if want := "ad2865b911cacb859833a3a285114664773214ed966dd6eeb206ce7521ff8724"; h != want {
		t.Errorf("gnm_undirected spec hash %s, want %s as before instance versions", h, want)
	}
	// rmat moved to instance version 2; its version-1 hash is the old one.
	r := Spec{Model: "rmat", Scale: 10, M: 2000, Seed: 1, PEs: 2, ChunksPerPE: 2, Workers: 1, Format: "binary"}
	if want := "d8ed3fd306a2e9649cd16899be06fbfcacc947fa9e434c1c9b3703398ea95f8d"; r.hashAt(1) != want || r.Hash() == want {
		t.Errorf("rmat spec hash: version 1 %s (want %s), current %s (must differ)", r.hashAt(1), want, r.Hash())
	}
}

// TestInstanceVersionRefusesOldManifest: an rmat job directory begun
// under instance version 1 (the per-level descent) holds shards of a
// different instance than this build generates. Run and Resume must
// refuse it, naming the versions, rather than append version-2 chunks to
// version-1 shards.
func TestInstanceVersionRefusesOldManifest(t *testing.T) {
	spec := Spec{Model: "rmat", Scale: 10, M: 2000, Seed: 1, PEs: 2, ChunksPerPE: 2, Workers: 1, Format: "binary"}
	dir := t.TempDir()
	if err := Init(dir, spec); err != nil {
		t.Fatal(err)
	}
	old := newManifest(spec, 0)
	old.SpecHash = spec.hashAt(1)
	if err := WriteManifest(ManifestPath(dir, 0), old); err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func(string, uint64, RunOptions) error{"Run": Run, "Resume": Resume} {
		err := run(dir, 0, RunOptions{})
		if err == nil || !strings.Contains(err.Error(), "instance version 1") || !strings.Contains(err.Error(), "version 2") {
			t.Errorf("%s on a version-1 manifest: %v", name, err)
		}
	}
	if _, err := os.Stat(ShardPath(dir, 0, spec.ShardFormat())); !os.IsNotExist(err) {
		t.Errorf("a refused run touched the shard: %v", err)
	}
	// The same directory without the stale manifest runs fine.
	if err := os.Remove(ManifestPath(dir, 0)); err != nil {
		t.Fatal(err)
	}
	runAll(t, dir, spec)
}

func TestResumeRequiresManifest(t *testing.T) {
	dir := t.TempDir()
	spec := Spec{Model: "gnm_undirected", N: 100, M: 200, Seed: 1, PEs: 2, Workers: 2, Format: "text"}
	if err := Init(dir, spec); err != nil {
		t.Fatal(err)
	}
	if err := Resume(dir, 0, RunOptions{}); err == nil {
		t.Fatal("resume without a manifest succeeded")
	}
}

func TestInitRefusesExistingJob(t *testing.T) {
	dir := t.TempDir()
	spec := Spec{Model: "gnm_undirected", N: 100, M: 200, Seed: 1, PEs: 2, Workers: 1, Format: "text"}
	if err := Init(dir, spec); err != nil {
		t.Fatal(err)
	}
	if err := Init(dir, spec); err == nil {
		t.Fatal("second init over the same directory succeeded")
	}
}

func TestMergeRefusesIncompleteJob(t *testing.T) {
	spec := Spec{Model: "gnm_undirected", N: 600, M: 4000, Seed: 5,
		PEs: 4, ChunksPerPE: 2, Workers: 2, Format: "text"}
	dir := t.TempDir()
	if err := Init(dir, spec); err != nil {
		t.Fatal(err)
	}
	if err := Run(dir, 0, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	// Worker 1 never ran: merge must refuse and name the gap.
	if err := MergeToFile(dir, filepath.Join(dir, "merged")); err == nil {
		t.Fatal("merge of an incomplete job succeeded")
	}
	st, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Complete() {
		t.Fatal("half-run job reports complete")
	}
	if got := len(st.Gaps()); got != 2 {
		t.Fatalf("want 2 gap PEs (worker 1's), got %d", got)
	}
	if got := len(st.CompletedPEs()); got != 2 {
		t.Fatalf("want 2 completed PEs, got %d", got)
	}
}

// TestSpecValidation: execution-shape errors are caught at init.
func TestSpecValidation(t *testing.T) {
	bad := []Spec{
		{Model: "nope", N: 10, PEs: 1, Workers: 1, Format: "text"},
		{Model: "gnm_undirected", N: 10, M: 5, PEs: 2, Workers: 4, Format: "text"},
		{Model: "gnm_undirected", N: 10, M: 5, PEs: 1, Workers: 1, Format: "sharded-avian"},
		{Model: "rhg", N: 100, AvgDeg: 8, Gamma: 2.8, PEs: 1, Workers: 1, Format: "text"}, // materialize-only
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d validated: %+v", i, s)
		}
	}
	good := Spec{Model: "rgg2d", N: 1000, R: 0.05, PEs: 4, ChunksPerPE: 2, Workers: 2, Format: "binary.gz"}
	if err := good.Validate(); err != nil {
		t.Errorf("good spec rejected: %v", err)
	}
}
