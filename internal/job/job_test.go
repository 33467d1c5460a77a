package job

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	kagen "repro"
	"repro/internal/failpoint"
	"repro/internal/merkle"
	"repro/internal/storage"
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
// instance. With one chunk per PE — what `kagen -format sharded-<fmt>`
// runs — every shard decodes to exactly the direct generator's Chunk(pe),
// in every format. The pinned text digests were taken from the per-PE
// files the sharded stream wrote before it ran as a job, so a text shard
// must not move by a byte.
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
	got, err := kagen.ReadEdgeListFrom(merged, kagen.FormatTextGz)
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

	models := []struct {
		model kagen.Model
		p     kagen.ModelParams
		text  [4]string // SHA-256 of the text shards of PEs 0-3
	}{
		{kagen.ModelGNMDirected, kagen.ModelParams{N: 500, M: 3000}, [4]string{
			"0b093181705ddcf433e71fc78aa8fed0c714a69fda0242f0c623b7b5fb249a26",
			"91491a2d74af764c832c48335167d01480ff528fea032c374055297f577d5178",
			"49eec18d3488b55e0d23ffe40240acc37e0eb33ff64a85347187bd62a5040894",
			"370b80c423d95190b1d62089d6d8dbfdc2b4ea54f07cd3eb42e0be9ded441d99"}},
		{kagen.ModelRGG2D, kagen.ModelParams{N: 400, R: 0.08}, [4]string{
			"3adc33ad16cc18b8e2e32de7e2283c47d8aab96df6df571ea173f37fab1b699d",
			"19bbedf4da9d9cd872c5ebf361c449732b9b98b4bfb10780bfe391cde4f9b0e2",
			"3675e5642e662b740f72a72c46934a4a6fbe4a6de715aa69f6e90ce751793429",
			"78b485a87f661c42960ec7d8f33a3803db8b75944886dae61a567c7131b5ba39"}},
		{kagen.ModelSBM, kagen.ModelParams{N: 500, Blocks: 2, PIn: 0.05, POut: 0.005}, [4]string{
			"3cb4b0085c34d42f3b2ef60a6c095d4e07d504300f0b6f9af510e19e8ec8d4dd",
			"f6efc6edfe2a1978222dc453f23242e7a07f9fafa39291b6cffba968d778efb5",
			"ab213fd7bbec4344a659364d6f7b7982423bc65655c3e7b09b4afbc2da9a361b",
			"d02a07428d1ab0580708451624eee4877398e551fef5444d26188554b903c4f7"}},
		{kagen.ModelSRHG, kagen.ModelParams{N: 400, AvgDeg: 8, Gamma: 2.8}, [4]string{
			"1f18da117f292df2bfd1ef557c061bb78b9d5000f50156397549cd3185b36424",
			"0751eafa7cbcb515cc1cd0bf292a805406becc7c6eee2cee1be6874592ce0374",
			"d393f6bac93b0ce5a5d6d288e1593722e815d39586d0b07ff900d5bf49cbdbbe",
			"31032c644ede1de1123a2f3794b90a4b8505868899a391874898d1f3ec842d31"}},
	}
	for _, m := range models {
		gen, err := kagen.New(m.model, m.p, kagen.Options{Seed: 21, PEs: 4})
		if err != nil {
			t.Fatal(err)
		}
		for _, format := range kagen.Formats() {
			t.Run(fmt.Sprintf("%s-%s", m.model, format), func(t *testing.T) {
				spec := SpecFor(string(m.model), m.p)
				spec.Seed, spec.PEs, spec.ChunksPerPE, spec.Workers, spec.Format = 21, 4, 1, 1, string(format)
				dir := t.TempDir()
				if err := Init(dir, spec); err != nil {
					t.Fatal(err)
				}
				runAll(t, dir, spec)
				for pe, b := range readShards(t, dir, spec) {
					shard, err := kagen.ReadEdgeList(bytes.NewReader(b), format)
					if err != nil {
						t.Fatalf("shard %d: %v", pe, err)
					}
					chunk, err := gen.Chunk(pe)
					if err != nil {
						t.Fatal(err)
					}
					if shard.N != gen.N() || !slices.Equal(shard.Edges, chunk) {
						t.Errorf("shard %d: n=%d with %d edges, want Chunk(%d): n=%d with %d edges",
							pe, shard.N, shard.Len(), pe, gen.N(), len(chunk))
					}
					if format != kagen.FormatText {
						continue
					}
					if sum := sha256.Sum256(b); hex.EncodeToString(sum[:]) != m.text[pe] {
						t.Errorf("text shard %d: sha256 %x, pinned %s", pe, sum, m.text[pe])
					}
				}
			})
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

// TestInitRefusesExistingJob: a destination that already holds a job —
// a finished one here, with shards — refuses a second Init, with the same
// spec or another, and the refusal leaves job.json and every shard byte
// as they were, on the filesystem and on an object backend.
func TestInitRefusesExistingJob(t *testing.T) {
	spec := Spec{Model: "gnm_undirected", N: 100, M: 200, Seed: 1, PEs: 2, Workers: 1, Format: "text"}
	other := spec
	other.Seed, other.Format = 2, "binary"
	setupJobS3(t, 1)
	for name, dir := range map[string]string{"fs": t.TempDir(), "s3": "s3://bkt/init-refuses/job"} {
		store, err := storage.Resolve(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := Init(dir, spec); err != nil {
			t.Fatal(err)
		}
		runAll(t, dir, spec)
		snapshot := func() map[string]string {
			names := []string{SpecPath(dir)}
			for pe := uint64(0); pe < spec.PEs; pe++ {
				names = append(names, ShardPath(dir, pe, spec.ShardFormat()))
			}
			out := map[string]string{}
			for _, n := range names {
				b, err := store.Get(n)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				out[n] = string(b)
			}
			return out
		}
		before := snapshot()
		for _, s := range []Spec{spec, other} {
			if err := Init(dir, s); err == nil {
				t.Fatalf("%s: second init over the same destination succeeded", name)
			}
		}
		if after := snapshot(); !reflect.DeepEqual(after, before) {
			t.Errorf("%s: a refused Init changed job.json or a shard", name)
		}
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

// TestSpecForRoundTrip: SpecFor is the inverse of Spec.Params on every
// field of the parameter union.
func TestSpecForRoundTrip(t *testing.T) {
	p := kagen.ModelParams{N: 1, M: 2, P: 0.3, R: 0.4, AvgDeg: 5, Gamma: 2.6,
		D: 7, Scale: 8, Blocks: 9, PIn: 0.1, POut: 0.2}
	// Every field is set, so a field SpecFor drops cannot hide as a zero.
	v := reflect.ValueOf(p)
	for i := range v.NumField() {
		if v.Field(i).IsZero() {
			t.Fatalf("test parameters leave %s zero", v.Type().Field(i).Name)
		}
	}
	s := SpecFor("sbm", p)
	if s.Model != "sbm" {
		t.Errorf("SpecFor model %q", s.Model)
	}
	if got := s.Params(); got != p {
		t.Errorf("SpecFor(m, p).Params() = %+v, want %+v", got, p)
	}
}

// TestSpecValidation: execution-shape errors are caught at init.
func TestSpecValidation(t *testing.T) {
	bad := []Spec{
		{Model: "nope", N: 10, PEs: 1, Workers: 1, Format: "text"},
		{Model: "gnm_undirected", N: 10, M: 5, PEs: 2, Workers: 4, Format: "text"},
		{Model: "gnm_undirected", N: 10, M: 5, PEs: 1, Workers: 1, Format: "sharded-avian"},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d validated: %+v", i, s)
		}
	}
	for _, good := range []Spec{
		{Model: "rgg2d", N: 1000, R: 0.05, PEs: 4, ChunksPerPE: 2, Workers: 2, Format: "binary.gz"},
		{Model: "rhg", N: 100, AvgDeg: 8, Gamma: 2.8, PEs: 1, Workers: 1, Format: "text"},
	} {
		if err := good.Validate(); err != nil {
			t.Errorf("good spec %+v rejected: %v", good, err)
		}
	}
}

// FuzzSpecDecode: DecodeSpec — serve's POST /jobs path — never panics,
// and a spec it accepts survives a re-encode round trip unchanged, hash
// included: a cached job is found again under the ID it was stored as.
// The seeds are one valid spec per model, at kagen's flag defaults.
func FuzzSpecDecode(f *testing.F) {
	var defaults kagen.ModelParams
	defaults.RegisterFlags(flag.NewFlagSet("fuzz", flag.ContinueOnError))
	for _, model := range kagen.Models() {
		spec := SpecFor(string(model), defaults)
		spec.Seed, spec.PEs, spec.ChunksPerPE, spec.Workers, spec.Format = 7, 4, 2, 2, "binary.gz"
		b, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := DecodeSpec(bytes.NewReader(b)); err != nil {
			f.Fatalf("seed %s refused: %v", b, err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		spec, err := DecodeSpec(bytes.NewReader(b))
		if err != nil {
			return
		}
		again, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeSpec(bytes.NewReader(again))
		if err != nil {
			t.Fatalf("accepted spec %s refused after a round trip: %v", again, err)
		}
		if back != spec || back.Hash() != spec.Hash() {
			t.Fatalf("round trip changed the spec: %+v (hash %s), was %+v (hash %s)", back, back.Hash(), spec, spec.Hash())
		}
	})
}
