package job

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	kagen "repro"
	"repro/internal/obs"
	"repro/internal/pe"
	"repro/internal/storage"
)

// jobBytes returns every shard object of a finished or interrupted job, in
// PE order, followed by worker 0's manifest — read through the job's own
// backend, so it works for directories and s3:// alike.
func jobBytes(t *testing.T, dir string, spec Spec) [][]byte {
	t.Helper()
	store, err := storage.Resolve(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for pe := uint64(0); pe < spec.PEs; pe++ {
		b, err := store.Get(ShardPath(dir, pe, spec.ShardFormat()))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	m, err := store.Get(ManifestPath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	return append(out, m)
}

func assertJobBytes(t *testing.T, what string, got, want [][]byte) {
	t.Helper()
	for i := range want {
		name := fmt.Sprintf("shard %d", i)
		if i == len(want)-1 {
			name = "manifest"
		}
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("%s: %s differs (%d vs %d bytes)", what, name, len(got[i]), len(want[i]))
		}
	}
}

// sinkSpecs are the single-worker instances the chunk-parallel sink is
// checked on: one whose chunks are mostly empty, one with ordinary small
// chunks, and one whose chunks each span many blocks (>= 1 MiB of payload
// in every format).
func sinkSpecs(format string) map[string]Spec {
	return map[string]Spec{
		"sparse": {Model: "gnm_undirected", N: 256, M: 8, Seed: 3,
			PEs: 2, ChunksPerPE: 4, Workers: 1, Format: format},
		"small": {Model: "gnm_undirected", N: 600, M: 4000, Seed: 5,
			PEs: 2, ChunksPerPE: 3, Workers: 1, Format: format},
		"bigchunk": {Model: "gnm_directed", N: 1 << 16, M: 180_000, Seed: 11,
			PEs: 1, ChunksPerPE: 2, Workers: 1, Format: format},
	}
}

// TestShardBytesIndependentOfGoroutines: encode, digest and compression
// run on whichever goroutine generated a chunk, so nothing a job writes may
// depend on how many there are. For every format and backend, every
// goroutine count must reproduce the shards and the manifest of a
// one-goroutine filesystem run byte for byte — uninterrupted, and crashed
// after k durable checkpoints then resumed under a different count. The
// many-block instance, which costs a second per run under the race
// detector, takes every count on the filesystem and one elsewhere.
func TestShardBytesIndependentOfGoroutines(t *testing.T) {
	setupJobS3(t, 1)
	goroutines := []int{1, 2, 3, 8}
	for _, format := range []string{"text", "binary", "text.gz", "binary.gz"} {
		for name, spec := range sinkSpecs(format) {
			ref := t.TempDir()
			if err := Init(ref, spec); err != nil {
				t.Fatal(err)
			}
			if err := Run(ref, 0, RunOptions{Goroutines: 1}); err != nil {
				t.Fatal(err)
			}
			want := jobBytes(t, ref, spec)
			big := name == "bigchunk"
			if big && !spec.ShardFormat().Compressed() && len(want[0]) < int(spec.ChunksPerPE)<<20 {
				t.Fatalf("%s/%s: shard of %d bytes, want chunks of >= 1 MiB", format, name, len(want[0]))
			}
			for _, backend := range []string{"fs", "s3"} {
				for i, g := range goroutines {
					if big && backend != "fs" && g != 2 {
						continue
					}
					dest := func(kind string) string {
						id := fmt.Sprintf("%s-%s-%s-g%d", kind, strings.ReplaceAll(format, ".", ""), name, g)
						if backend == "s3" {
							return "s3://bkt/sinktest/" + id
						}
						return t.TempDir()
					}
					what := fmt.Sprintf("%s/%s/%s/G=%d", format, name, backend, g)

					dir := dest("clean")
					if err := Init(dir, spec); err != nil {
						t.Fatal(err)
					}
					if err := Run(dir, 0, RunOptions{Goroutines: g}); err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					assertJobBytes(t, what, jobBytes(t, dir, spec), want)

					if big && (backend != "fs" || g != 2) {
						continue
					}
					dir = dest("crash")
					if err := Init(dir, spec); err != nil {
						t.Fatal(err)
					}
					k := 1 + i%int(spec.ChunksPerPE)
					err := Run(dir, 0, RunOptions{Goroutines: g, OnCheckpoint: interruptAfter(k)})
					if !errors.Is(err, errSimCrash) {
						t.Fatalf("%s: interrupted run returned %v, want simulated crash", what, err)
					}
					resumeG := goroutines[(i+1)%len(goroutines)]
					if err := Resume(dir, 0, RunOptions{Goroutines: resumeG}); err != nil {
						t.Fatalf("%s: resume under G=%d: %v", what, resumeG, err)
					}
					assertJobBytes(t, fmt.Sprintf("%s crashed after %d, resumed under G=%d", what, k, resumeG),
						jobBytes(t, dir, spec), want)
				}
			}
		}
	}
}

// payloadPin hashes what a compressed job's wire bytes stand for: the
// gunzipped shards in PE order, then every PE's chunk digests, edge counts
// and Merkle root from worker 0's manifest. It moves when the instance or
// the payload encoding does, never when only the compressor does.
func payloadPin(t *testing.T, dir string, spec Spec) string {
	t.Helper()
	h := sha256.New()
	wire := jobBytes(t, dir, spec)
	for _, shard := range wire[:len(wire)-1] {
		gz, err := gzip.NewReader(bytes.NewReader(shard))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(h, gz); err != nil {
			t.Fatal(err)
		}
	}
	m, err := ReadManifest(ManifestPath(dir, 0), spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range m.PEs {
		fmt.Fprintf(h, "pe %d root %s\n", p.PE, p.Root)
		for _, c := range p.Chunks {
			fmt.Fprintf(h, "%s %d\n", c.Digest, c.Edges)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestShardGoldenAcrossCommits pins what TestShardBytesIndependentOfGoroutines
// cannot: identity with the builds before the sink became chunk-parallel.
// The digests are the SHA-256 over the shard objects in PE order followed
// by the worker manifest, computed at the commit whose single delivering
// goroutine still encoded, hashed and compressed every chunk. Any change
// to shard bytes, chunk digests, offsets, Merkle roots or the manifest
// encoding moves them.
//
// The text.gz rows were re-pinned when text.gz members became Huffman-only
// (see kagen.Format.NewGzipWriter). Every compressed row carries a second
// pin, payloadPin, computed before that change: it proves the re-pin moved
// wire bytes and shard offsets only — no payload byte, chunk digest, edge
// count or Merkle root.
func TestShardGoldenAcrossCommits(t *testing.T) {
	for _, tc := range []struct {
		spec    Spec
		want    string
		payload string // compressed rows: payloadPin
	}{
		{Spec{Model: "gnm_undirected", N: 600, M: 4000, Seed: 5, PEs: 3, ChunksPerPE: 4, Workers: 1, Format: "text.gz"},
			"2267f00fb69473438212b797fc848ed04ad0b221b6b46af6120dd8300baabe5b",
			"bd8c9a01afdd47fcc1a90144603ecec7929e6bc34f18382f2b7b7f8f3eec927c"},
		{Spec{Model: "rgg2d", N: 500, R: 0.07, Seed: 5, PEs: 3, ChunksPerPE: 4, Workers: 1, Format: "binary"},
			"4bb350e4262c6f17a4aa9855c399be853e05bb5b03f98526827d55e5a1ec990f", ""},
		// One row per remaining model, every format at least once. These were
		// pinned before the model table replaced the per-model wrappers, so
		// they prove that refactor moved no shard byte, digest, Merkle root
		// or spec hash. rgg3d and sbm use the registry defaults (connectivity
		// radius; 2 blocks, pIn = 8p, pOut = p).
		{Spec{Model: "gnm_directed", N: 600, M: 3000, Seed: 5, PEs: 3, ChunksPerPE: 4, Workers: 1, Format: "text"},
			"74f4ffeb0c933aaf9ff486d2cf840164e4ea77ba3fbccda536f26bfff49ecbf8", ""},
		{Spec{Model: "gnp_directed", N: 400, Prob: 0.02, Seed: 5, PEs: 3, ChunksPerPE: 4, Workers: 1, Format: "binary.gz"},
			"8e5856e102e8c1b059bff01d4e0399f6741f5116d03a9b78d1cf0f1dcb884313",
			"3bee123330ccd3d5d2639b6ec3760b09c912fce7b73de6358ae468f33021826d"},
		{Spec{Model: "gnp_undirected", N: 400, Prob: 0.02, Seed: 5, PEs: 3, ChunksPerPE: 4, Workers: 1, Format: "text"},
			"ec2d184ae2f533d02fc515f18a093d21a88c47bc72ff7134e2c4d2aa3a57cc32", ""},
		{Spec{Model: "rgg3d", N: 400, Seed: 5, PEs: 3, ChunksPerPE: 4, Workers: 1, Format: "binary.gz"},
			"f7e340673007566d1f662456e1ede6510a7182150ec7aba5b4e8e1b1e4f28917",
			"6b6f299fbc305be9b72860bf3a3d53431cce8015b8a146ad1b89beb2bb1e0cdc"},
		{Spec{Model: "rdg2d", N: 300, Seed: 5, PEs: 3, ChunksPerPE: 4, Workers: 1, Format: "text.gz"},
			"d129ab14d38b52ca6d87595dd405b92dd6240d81585474fa36fae86450ae43be",
			"93243365aef6b23bde214f52e10ea298c49efcebd1b5c0f3d45ad131adb1d52a"},
		{Spec{Model: "rdg3d", N: 150, Seed: 5, PEs: 3, ChunksPerPE: 4, Workers: 1, Format: "binary"},
			"56aa22494f5519a194f8eea6b8a31cf768b71e28c96fa8eeb057e4b652f80eed", ""},
		{Spec{Model: "srhg", N: 400, AvgDeg: 8, Gamma: 2.8, Seed: 5, PEs: 3, ChunksPerPE: 4, Workers: 1, Format: "binary.gz"},
			"65b8a3ab2db6031d97f63f4aa0482a6d9a41d6794b1b2ef78534fc6171d5c31e",
			"06efc27cb88e8f552f43804fee4b173d1556ada3634c071941ba547e2f1d417a"},
		{Spec{Model: "ba", N: 500, D: 3, Seed: 5, PEs: 3, ChunksPerPE: 4, Workers: 1, Format: "text"},
			"e76995497a44df3bbea61dc047741bcd9ab19bb400b3ffea0a6f7b7e030e7811", ""},
		{Spec{Model: "rmat", Scale: 10, M: 4000, Seed: 5, PEs: 3, ChunksPerPE: 4, Workers: 1, Format: "binary"},
			"99b05b519fa1f3184a832a25e09218a11c577059e9b057a09393612cd4dbd55c", ""},
		{Spec{Model: "sbm", N: 500, Prob: 0.01, Seed: 5, PEs: 3, ChunksPerPE: 4, Workers: 1, Format: "text.gz"},
			"ed4aebc9121ea1f1f7f7a71c9ab7d7a4e5680819622b09b7f87a726c1b0fdacd",
			"b4e6b4c7eb3b54ac2394888634319d8899baf3f2e1b93b6a73ed71fed25ec02b"},
		// rhg was materialize-only before the model table and could not run
		// as a job; this row is pinned at its introduction.
		{Spec{Model: "rhg", N: 400, AvgDeg: 8, Gamma: 2.8, Seed: 5, PEs: 3, ChunksPerPE: 4, Workers: 1, Format: "text"},
			"6c869bb1409e25649d22ed1d1e47d2b5305ba33ea9db89de02b9cfdbd8bad7ec", ""},
	} {
		for _, g := range []int{1, 3} {
			dir := t.TempDir()
			if err := Init(dir, tc.spec); err != nil {
				t.Fatal(err)
			}
			if err := Run(dir, 0, RunOptions{Goroutines: g}); err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			for _, b := range jobBytes(t, dir, tc.spec) {
				h.Write(b)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Errorf("%s %s, G=%d: shard set + manifest hash to %s, pinned %s",
					tc.spec.Model, tc.spec.Format, g, got, tc.want)
			}
			if !tc.spec.ShardFormat().Compressed() {
				continue
			}
			if got := payloadPin(t, dir, tc.spec); got != tc.payload {
				t.Errorf("%s %s, G=%d: payloads + chunk digests + roots hash to %s, pinned %s",
					tc.spec.Model, tc.spec.Format, g, got, tc.payload)
			}
		}
	}
}

// assertNoGoroutineLeak waits for the goroutine count to fall back to what
// it was before a run: pipeline workers, the checkpointer and the upload
// pool all end with the run, failed or not.
func assertNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after the run, %d before", n, before)
	}
}

var errInjected = errors.New("injected fault")

// faultStore fails the n-th Write or Commit its shard writers see, counted
// over the whole run (the header of a fresh shard is write and commit
// number one). Both are only ever called from the ordered stage, one call
// at a time (the checkpointer calls Sync and Finalize, never these).
type faultStore struct {
	storage.Backend
	failWrite, failCommit int
	writes, commits       int
}

func (f *faultStore) CreateShard(name string) (storage.ShardWriter, error) {
	sw, err := f.Backend.CreateShard(name)
	return &faultShard{sw, f}, err
}

func (f *faultStore) ResumeShard(name string, off int64) (storage.ShardWriter, error) {
	sw, err := f.Backend.ResumeShard(name, off)
	return &faultShard{sw, f}, err
}

type faultShard struct {
	storage.ShardWriter
	f *faultStore
}

func (s *faultShard) Write(p []byte) (int, error) {
	if s.f.writes++; s.f.writes == s.f.failWrite {
		return 0, errInjected
	}
	return s.ShardWriter.Write(p)
}

func (s *faultShard) Commit(d [32]byte) (int64, error) {
	if s.f.commits++; s.f.commits == s.f.failCommit {
		return 0, errInjected
	}
	return s.ShardWriter.Commit(d)
}

// faultStreamer fails one chunk, after it has emitted `after` edges.
type faultStreamer struct {
	kagen.Streamer
	chunk uint64
	after int
}

func (f faultStreamer) EmitChunk(chunk uint64, e *kagen.Emitter) error {
	if chunk != f.chunk {
		return f.Streamer.EmitChunk(chunk, e)
	}
	n := 0
	f.Streamer.StreamChunk(chunk, func(edge kagen.Edge) {
		if n++; n <= f.after {
			e.Append(edge.U, edge.V)
		}
	})
	return errInjected
}

// TestSinkFailurePaths: whatever fails in or around chunk k — the backend
// refusing a block or a commit, the checkpoint hook, the generator — a run
// on several goroutines returns that error, leaves the job resumable to
// byte-identical completion, and ends with every goroutine gone —
// the checkpointer included — and every block back on the free list. A
// failure on the generating side still records everything committed
// before it, chunks 0..k-1 exactly; a failing hook stops the checkpointer
// with the manifest at its chunk or, if the publish that recorded it
// covered more, a later one of the same PE. Run it under -race: the
// failing runs abandon producers mid-chunk.
func TestSinkFailurePaths(t *testing.T) {
	const G = 3
	// 10 000 edges a chunk: three blocks of binary payload, so a failing
	// write can sit in the middle of a chunk and producers ahead of the
	// head hold queued blocks when the run dies.
	spec := Spec{Model: "gnm_directed", N: 4096, M: 120_000, Seed: 17,
		PEs: 2, ChunksPerPE: 6, Workers: 1, Format: "binary"}
	ref := t.TempDir()
	if err := Init(ref, spec); err != nil {
		t.Fatal(err)
	}
	if err := Run(ref, 0, RunOptions{Goroutines: 1}); err != nil {
		t.Fatal(err)
	}
	want := jobBytes(t, ref, spec)
	refManifest, err := ReadManifest(ManifestPath(ref, 0), spec)
	if err != nil {
		t.Fatal(err)
	}
	// writesThrough(k) is the number of backend writes that complete PE 0
	// through its chunk k-1: one for the header, one per block after.
	writesThrough := func(k int) int {
		n := 1
		for c := 0; c < k; c++ {
			start, end := refManifest.PEs[0].chunkBounds(c)
			n += int((end - start + blockSize - 1) / blockSize)
		}
		return n
	}

	for _, tc := range []struct {
		name     string
		store    func(storage.Backend) storage.Backend
		streamer func(kagen.Streamer) kagen.Streamer
		hook     func(pe, chunks, edges uint64) error
		done     uint64 // chunks of PE 0 recorded when the run dies (a failing hook: at least)
	}{
		{name: "write fails mid-chunk 2", done: 2,
			store: func(b storage.Backend) storage.Backend {
				return &faultStore{Backend: b, failWrite: writesThrough(2) + 2}
			}},
		{name: "write fails in the header", done: 0,
			store: func(b storage.Backend) storage.Backend { return &faultStore{Backend: b, failWrite: 1} }},
		{name: "commit of chunk 3 fails", done: 3,
			store: func(b storage.Backend) storage.Backend { return &faultStore{Backend: b, failCommit: 1 + 3 + 1} }},
		{name: "checkpoint hook fails after chunk 3", done: 4, hook: interruptAfter(4)},
		{name: "head chunk fails to generate", done: 0,
			streamer: func(s kagen.Streamer) kagen.Streamer { return faultStreamer{s, 0, 7000} }},
		{name: "chunk 2 fails to generate before emitting", done: 2,
			streamer: func(s kagen.Streamer) kagen.Streamer { return faultStreamer{s, 2, 0} }},
		{name: "chunk 4 fails to generate mid-chunk", done: 4,
			streamer: func(s kagen.Streamer) kagen.Streamer { return faultStreamer{s, 4, 9000} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := Init(dir, spec); err != nil {
				t.Fatal(err)
			}
			store, err := storage.Resolve(dir)
			if err != nil {
				t.Fatal(err)
			}
			streamer, err := spec.Streamer()
			if err != nil {
				t.Fatal(err)
			}
			if tc.store != nil {
				store = tc.store(store)
			}
			if tc.streamer != nil {
				streamer = tc.streamer(streamer)
			}
			wantErr := errInjected
			if tc.hook != nil {
				wantErr = errSimCrash
			}
			before := runtime.NumGoroutine()
			encs := newChunkEncoders(spec.ShardFormat(), G)
			rounds := uint64(0) // only the checkpointer calls the hook, one call at a time
			opts := RunOptions{Goroutines: G, OnCheckpoint: tc.hook,
				OnCommitLatency: func(pe uint64, seconds float64) { rounds++ }}
			err = runWorker(store, dir, 0, spec, streamer, encs, opts, obs.Logger("job"))
			if !errors.Is(err, wantErr) {
				t.Fatalf("run returned %v, want %v", err, wantErr)
			}
			if encs.blocks.peak == 0 {
				t.Error("the run took no block: the two checks below prove nothing")
			}
			if out := encs.blocks.taken; out != 0 {
				t.Errorf("%d of the run's blocks never returned to the free list", out)
			}
			if max := pe.QueueBudget + G + 1; encs.blocks.peak > max {
				t.Errorf("%d blocks held at once, bound is %d", encs.blocks.peak, max)
			}
			assertNoGoroutineLeak(t, before)

			st, err := Inspect(dir)
			if err != nil {
				t.Fatal(err)
			}
			p := st.Workers[0].PEs[0]
			if p.Done || p.ChunksDone < tc.done || (tc.hook == nil && p.ChunksDone != tc.done) {
				t.Errorf("PE 0 at %d chunks (done=%v) after the failure, want %d", p.ChunksDone, p.Done, tc.done)
			}
			// A round is observed when its manifest is published: one for the
			// header at most, then never more than the chunks recorded.
			if rounds > p.ChunksDone+1 || (p.ChunksDone > 0 && rounds == 0) {
				t.Errorf("%d checkpoint rounds observed for %d recorded chunks", rounds, p.ChunksDone)
			}
			if p := st.Workers[0].PEs[1]; p.ChunksDone != 0 {
				t.Errorf("PE 1 at %d chunks after PE 0 failed, want 0", p.ChunksDone)
			}

			if err := Resume(dir, 0, RunOptions{Goroutines: 2}); err != nil {
				t.Fatalf("resume: %v", err)
			}
			assertJobBytes(t, "resumed", jobBytes(t, dir, spec), want)
		})
	}
}

// TestTracedChunkGenerateCarriesEncodeTime: chunk-generate now covers
// generate + encode + digest + compress, so a traced run reports how much
// of each span the encoder took, and the byte counts on both sides of the
// compressor.
func TestTracedChunkGenerateCarriesEncodeTime(t *testing.T) {
	spec := Spec{Model: "gnm_directed", N: 4096, M: 60_000, Seed: 8,
		PEs: 2, ChunksPerPE: 3, Workers: 1, Format: "text.gz"}
	dir := t.TempDir()
	if err := Init(dir, spec); err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace(0)
	if err := Run(dir, 0, RunOptions{Goroutines: 2, Trace: tr}); err != nil {
		t.Fatal(err)
	}
	m, err := ReadManifest(ManifestPath(dir, 0), spec)
	if err != nil {
		t.Fatal(err)
	}
	var spans int
	for _, ev := range tr.Events() {
		if ev.Name != "chunk-generate" {
			continue
		}
		spans++
		attr := map[string]uint64{}
		for _, a := range ev.Attrs {
			attr[a.Key] = a.U64
		}
		chunk := attr["chunk"]
		prog := &m.PEs[chunk/spec.ChunksPerPE]
		start, end := prog.chunkBounds(int(chunk % spec.ChunksPerPE))
		if attr["wire_bytes"] != uint64(end-start) {
			t.Errorf("chunk %d: wire_bytes %d, manifest says %d", chunk, attr["wire_bytes"], end-start)
		}
		if attr["payload_bytes"] <= attr["wire_bytes"] {
			t.Errorf("chunk %d: payload_bytes %d not above wire_bytes %d for text.gz", chunk, attr["payload_bytes"], attr["wire_bytes"])
		}
		if ns := int64(attr["encode_ns"]); ns <= 0 || ns > ev.Dur {
			t.Errorf("chunk %d: encode_ns %d outside (0, span duration %d]", chunk, ns, ev.Dur)
		}
	}
	if spans != int(spec.TotalChunks()) {
		t.Fatalf("%d chunk-generate spans, want %d", spans, spec.TotalChunks())
	}
}

// TestBlocksOutliveTheRun: blocks go back to one process-wide free list,
// so a second job run in the process finds the first run's blocks there
// and makes none: the list is as long after the second run as it was
// before. One goroutine keeps the pipeline's depth, and with it the number
// of blocks a run holds at once, the same in both runs.
func TestBlocksOutliveTheRun(t *testing.T) {
	free := func() int {
		freeBlocks.mu.Lock()
		defer freeBlocks.mu.Unlock()
		return len(freeBlocks.list)
	}
	// 10 000 edges a chunk: three blocks of binary payload each.
	spec := Spec{Model: "gnm_directed", N: 4096, M: 120_000, Seed: 3,
		PEs: 2, ChunksPerPE: 6, Workers: 1, Format: "binary"}
	var runs [2][][]byte
	var after [2]int
	for i := range runs {
		dir := t.TempDir()
		if err := Init(dir, spec); err != nil {
			t.Fatal(err)
		}
		if err := Run(dir, 0, RunOptions{Goroutines: 1}); err != nil {
			t.Fatal(err)
		}
		after[i] = free()
		runs[i] = jobBytes(t, dir, spec)
	}
	if after[0] == 0 {
		t.Fatal("the first run left no block on the free list")
	}
	if after[1] != after[0] {
		t.Errorf("the second run made %d blocks, want 0", after[1]-after[0])
	}
	assertJobBytes(t, "second run", runs[1], runs[0])
}

// TestSinkMemoryBoundedByBlocks: what a job holds in flight is a bounded
// number of 64 KiB blocks, whatever the chunk size. One PE of two 32 MiB
// binary chunks runs on two goroutines — so the second chunk's producer
// runs ahead of the head and queues, up to the whole chunk, which is
// within pe.QueueBudget — and the live heap at each checkpoint, which
// includes the blocks in flight and those back on the free list, must
// stay within the budget's bytes and a few MiB above the heap before the
// run.
func TestSinkMemoryBoundedByBlocks(t *testing.T) {
	spec := Spec{Model: "gnm_directed", N: 1 << 20, M: 4_400_000, Seed: 2,
		PEs: 1, ChunksPerPE: 2, Workers: 1, Format: "binary"}
	dir := t.TempDir()
	if err := Init(dir, spec); err != nil {
		t.Fatal(err)
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	base, peak := ms.HeapAlloc, uint64(0)
	var chunkEdges []uint64
	err := Run(dir, 0, RunOptions{Goroutines: 2, OnCheckpoint: func(pe, chunks, edges uint64) error {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > peak {
			peak = ms.HeapAlloc
		}
		chunkEdges = append(chunkEdges, edges)
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(chunkEdges) != 2 || chunkEdges[0]*16 < 32<<20 || (chunkEdges[1]-chunkEdges[0])*16 < 32<<20 {
		t.Fatalf("cumulative edges at the checkpoints %v, want two chunks of >= 32 MiB of payload each", chunkEdges)
	}
	const ceiling = pe.QueueBudget*blockSize + 6<<20
	if peak > base+ceiling {
		t.Errorf("live heap grew by %.1f MiB over a run of 32 MiB chunks, ceiling %d MiB",
			float64(peak-base)/(1<<20), ceiling>>20)
	}
}

// TestEncoderStateAllocatedOnce: a worker's encoders — gzip writers,
// hashers, scratch, blocks — are built while its first PE runs and reused
// for every later one. PE 0 pays for them; a later PE allocates little
// more than its manifest publishes.
func TestEncoderStateAllocatedOnce(t *testing.T) {
	// Eight chunks of 12 500 edges per PE: long enough that both goroutines
	// encode during PE 0 and so both encoders exist when it ends.
	spec := Spec{Model: "gnm_directed", N: 1 << 16, M: 400_000, Seed: 9,
		PEs: 4, ChunksPerPE: 8, Workers: 1, Format: "text.gz"}
	dir := t.TempDir()
	if err := Init(dir, spec); err != nil {
		t.Fatal(err)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	last := ms.TotalAlloc
	var perPE []uint64
	err := Run(dir, 0, RunOptions{Goroutines: 2, OnCheckpoint: func(pe, chunks, edges uint64) error {
		if chunks == spec.ChunksPerPE {
			runtime.ReadMemStats(&ms)
			perPE = append(perPE, ms.TotalAlloc-last)
			last = ms.TotalAlloc
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(perPE) != int(spec.PEs) {
		t.Fatalf("%d PE boundaries observed, want %d", len(perPE), spec.PEs)
	}
	t.Logf("bytes allocated per PE: %v", perPE)
	if perPE[0] < 1<<20 {
		t.Errorf("PE 0 allocated %d bytes — less than one gzip writer; the guard below proves nothing", perPE[0])
	}
	// Two stray blocks (a deeper pipeline than PE 0 happened to reach) fit
	// under the limit; one text.gz gzip.Writer (≈ 0.7 MiB) does not.
	const limit = 384 << 10
	for pe := 1; pe < len(perPE); pe++ {
		if perPE[pe] > limit {
			t.Errorf("PE %d allocated %d bytes, want <= %d: encoder state is rebuilt per PE", pe, perPE[pe], limit)
		}
	}
}

// TestChunkEncoderSteadyStateAllocFree: after its first chunk an encoder
// encodes, digests and compresses chunks — many blocks each — without
// allocating.
func TestChunkEncoderSteadyStateAllocFree(t *testing.T) {
	edges := make([]kagen.Edge, 50_000)
	for i := range edges {
		edges[i] = kagen.Edge{U: uint64(i) * 2654435761 % 1_000_003, V: uint64(i)}
	}
	for _, format := range kagen.Formats() {
		encode := ChunkEncodeFunc(format)
		wire := encode(edges)
		if got := testing.AllocsPerRun(3, func() {
			if n := encode(edges); n != wire {
				t.Errorf("%s: %d wire bytes, first chunk had %d", format, n, wire)
			}
		}); got != 0 {
			t.Errorf("%s: %.0f allocs per chunk in steady state, want 0", format, got)
		}
	}
}

// TestGeneratedChunkSteadyStateAllocFree: a pipeline goroutine's encoder
// keeps its Emitter — and with it the generator's scratch, the spatial
// models' cell arena and chunk tables — from chunk to chunk, so once every
// chunk has run through it once, generating and encoding a chunk again
// allocates nothing.
func TestGeneratedChunkSteadyStateAllocFree(t *testing.T) {
	for _, spec := range []Spec{
		{Model: "rmat", Scale: 14, M: 1 << 15, Seed: 1, PEs: 2, ChunksPerPE: 2, Workers: 1, Format: "binary"},
		{Model: "gnm_directed", N: 1 << 14, M: 1 << 15, Seed: 2, PEs: 2, ChunksPerPE: 2, Workers: 1, Format: "binary"},
		{Model: "rgg2d", N: 1 << 13, Seed: 3, PEs: 2, ChunksPerPE: 2, Workers: 1, Format: "binary"},
		{Model: "rdg2d", N: 1 << 12, Seed: 4, PEs: 2, ChunksPerPE: 2, Workers: 1, Format: "binary"},
	} {
		streamer, err := spec.Streamer()
		if err != nil {
			t.Fatal(err)
		}
		enc := &newChunkEncoders(spec.ShardFormat(), 1).enc[0]
		var chunk uint64
		fill := func(e *chunkEncoder) error { return streamer.EmitChunk(chunk, &e.em) }
		for chunk = 0; chunk < spec.TotalChunks(); chunk++ {
			if _, err := enc.encodeTo(nil, fill); err != nil {
				t.Fatal(err)
			}
		}
		chunk = 1
		if got := testing.AllocsPerRun(3, func() {
			if _, err := enc.encodeTo(nil, fill); err != nil {
				t.Error(err)
			}
		}); got != 0 {
			t.Errorf("%s: %.0f allocs per chunk in steady state, want 0", spec.Model, got)
		}
	}
}

// TestTracedChunkGenerateCarriesWork: a chunk-generate span carries the
// work counters the generator reported for its chunk.
func TestTracedChunkGenerateCarriesWork(t *testing.T) {
	spec := Spec{Model: "rgg2d", N: 1 << 12, Seed: 5, PEs: 2, ChunksPerPE: 2, Workers: 1, Format: "binary"}
	dir := t.TempDir()
	if err := Init(dir, spec); err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace(0)
	if err := Run(dir, 0, RunOptions{Goroutines: 2, Trace: tr}); err != nil {
		t.Fatal(err)
	}
	streamer, err := spec.Streamer()
	if err != nil {
		t.Fatal(err)
	}
	spans := 0
	for _, ev := range tr.Events() {
		if ev.Name != "chunk-generate" {
			continue
		}
		spans++
		attr := map[string]uint64{}
		for _, a := range ev.Attrs {
			attr[a.Key] = a.U64
		}
		var want kagen.Emitter
		if err := streamer.EmitChunk(attr["chunk"], &want); err != nil {
			t.Fatal(err)
		}
		if want.Comparisons == 0 || attr["comparisons"] != want.Comparisons ||
			attr["redundant_vertices"] != want.RedundantVertices {
			t.Errorf("chunk %d: span work (%d redundant, %d comparisons), generator reports %+v",
				attr["chunk"], attr["redundant_vertices"], attr["comparisons"], want.Work)
		}
	}
	if spans != int(spec.TotalChunks()) {
		t.Fatalf("%d chunk-generate spans, want %d", spans, spec.TotalChunks())
	}
}
