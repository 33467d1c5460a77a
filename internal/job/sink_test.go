package job

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	kagen "repro"
	"repro/internal/obs"
	"repro/internal/storage"
)

// jobBytes returns every shard object of a finished or interrupted job, in
// PE order, followed by worker 0's manifest — read through the job's own
// backend, so it works for directories, mem:// and s3:// alike.
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
			for _, backend := range []string{"fs", "mem", "s3"} {
				for i, g := range goroutines {
					if big && backend != "fs" && g != 2 {
						continue
					}
					dest := func(kind string) string {
						id := fmt.Sprintf("%s-%s-%s-g%d", kind, strings.ReplaceAll(format, ".", ""), name, g)
						switch backend {
						case "mem":
							return "mem://sinktest/" + id
						case "s3":
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

// TestShardGoldenAcrossCommits pins what TestShardBytesIndependentOfGoroutines
// cannot: identity with the builds before the sink became chunk-parallel.
// The digests are the SHA-256 over the shard objects in PE order followed
// by the worker manifest, computed at the commit whose single delivering
// goroutine still encoded, hashed and compressed every chunk. Any change
// to shard bytes, chunk digests, offsets, Merkle roots or the manifest
// encoding moves them.
func TestShardGoldenAcrossCommits(t *testing.T) {
	for _, tc := range []struct {
		spec Spec
		want string
	}{
		{Spec{Model: "gnm_undirected", N: 600, M: 4000, Seed: 5, PEs: 3, ChunksPerPE: 4, Workers: 1, Format: "text.gz"},
			"3f12e341b247ce350c21de9528838e95597ebf2546e066354aa2cb9e69053611"},
		{Spec{Model: "rgg2d", N: 500, R: 0.07, Seed: 5, PEs: 3, ChunksPerPE: 4, Workers: 1, Format: "binary"},
			"4bb350e4262c6f17a4aa9855c399be853e05bb5b03f98526827d55e5a1ec990f"},
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

func (f faultStreamer) StreamChunk(chunk uint64, emit func(kagen.Edge)) error {
	if chunk != f.chunk {
		return f.Streamer.StreamChunk(chunk, emit)
	}
	n := 0
	f.Streamer.StreamChunk(chunk, func(e kagen.Edge) {
		if n++; n <= f.after {
			emit(e)
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
			if out := encs.blocks.allocated - len(encs.blocks.free); out != 0 {
				t.Errorf("%d of %d blocks never returned to the free list", out, encs.blocks.allocated)
			}
			if max := 2*G*16 + G + 1; encs.blocks.allocated > max {
				t.Errorf("%d blocks allocated, bound is %d", encs.blocks.allocated, max)
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

// TestSinkMemoryBoundedByBlocks: what a job holds in flight is a bounded
// number of 64 KiB blocks, whatever the chunk size. One PE of two 32 MiB
// binary chunks runs on two goroutines — so the second chunk's producer
// runs ahead of the head and queues — and the live heap at each
// checkpoint, which includes every block ever allocated (the free list
// keeps them), must stay a few MiB above the heap before the run.
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
	const ceiling = 6 << 20
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
	// under the limit; one gzip.Writer (~0.8 MiB) does not.
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
