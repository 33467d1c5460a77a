package job

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"testing"
	"time"

	"repro/internal/failpoint"
)

// assertShardsAndMergeEqual compares every shard file and the merged
// output of two job directories byte for byte.
func assertShardsAndMergeEqual(t *testing.T, clean, dir string, spec Spec) {
	t.Helper()
	want := readShards(t, clean, spec)
	got := readShards(t, dir, spec)
	for pe, wb := range want {
		if string(got[pe]) != string(wb) {
			t.Errorf("shard %d differs (%d vs %d bytes)", pe, len(got[pe]), len(wb))
		}
	}
	mc := filepath.Join(clean, "merged-cmp")
	md := filepath.Join(dir, "merged-cmp")
	if err := MergeToFile(clean, mc); err != nil {
		t.Fatal(err)
	}
	if err := MergeToFile(dir, md); err != nil {
		t.Fatal(err)
	}
	cb, _ := os.ReadFile(mc)
	db, _ := os.ReadFile(md)
	if string(cb) != string(db) {
		t.Error("merged outputs differ")
	}
}

// TestVerifyCleanJob: an uninjected job verifies clean, both sampled and
// exhaustively, across models and formats.
func TestVerifyCleanJob(t *testing.T) {
	for _, spec := range testSpecs() {
		spec := spec
		t.Run(fmt.Sprintf("%s-%s", spec.Model, spec.Format), func(t *testing.T) {
			dir := t.TempDir()
			if err := Init(dir, spec); err != nil {
				t.Fatal(err)
			}
			runAll(t, dir, spec)
			res, err := Verify(dir, VerifyOptions{All: true})
			if err != nil {
				t.Fatal(err)
			}
			if !res.OK() {
				t.Fatalf("clean job reports faults: %v", res.Faults)
			}
			if res.ChunksChecked != int(spec.Normalized().PEs*spec.Normalized().ChunksPerPE) {
				t.Errorf("--all checked %d chunks, want %d", res.ChunksChecked, spec.Normalized().PEs*spec.Normalized().ChunksPerPE)
			}
			sampled, err := Verify(dir, VerifyOptions{Sample: 1, Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			if !sampled.OK() || sampled.ChunksChecked != int(spec.Normalized().PEs) {
				t.Errorf("sampled verify: ok=%v checked=%d", sampled.OK(), sampled.ChunksChecked)
			}
		})
	}
}

// TestVerifyRepairBitflipRoundTrip is the tamper-evidence contract
// across all four formats: a single flipped bit in a committed chunk is
// detected by an exhaustive verify, repaired by splicing the regenerated
// chunk back in, and the repaired job is byte-identical — shards and
// merged output — to a never-corrupted run.
func TestVerifyRepairBitflipRoundTrip(t *testing.T) {
	for _, spec := range testSpecs()[:4] { // gnm in text, binary, text.gz, binary.gz
		spec := spec
		t.Run(spec.Format, func(t *testing.T) {
			t.Cleanup(failpoint.Reset)
			clean := t.TempDir()
			if err := Init(clean, spec); err != nil {
				t.Fatal(err)
			}
			runAll(t, clean, spec)

			dir := t.TempDir()
			if err := Init(dir, spec); err != nil {
				t.Fatal(err)
			}
			failpoint.Arm("job/chunk-bitflip", 3)
			runAll(t, dir, spec) // the bitflip does not abort the run
			if failpoint.Armed() {
				t.Fatal("bitflip failpoint never fired")
			}

			res, err := Verify(dir, VerifyOptions{All: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Faults) != 1 || res.Faults[0].Reason != FaultShard {
				t.Fatalf("want exactly one shard-corrupt fault, got %v", res.Faults)
			}

			rep, err := Repair(dir, res.Faults)
			if err != nil {
				t.Fatal(err)
			}
			if rep.ChunksSpliced != 1 || len(rep.Unrepaired) != 0 {
				t.Fatalf("repair: %+v", rep)
			}
			after, err := Verify(dir, VerifyOptions{All: true})
			if err != nil {
				t.Fatal(err)
			}
			if !after.OK() {
				t.Fatalf("faults survive repair: %v", after.Faults)
			}
			assertShardsAndMergeEqual(t, clean, dir, spec)
		})
	}
}

// TestRepairResetsPEWhenShardGone: a shard file lost entirely (the
// file-level fault, chunk -1) cannot be spliced — repair falls back to
// resetting and regenerating the PE.
func TestRepairResetsPEWhenShardGone(t *testing.T) {
	spec := Spec{Model: "gnm_undirected", N: 600, M: 4000, Seed: 21,
		PEs: 2, ChunksPerPE: 3, Workers: 1, Format: "text.gz"}
	clean := t.TempDir()
	if err := Init(clean, spec); err != nil {
		t.Fatal(err)
	}
	runAll(t, clean, spec)

	dir := t.TempDir()
	if err := Init(dir, spec); err != nil {
		t.Fatal(err)
	}
	runAll(t, dir, spec)
	if err := os.Remove(ShardPath(dir, 1, spec.ShardFormat())); err != nil {
		t.Fatal(err)
	}
	res, err := Verify(dir, VerifyOptions{All: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Faults) != 1 || res.Faults[0].Reason != FaultShard || res.Faults[0].Chunk != -1 {
		t.Fatalf("want one file-level shard fault, got %v", res.Faults)
	}
	rep, err := Repair(dir, res.Faults)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PEsReset != 1 {
		t.Fatalf("repair: %+v", rep)
	}
	after, err := Verify(dir, VerifyOptions{All: true})
	if err != nil {
		t.Fatal(err)
	}
	if !after.OK() {
		t.Fatalf("faults survive repair: %v", after.Faults)
	}
	assertShardsAndMergeEqual(t, clean, dir, spec)
}

// TestResumeAuditQuarantinesCorruptSuffix: a chunk that rots after its
// checkpoint but before the PE finishes must not be extended — resume
// audits the committed prefix, quarantines the corrupt suffix, and
// regenerates it, ending byte-identical to a clean run.
func TestResumeAuditQuarantinesCorruptSuffix(t *testing.T) {
	for _, format := range []string{"text", "binary.gz"} {
		format := format
		t.Run(format, func(t *testing.T) {
			t.Cleanup(failpoint.Reset)
			spec := Spec{Model: "gnm_undirected", N: 600, M: 4000, Seed: 31,
				PEs: 4, ChunksPerPE: 3, Workers: 2, Format: format}
			clean := t.TempDir()
			if err := Init(clean, spec); err != nil {
				t.Fatal(err)
			}
			runAll(t, clean, spec)

			dir := t.TempDir()
			if err := Init(dir, spec); err != nil {
				t.Fatal(err)
			}
			// Flip a bit in PE 0's second chunk, then crash at the third
			// checkpoint — same PE, so the resume is about to extend the
			// corrupted shard.
			failpoint.Arm("job/chunk-bitflip", 2)
			failpoint.Arm("job/crash", 3)
			err := Run(dir, 0, RunOptions{})
			if !errors.Is(err, failpoint.ErrCrash) {
				t.Fatalf("injected run returned %v, want simulated crash", err)
			}
			if err := Resume(dir, 0, RunOptions{}); err != nil {
				t.Fatalf("resume over corrupt suffix: %v", err)
			}
			q := ShardPath(dir, 0, spec.ShardFormat()) + ".quarantine"
			if _, err := os.Stat(q); err != nil {
				t.Errorf("no quarantine file for the corrupt suffix: %v", err)
			}
			os.Remove(q) // not part of the byte comparison
			if err := Run(dir, 1, RunOptions{}); err != nil {
				t.Fatal(err)
			}
			res, err := Verify(dir, VerifyOptions{All: true})
			if err != nil {
				t.Fatal(err)
			}
			if !res.OK() {
				t.Fatalf("resumed job reports faults: %v", res.Faults)
			}
			assertShardsAndMergeEqual(t, clean, dir, spec)
		})
	}
}

// TestShardTruncateFailpointResume routes the truncated-gzip-tail crash
// case through the failpoint harness: a committed chunk cut in half
// (manifest ahead of the shard) is caught by the resume audit, rolled
// back, and regenerated byte-identically.
func TestShardTruncateFailpointResume(t *testing.T) {
	for _, format := range []string{"text", "text.gz", "binary.gz"} {
		format := format
		t.Run(format, func(t *testing.T) {
			t.Cleanup(failpoint.Reset)
			spec := Spec{Model: "gnm_undirected", N: 600, M: 4000, Seed: 41,
				PEs: 2, ChunksPerPE: 3, Workers: 1, Format: format}
			clean := t.TempDir()
			if err := Init(clean, spec); err != nil {
				t.Fatal(err)
			}
			runAll(t, clean, spec)

			dir := t.TempDir()
			if err := Init(dir, spec); err != nil {
				t.Fatal(err)
			}
			failpoint.Arm("job/shard-truncate", 2)
			err := Run(dir, 0, RunOptions{})
			if !errors.Is(err, failpoint.ErrCrash) {
				t.Fatalf("injected run returned %v, want simulated crash", err)
			}
			if err := Resume(dir, 0, RunOptions{}); err != nil {
				t.Fatalf("resume over truncated shard: %v", err)
			}
			os.Remove(ShardPath(dir, 0, spec.ShardFormat()) + ".quarantine")
			res, err := Verify(dir, VerifyOptions{All: true})
			if err != nil {
				t.Fatal(err)
			}
			if !res.OK() {
				t.Fatalf("resumed job reports faults: %v", res.Faults)
			}
			assertShardsAndMergeEqual(t, clean, dir, spec)
		})
	}
}

// TestTornManifestRepair routes the torn-manifest case through the
// failpoint harness: a manifest truncated mid-JSON (as disk rot, not an
// atomic writer, leaves it) fails loudly everywhere, and repair rebuilds
// it from the spec and the shard bytes that still match — the header and
// every chunk regenerated through the chunk encoder — regenerating only
// the unmatched suffix, in every format.
func TestTornManifestRepair(t *testing.T) {
	for _, format := range []string{"text", "binary", "text.gz", "binary.gz"} {
		t.Run(format, func(t *testing.T) {
			t.Cleanup(failpoint.Reset)
			spec := Spec{Model: "gnm_undirected", N: 600, M: 4000, Seed: 51,
				PEs: 2, ChunksPerPE: 3, Workers: 1, Format: format}
			clean := t.TempDir()
			if err := Init(clean, spec); err != nil {
				t.Fatal(err)
			}
			runAll(t, clean, spec)

			dir := t.TempDir()
			if err := Init(dir, spec); err != nil {
				t.Fatal(err)
			}
			// The 4th publish, whichever chunks it covers: a worker publishes
			// its empty manifest, then at least one round per PE for its chunks
			// and one to finish it.
			failpoint.Arm("job/manifest-truncate", 4)
			before := runtime.NumGoroutine()
			err := Run(dir, 0, RunOptions{})
			if !errors.Is(err, failpoint.ErrCrash) {
				t.Fatalf("injected run returned %v, want simulated crash", err)
			}
			assertNoGoroutineLeak(t, before)
			if _, err := ReadManifest(ManifestPath(dir, 0), spec); err == nil {
				t.Fatal("truncated manifest read back clean")
			}
			// Resume refuses: the manifest is unreadable, not merely behind.
			if err := Resume(dir, 0, RunOptions{}); err == nil {
				t.Fatal("resume over a torn manifest succeeded")
			}
			res, err := Verify(dir, VerifyOptions{All: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Faults) == 0 || res.Faults[0].Reason != FaultManifest {
				t.Fatalf("want a manifest fault, got %v", res.Faults)
			}
			rep, err := Repair(dir, res.Faults)
			if err != nil {
				t.Fatal(err)
			}
			if rep.WorkersRebuilt != 1 || len(rep.Unrepaired) != 0 {
				t.Fatalf("repair: %+v", rep)
			}
			after, err := Verify(dir, VerifyOptions{All: true})
			if err != nil {
				t.Fatal(err)
			}
			if !after.OK() {
				t.Fatalf("faults survive repair: %v", after.Faults)
			}
			assertShardsAndMergeEqual(t, clean, dir, spec)
		})
	}
}

// flipByte flips one bit of the byte at off in a local file.
func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x01
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

// peakHeapGrowth runs fn and returns how far the heap's objects, live and
// not yet swept, rose above their level before it, sampled every 200 µs.
func peakHeapGrowth(fn func()) uint64 {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() uint64 {
		metrics.Read(sample)
		return sample[0].Value.Uint64()
	}
	runtime.GC()
	base := read()
	peak := base
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(200 * time.Microsecond)
		defer tick.Stop()
		for {
			peak = max(peak, read())
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	fn()
	close(stop)
	<-done
	return max(peak, read()) - base
}

// TestRepairMemoryBounded: Repair rewrites a shard and RebuildManifest
// checks one in a streaming pass, block by block, so neither holds a chunk
// whole. On a job of two PEs with one chunk each — 29 MB of text, or 15 MB
// of text compressed to 5 MB (half the edges: gzip dominates the test's
// time, tenfold under -race) — repairing one flipped chunk and rebuilding
// the worker's manifest each grow the heap by under 8 MiB, and both leave
// the job byte-identical to the run.
func TestRepairMemoryBounded(t *testing.T) {
	for _, tc := range []struct {
		format string
		m      uint64
	}{{"text", 1 << 22}, {"text.gz", 1 << 21}} {
		t.Run(tc.format, func(t *testing.T) {
			spec := Spec{Model: "gnm_directed", N: 1 << 20, M: tc.m, Seed: 3,
				PEs: 2, ChunksPerPE: 1, Workers: 1, Format: tc.format}
			dir := t.TempDir()
			if err := Init(dir, spec); err != nil {
				t.Fatal(err)
			}
			runAll(t, dir, spec)
			want := readShards(t, dir, spec)
			manifest, err := os.ReadFile(ManifestPath(dir, 0))
			if err != nil {
				t.Fatal(err)
			}
			m, err := ReadManifest(ManifestPath(dir, 0), spec)
			if err != nil {
				t.Fatal(err)
			}
			start, end := m.progress(1).chunkBounds(0)
			flipByte(t, ShardPath(dir, 1, spec.ShardFormat()), (start+end)/2)
			res, err := Verify(dir, VerifyOptions{All: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Faults) != 1 || res.Faults[0].Reason != FaultShard {
				t.Fatalf("want one shard fault, got %v", res.Faults)
			}

			const ceiling = 8 << 20
			check := func(what string, grew uint64) {
				t.Logf("%s grew the heap by %.1f MiB", what, float64(grew)/(1<<20))
				if grew > ceiling {
					t.Errorf("%s grew the heap by %.1f MiB, ceiling %d MiB", what, float64(grew)/(1<<20), ceiling>>20)
				}
			}
			var rep *RepairResult
			check(fmt.Sprintf("repair of one %d-byte chunk", end-start),
				peakHeapGrowth(func() { rep, err = Repair(dir, res.Faults) }))
			if err != nil || rep.ChunksSpliced != 1 || rep.PEsReset != 0 {
				t.Fatalf("repair: %+v, %v", rep, err)
			}
			check("rebuilding the manifest", peakHeapGrowth(func() { err = RebuildManifest(dir, 0) }))
			if err != nil {
				t.Fatal(err)
			}
			if got, _ := os.ReadFile(ManifestPath(dir, 0)); string(got) != string(manifest) {
				t.Error("rebuilt manifest differs from the run's")
			}
			for pe, b := range readShards(t, dir, spec) {
				if string(b) != string(want[pe]) {
					t.Errorf("shard %d differs after repair", pe)
				}
			}
		})
	}
}

// recompress rewrites the committed chunk members of one PE's shard with
// gzip.BestSpeed — a different deflate from the encoder's at either gzip
// level — and records the new segment ends in prog; the payload digests
// stand, and bytes past the committed offset are dropped. It returns the
// rewritten shard. The caller writes the manifest.
func recompress(t *testing.T, dir string, spec Spec, prog *PEProgress) []byte {
	t.Helper()
	path := ShardPath(dir, prog.PE, spec.ShardFormat())
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var payloads [][]byte
	for c := range prog.Chunks {
		start, end := prog.chunkBounds(c)
		payload, err := readChunkPayload(bytes.NewReader(old), spec.ShardFormat(), start, end)
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, payload)
	}
	shard := bytes.NewBuffer(old[:prog.HeaderEnd:prog.HeaderEnd])
	for c, payload := range payloads {
		if len(payload) > 0 {
			gz, _ := gzip.NewWriterLevel(shard, gzip.BestSpeed)
			gz.Write(payload)
			gz.Close()
		}
		prog.Chunks[c].End = int64(shard.Len())
	}
	prog.Offset = int64(shard.Len())
	if err := os.WriteFile(path, shard.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return shard.Bytes()
}

// TestRepairForeignDeflateResetsPE: a shard whose gzip members another
// deflate wrote decompresses to the right payloads, but no chunk the
// encoder regenerates fits its segment. Repair of a flipped chunk there
// aborts the rewrite — no *.tmp left under shards/ — and resets the PE,
// which then regenerates byte-identical to a clean run.
func TestRepairForeignDeflateResetsPE(t *testing.T) {
	spec := Spec{Model: "gnm_undirected", N: 600, M: 4000, Seed: 71,
		PEs: 2, ChunksPerPE: 3, Workers: 1, Format: "text.gz"}
	clean, dir := t.TempDir(), t.TempDir()
	for _, d := range []string{clean, dir} {
		if err := Init(d, spec); err != nil {
			t.Fatal(err)
		}
		runAll(t, d, spec)
	}

	mpath := ManifestPath(dir, 0)
	m, err := ReadManifest(mpath, spec)
	if err != nil {
		t.Fatal(err)
	}
	prog := m.progress(0)
	path := ShardPath(dir, 0, spec.ShardFormat())
	start, end := prog.chunkBounds(1)
	ownLen := end - start
	recompress(t, dir, spec, prog)
	if start, end = prog.chunkBounds(1); end-start == ownLen {
		t.Fatal("the foreign member of chunk 1 is as long as the encoder's: a splice would fit")
	}
	if err := WriteManifest(mpath, m); err != nil {
		t.Fatal(err)
	}
	if res, err := Verify(dir, VerifyOptions{All: true}); err != nil || !res.OK() {
		t.Fatalf("recompressed shard does not verify clean: %v, %v", res, err)
	}

	flipByte(t, path, (start+end)/2)
	res, err := Verify(dir, VerifyOptions{All: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Faults) != 1 || res.Faults[0].Reason != FaultShard || res.Faults[0].PE != 0 {
		t.Fatalf("want one shard fault in PE 0, got %v", res.Faults)
	}
	rep, err := Repair(dir, res.Faults)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PEsReset != 1 || rep.ChunksSpliced != 0 || len(rep.Unrepaired) != 0 {
		t.Fatalf("repair: %+v, want PEsReset 1, ChunksSpliced 0", rep)
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "shards", "*.tmp")); len(tmps) != 0 {
		t.Errorf("aborted rewrite left %v", tmps)
	}
	assertShardsAndMergeEqual(t, clean, dir, spec)
}

// TestResumeOverForeignCompressor: members another deflate wrote carry the
// encoder's payloads, so a shard that mixes them with the encoder's own is
// valid. A text.gz job stopped after its first checkpoint, its committed
// members recompressed, resumes with the audit passing — nothing
// quarantined, the foreign members kept and appended to — verifies clean,
// and merges to a stream that decompresses to a fresh run's.
func TestResumeOverForeignCompressor(t *testing.T) {
	spec := Spec{Model: "gnm_undirected", N: 600, M: 4000, Seed: 73,
		PEs: 2, ChunksPerPE: 3, Workers: 1, Format: "text.gz"}
	clean, dir := t.TempDir(), t.TempDir()
	for _, d := range []string{clean, dir} {
		if err := Init(d, spec); err != nil {
			t.Fatal(err)
		}
	}
	runAll(t, clean, spec)
	if err := Run(dir, 0, RunOptions{OnCheckpoint: interruptAfter(1)}); !errors.Is(err, errSimCrash) {
		t.Fatalf("interrupted run returned %v, want simulated crash", err)
	}

	mpath := ManifestPath(dir, 0)
	m, err := ReadManifest(mpath, spec)
	if err != nil {
		t.Fatal(err)
	}
	foreign := make(map[uint64][]byte)
	for i := range m.PEs {
		if prog := &m.PEs[i]; prog.ChunksDone > 0 {
			foreign[prog.PE] = recompress(t, dir, spec, prog)
		}
	}
	if len(foreign) == 0 {
		t.Fatal("the first checkpoint recorded no chunk")
	}
	if err := WriteManifest(mpath, m); err != nil {
		t.Fatal(err)
	}

	if err := Run(dir, 0, RunOptions{}); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if q, _ := filepath.Glob(filepath.Join(dir, "shards", "*.quarantine")); len(q) != 0 {
		t.Errorf("the resume audit rejected foreign members: quarantined %v", q)
	}
	shards := readShards(t, dir, spec)
	for pe, prefix := range foreign {
		if !bytes.HasPrefix(shards[pe], prefix) {
			t.Errorf("shard %d no longer starts with its foreign members", pe)
		}
	}
	if res, err := Verify(dir, VerifyOptions{All: true}); err != nil || !res.OK() {
		t.Fatalf("mixed-compressor job does not verify clean: %v, %v", res, err)
	}
	var merged [2][]byte
	for i, d := range []string{clean, dir} {
		out := filepath.Join(d, "merged.txt.gz")
		if err := MergeToFile(d, out); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(out)
		if err != nil {
			t.Fatal(err)
		}
		gz, err := gzip.NewReader(f)
		if err != nil {
			t.Fatal(err)
		}
		if merged[i], err = io.ReadAll(gz); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	if !bytes.Equal(merged[0], merged[1]) {
		t.Error("the mixed-compressor merge decompresses to other bytes than a fresh run's")
	}
}

// TestCrashBeforeManifestRename: a crash in the window between the
// manifest temp file's fsync and its rename leaves the previous manifest
// in place and a durable .tmp beside it — resume must pick up from the
// previous checkpoint and stay byte-identical.
func TestCrashBeforeManifestRename(t *testing.T) {
	t.Cleanup(failpoint.Reset)
	spec := Spec{Model: "gnm_undirected", N: 600, M: 4000, Seed: 61,
		PEs: 2, ChunksPerPE: 3, Workers: 1, Format: "binary"}
	clean := t.TempDir()
	if err := Init(clean, spec); err != nil {
		t.Fatal(err)
	}
	runAll(t, clean, spec)

	dir := t.TempDir()
	if err := Init(dir, spec); err != nil {
		t.Fatal(err)
	}
	// The 4th publish, whichever chunks it covers (see TestTornManifestRepair).
	failpoint.Arm("job/crash-before-rename", 4)
	before := runtime.NumGoroutine()
	var hooked uint64 // chunks whose checkpoint hook ran
	err := Run(dir, 0, RunOptions{OnCheckpoint: func(pe, chunks, edges uint64) error {
		hooked++
		return nil
	}})
	if !errors.Is(err, failpoint.ErrCrash) {
		t.Fatalf("injected run returned %v, want simulated crash", err)
	}
	assertNoGoroutineLeak(t, before)
	if _, err := os.Stat(ManifestPath(dir, 0) + ".tmp"); err != nil {
		t.Fatalf("crash-before-rename left no durable .tmp: %v", err)
	}
	// The manifest in place is the previous publish: it records every chunk
	// whose hook ran — hooks only follow a publish — and nothing of the
	// round that died.
	st, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	var recorded uint64
	for _, p := range st.Workers[0].PEs {
		recorded += p.ChunksDone
	}
	if recorded != hooked || st.Complete() {
		t.Errorf("manifest records %d chunks (complete=%v) after a crash before its 4th publish, hooks ran for %d",
			recorded, st.Complete(), hooked)
	}
	if err := Resume(dir, 0, RunOptions{}); err != nil {
		t.Fatalf("resume: %v", err)
	}
	res, err := Verify(dir, VerifyOptions{All: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("resumed job reports faults: %v", res.Faults)
	}
	assertShardsAndMergeEqual(t, clean, dir, spec)
}
