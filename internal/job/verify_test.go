package job

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

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
// it from the spec and the shard bytes that still match — regenerating
// only the unmatched suffix.
func TestTornManifestRepair(t *testing.T) {
	t.Cleanup(failpoint.Reset)
	spec := Spec{Model: "gnm_undirected", N: 600, M: 4000, Seed: 51,
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
	// The 4th publish, whichever chunks it covers: a worker publishes its
	// empty manifest, then at least one round per PE for its chunks and one
	// to finish it.
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
