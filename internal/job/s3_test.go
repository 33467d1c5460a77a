package job

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	kagen "repro"
	"repro/internal/storage"
	"repro/internal/storage/s3test"
)

// setupJobS3 starts an in-process S3 server holding bucket "bkt" and
// points the environment-driven backend at it. partSize 1 makes every
// committed chunk its own part, so part checksums must all be reused
// chunk digests — the no-second-hash-pass property becomes an exact
// counter assertion.
func setupJobS3(t *testing.T, partSize int) *s3test.Server {
	t.Helper()
	srv := s3test.New("test-access", "test-secret", "bkt")
	t.Cleanup(srv.Close)
	t.Setenv("KAGEN_S3_ENDPOINT", srv.URL())
	t.Setenv("AWS_ACCESS_KEY_ID", "test-access")
	t.Setenv("AWS_SECRET_ACCESS_KEY", "test-secret")
	t.Setenv("AWS_REGION", "us-east-1")
	t.Setenv("KAGEN_S3_PART_SIZE", fmt.Sprint(partSize))
	t.Setenv("KAGEN_S3_CONCURRENCY", "4")
	t.Setenv("KAGEN_S3_MAX_ATTEMPTS", "4")
	return srv
}

// s3Key maps an s3://bkt/… destination to its object key on the test
// server.
func s3Key(t *testing.T, uri string) string {
	t.Helper()
	key, ok := strings.CutPrefix(uri, "s3://bkt/")
	if !ok {
		t.Fatalf("not an s3://bkt destination: %s", uri)
	}
	return key
}

// TestS3JobByteIdenticalToLocal is the backend-transparency contract: a
// job run against an object store produces, for every format, shards and
// merged output byte-identical to the same spec run on the local
// filesystem, verifies clean in place, and never hashes a part a second
// time — every part checksum is a chunk digest the Merkle manifest
// already paid for.
func TestS3JobByteIdenticalToLocal(t *testing.T) {
	for _, spec := range testSpecs()[:4] { // gnm in text, binary, text.gz, binary.gz
		spec := spec
		t.Run(spec.Format, func(t *testing.T) {
			srv := setupJobS3(t, 1)
			storage.ResetUploadStats()

			local := t.TempDir()
			if err := Init(local, spec); err != nil {
				t.Fatal(err)
			}
			runAll(t, local, spec)

			dir := "s3://bkt/job-" + spec.Format
			if err := Init(dir, spec); err != nil {
				t.Fatal(err)
			}
			runAll(t, dir, spec)

			// Snapshot before merging: the merge writer re-streams bytes
			// the job layer never chunk-hashed, so only the shard hot path
			// is under the zero-rehash contract.
			st := storage.UploadStats()
			if st.PartsUploaded == 0 {
				t.Fatal("no parts uploaded")
			}
			if st.ChecksumReused == 0 || st.ChecksumRehashed != 0 {
				t.Errorf("checksums: reused %d rehashed %d, want all reused — part checksums must come from the chunk digests",
					st.ChecksumReused, st.ChecksumRehashed)
			}

			want := readShards(t, local, spec)
			format := spec.ShardFormat()
			for pe := uint64(0); pe < spec.Normalized().PEs; pe++ {
				got := srv.Object("bkt", s3Key(t, ShardPath(dir, pe, format)))
				if !bytes.Equal(got, want[pe]) {
					t.Errorf("shard %d differs on s3 (%d vs %d bytes)", pe, len(got), len(want[pe]))
				}
			}

			// The backend-aware reader parses shards straight off the
			// store — the path `validate -job s3://…` takes.
			if _, err := kagen.ReadEdgeListFrom(ShardPath(dir, 0, format), format); err != nil {
				t.Fatalf("read shard from s3: %v", err)
			}

			// Verify runs in place over ranged GETs.
			res, err := Verify(dir, VerifyOptions{All: true})
			if err != nil {
				t.Fatal(err)
			}
			if !res.OK() {
				t.Fatalf("clean s3 job has faults: %v", res.Faults)
			}

			// Merged output matches: streamed and written back to s3.
			var lb, sb bytes.Buffer
			if err := Merge(local, &lb); err != nil {
				t.Fatal(err)
			}
			if err := Merge(dir, &sb); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(lb.Bytes(), sb.Bytes()) {
				t.Error("merged outputs differ between local and s3")
			}
			merged := "s3://bkt/merged-" + spec.Format
			if err := MergeToFile(dir, merged); err != nil {
				t.Fatal(err)
			}
			if got := srv.Object("bkt", s3Key(t, merged)); !bytes.Equal(got, lb.Bytes()) {
				t.Errorf("merge-to-s3 object differs (%d vs %d bytes)", len(got), lb.Len())
			}
		})
	}
}

// TestS3CrashResumeByteIdentical: a job killed mid-worker on s3 (the
// checkpoint hook aborts after 4 durable chunks, leaving an open
// multipart upload) resumes by reattaching to the uploaded parts and
// finishes byte-identical to an uninterrupted local run.
func TestS3CrashResumeByteIdentical(t *testing.T) {
	for _, format := range []string{"text", "binary.gz"} {
		format := format
		t.Run(format, func(t *testing.T) {
			spec := Spec{Model: "gnm_undirected", N: 600, M: 4000, Seed: 99,
				PEs: 4, ChunksPerPE: 3, Workers: 2, Format: format}
			srv := setupJobS3(t, 1)

			local := t.TempDir()
			if err := Init(local, spec); err != nil {
				t.Fatal(err)
			}
			runAll(t, local, spec)

			dir := "s3://bkt/crash-" + format
			if err := Init(dir, spec); err != nil {
				t.Fatal(err)
			}
			err := Run(dir, 0, RunOptions{OnCheckpoint: interruptAfter(4)})
			if !errors.Is(err, errSimCrash) {
				t.Fatalf("interrupted run returned %v, want simulated crash", err)
			}
			st, err := Inspect(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(st.Gaps()) == 0 {
				t.Fatal("interrupted s3 job reports no gaps")
			}
			if err := Resume(dir, 0, RunOptions{}); err != nil {
				t.Fatalf("resume: %v", err)
			}
			if err := Run(dir, 1, RunOptions{}); err != nil {
				t.Fatal(err)
			}

			want := readShards(t, local, spec)
			sf := spec.ShardFormat()
			for pe := uint64(0); pe < spec.Normalized().PEs; pe++ {
				got := srv.Object("bkt", s3Key(t, ShardPath(dir, pe, sf)))
				if !bytes.Equal(got, want[pe]) {
					t.Errorf("shard %d differs after crash+resume (%d vs %d bytes)", pe, len(got), len(want[pe]))
				}
			}
			res, err := Verify(dir, VerifyOptions{All: true})
			if err != nil {
				t.Fatal(err)
			}
			if !res.OK() {
				t.Fatalf("resumed s3 job has faults: %v", res.Faults)
			}
		})
	}
}

// TestS3VerifyRepairBitflip: bytes flipped inside committed chunks of an
// s3 shard are caught by verify re-deriving the chunks from the spec, and
// repair rewrites the shard once through the backend's single-shot writer
// — with part size 1, as a multipart upload of many parts — whether one
// chunk or two of it are bad, plain or gzip.
func TestS3VerifyRepairBitflip(t *testing.T) {
	for _, tc := range []struct {
		name, format string
		chunks       []int // chunks of PE 0 to flip a byte in
	}{
		{"text", "text", []int{2}},
		{"text.gz", "text.gz", []int{2}},
		{"text-two-chunks", "text", []int{0, 2}},
		{"binary.gz-two-chunks", "binary.gz", []int{0, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := Spec{Model: "gnm_undirected", N: 600, M: 4000, Seed: 99,
				PEs: 4, ChunksPerPE: 3, Workers: 2, Format: tc.format}
			srv := setupJobS3(t, 1)

			local := t.TempDir()
			if err := Init(local, spec); err != nil {
				t.Fatal(err)
			}
			runAll(t, local, spec)

			dir := "s3://bkt/repairme"
			if err := Init(dir, spec); err != nil {
				t.Fatal(err)
			}
			runAll(t, dir, spec)

			store, err := storage.Resolve(dir)
			if err != nil {
				t.Fatal(err)
			}
			m, err := ReadManifest(ManifestPath(dir, 0), spec)
			if err != nil {
				t.Fatal(err)
			}
			path := ShardPath(dir, 0, spec.ShardFormat())
			b, err := store.Get(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range tc.chunks {
				start, end := m.progress(0).chunkBounds(c)
				b[(start+end)/2] ^= 0x40
			}
			if err := store.Put(path, b, storage.PutOptions{}); err != nil {
				t.Fatal(err)
			}

			res, err := Verify(dir, VerifyOptions{All: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Faults) != len(tc.chunks) {
				t.Fatalf("want %d shard-corrupt faults, got %v", len(tc.chunks), res.Faults)
			}
			for _, f := range res.Faults {
				if f.Reason != FaultShard || f.PE != 0 {
					t.Fatalf("want shard-corrupt faults in PE 0, got %v", res.Faults)
				}
			}
			// Every multipart upload of the shard starts with part 1.
			var uploads, parts atomic.Int64
			srv.OnPart = func(_, key string, part int) error {
				if "s3://bkt/"+key == path {
					parts.Add(1)
					if part == 1 {
						uploads.Add(1)
					}
				}
				return nil
			}
			rep, err := Repair(dir, res.Faults)
			if err != nil {
				t.Fatal(err)
			}
			if rep.ChunksSpliced != len(tc.chunks) || rep.PEsReset != 0 || len(rep.Unrepaired) != 0 {
				t.Fatalf("repair: %+v", rep)
			}
			if uploads.Load() != 1 || parts.Load() < 2 {
				t.Errorf("repair wrote the shard in %d multipart uploads of %d parts in all, want one of several parts",
					uploads.Load(), parts.Load())
			}
			after, err := Verify(dir, VerifyOptions{All: true})
			if err != nil {
				t.Fatal(err)
			}
			if !after.OK() {
				t.Fatalf("faults survive repair: %v", after.Faults)
			}
			want := readShards(t, local, spec)
			for pe, got := range jobBytes(t, dir, spec)[:spec.PEs] {
				if !bytes.Equal(got, want[uint64(pe)]) {
					t.Errorf("shard %d differs after repair", pe)
				}
			}
		})
	}
}

// TestS3JobStripesUploads: while one part upload is stalled on the
// server, the job keeps generating, sealing, and launching later parts —
// generation never waits for the network. The stalled handler releases
// itself only once it observes a second upload in flight, so the test
// passes exactly when upload and generation genuinely overlap.
func TestS3JobStripesUploads(t *testing.T) {
	spec := Spec{Model: "gnm_undirected", N: 600, M: 4000, Seed: 7,
		PEs: 2, ChunksPerPE: 6, Workers: 1, Format: "text"}
	srv := setupJobS3(t, 1)
	storage.ResetUploadStats()

	var stalled atomic.Bool
	srv.OnPart = func(_, _ string, _ int) error {
		if stalled.CompareAndSwap(false, true) {
			deadline := time.Now().Add(10 * time.Second)
			for storage.UploadStats().PartsInFlight < 2 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
		}
		return nil
	}

	dir := "s3://bkt/striped-job"
	if err := Init(dir, spec); err != nil {
		t.Fatal(err)
	}
	runAll(t, dir, spec)

	if st := storage.UploadStats(); st.MaxInFlight < 2 {
		t.Fatalf("MaxInFlight %d, want >= 2 — uploads never overlapped generation (%+v)", st.MaxInFlight, st)
	}
	res, err := Verify(dir, VerifyOptions{All: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("striped job has faults: %v", res.Faults)
	}
}

// TestS3JobList: an object-store root lists its jobs by spec objects one
// prefix level down, mirroring the directory scan on a filesystem root.
func TestS3JobList(t *testing.T) {
	spec := Spec{Model: "gnm_undirected", N: 100, M: 200, Seed: 1,
		PEs: 2, ChunksPerPE: 2, Workers: 1, Format: "text"}
	setupJobS3(t, 1)
	for _, name := range []string{"a", "b"} {
		if err := Init("s3://bkt/jobs/"+name, spec); err != nil {
			t.Fatal(err)
		}
	}
	dirs, err := List("s3://bkt/jobs")
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != 2 || dirs[0] != "s3://bkt/jobs/a" || dirs[1] != "s3://bkt/jobs/b" {
		t.Fatalf("List = %v, want the two jobs", dirs)
	}
}
