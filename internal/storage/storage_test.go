package storage_test

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/failpoint"
	"repro/internal/storage"
	"repro/internal/storage/s3test"
)

// setupS3 starts an in-process S3 server with one bucket and points the
// environment-driven backend at it. partSize is KAGEN_S3_PART_SIZE.
func setupS3(t *testing.T, partSize int) *s3test.Server {
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

// backendCases returns one destination root per backend.
func backendCases(t *testing.T) map[string]string {
	t.Helper()
	setupS3(t, 16)
	storage.ResetMem()
	return map[string]string{
		"fs":  t.TempDir(),
		"mem": "mem://conformance",
		"s3":  "s3://bkt/conformance",
	}
}

func sum(b []byte) [32]byte { return sha256.Sum256(b) }

func TestBackendObjects(t *testing.T) {
	for name, root := range backendCases(t) {
		t.Run(name, func(t *testing.T) {
			be, err := storage.Resolve(root)
			if err != nil {
				t.Fatal(err)
			}
			obj := storage.Join(root, "dir", "a.txt")
			if _, err := be.Get(obj); !errors.Is(err, storage.ErrNotExist) {
				t.Fatalf("Get missing: got %v, want ErrNotExist", err)
			}
			if err := be.Put(obj, []byte("hello"), storage.PutOptions{}); err != nil {
				t.Fatal(err)
			}
			if b, err := be.Get(obj); err != nil || string(b) != "hello" {
				t.Fatalf("Get: %q, %v", b, err)
			}
			if n, err := be.Stat(obj); err != nil || n != 5 {
				t.Fatalf("Stat: %d, %v", n, err)
			}
			// IfAbsent refuses to replace.
			if err := be.Put(obj, []byte("x"), storage.PutOptions{IfAbsent: true}); !errors.Is(err, storage.ErrExists) {
				t.Fatalf("Put IfAbsent over existing: got %v, want ErrExists", err)
			}
			// Plain Put replaces atomically.
			if err := be.Put(obj, []byte("world!"), storage.PutOptions{}); err != nil {
				t.Fatal(err)
			}
			names, err := be.List(storage.Join(root, "dir"))
			if err != nil || len(names) != 1 || names[0] != obj {
				t.Fatalf("List: %v, %v", names, err)
			}
			if err := be.Delete(obj); err != nil {
				t.Fatal(err)
			}
			if _, err := be.Stat(obj); !errors.Is(err, storage.ErrNotExist) {
				t.Fatalf("Stat after delete: got %v, want ErrNotExist", err)
			}
		})
	}
}

func TestBackendReader(t *testing.T) {
	payload := []byte("0123456789abcdefghijklmnopqrstuvwxyz")
	for name, root := range backendCases(t) {
		t.Run(name, func(t *testing.T) {
			be, err := storage.Resolve(root)
			if err != nil {
				t.Fatal(err)
			}
			obj := storage.Join(root, "r.bin")
			if err := be.Put(obj, payload, storage.PutOptions{}); err != nil {
				t.Fatal(err)
			}
			r, err := be.Open(obj)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if r.Size() != int64(len(payload)) {
				t.Fatalf("Size: %d", r.Size())
			}
			all, err := io.ReadAll(r)
			if err != nil || string(all) != string(payload) {
				t.Fatalf("ReadAll: %q, %v", all, err)
			}
			mid := make([]byte, 10)
			if _, err := r.ReadAt(mid, 10); err != nil || string(mid) != "abcdefghij" {
				t.Fatalf("ReadAt: %q, %v", mid, err)
			}
			if _, err := r.Seek(30, io.SeekStart); err != nil {
				t.Fatal(err)
			}
			tail, err := io.ReadAll(r)
			if err != nil || string(tail) != "uvwxyz" {
				t.Fatalf("Seek+ReadAll: %q, %v", tail, err)
			}
		})
	}
}

func TestBackendCreateExclusive(t *testing.T) {
	for name, root := range backendCases(t) {
		t.Run(name, func(t *testing.T) {
			be, err := storage.Resolve(root)
			if err != nil {
				t.Fatal(err)
			}
			obj := storage.Join(root, "out.txt")
			w, err := be.Create(obj, true)
			if err != nil {
				t.Fatal(err)
			}
			io.WriteString(w, "first")
			if err := w.Finalize(); err != nil {
				t.Fatal(err)
			}
			if b, _ := be.Get(obj); string(b) != "first" {
				t.Fatalf("finalized object: %q", b)
			}
			// Dirty destination: exclusive create refuses.
			if _, err := be.Create(obj, true); !errors.Is(err, storage.ErrExists) {
				t.Fatalf("excl Create over existing: got %v, want ErrExists", err)
			} else if !strings.Contains(err.Error(), "refusing to overwrite") {
				t.Fatalf("error should explain the refusal: %v", err)
			}
			// Abort leaves nothing.
			obj2 := storage.Join(root, "aborted.txt")
			w2, err := be.Create(obj2, true)
			if err != nil {
				t.Fatal(err)
			}
			io.WriteString(w2, "garbage")
			if err := w2.Abort(); err != nil {
				t.Fatal(err)
			}
			if _, err := be.Stat(obj2); !errors.Is(err, storage.ErrNotExist) {
				t.Fatalf("aborted object exists: %v", err)
			}
			// Non-exclusive create replaces.
			w3, err := be.Create(obj, false)
			if err != nil {
				t.Fatal(err)
			}
			io.WriteString(w3, "second")
			if err := w3.Finalize(); err != nil {
				t.Fatal(err)
			}
			if b, _ := be.Get(obj); string(b) != "second" {
				t.Fatalf("replaced object: %q", b)
			}
		})
	}
}

func TestBackendShardLifecycle(t *testing.T) {
	chunks := [][]byte{
		[]byte("chunk-zero-is-long-enough-to-seal"), // >= the 16-byte s3 part size
		[]byte("chunk-one-also-comfortably-long"),
		[]byte("chunk-two-the-last-one"),
	}
	for name, root := range backendCases(t) {
		t.Run(name, func(t *testing.T) {
			be, err := storage.Resolve(root)
			if err != nil {
				t.Fatal(err)
			}
			shard := storage.Join(root, "shards", "pe0.bin")
			w, err := be.CreateShard(shard)
			if err != nil {
				t.Fatal(err)
			}
			var want []byte
			var off int64
			for _, c := range chunks[:2] {
				if _, err := w.Write(c); err != nil {
					t.Fatal(err)
				}
				if off, err = w.Commit(sum(c)); err != nil {
					t.Fatal(err)
				}
				want = append(want, c...)
			}
			if off != int64(len(want)) {
				t.Fatalf("Commit offset %d, want %d", off, len(want))
			}
			// Commit only marks: nothing is published or vouched for until a
			// Sync. The memory backend shows it — its readers see the synced
			// prefix and nothing else.
			if name == "mem" {
				if b, _ := be.Get(shard); len(b) != 0 {
					t.Fatalf("%d bytes readable after Commit without Sync, want 0", len(b))
				}
			}
			// Sync hardens and reports the contiguous durable prefix: all of
			// it at once on fs and mem, as the part uploads finish on s3.
			dur, err := w.Sync()
			if err != nil {
				t.Fatal(err)
			}
			if name != "s3" && dur != off {
				t.Fatalf("Sync: %d, want %d", dur, off)
			}
			for deadline := time.Now().Add(5 * time.Second); dur != off; {
				if time.Now().After(deadline) {
					t.Fatalf("Sync stuck at %d, want %d", dur, off)
				}
				time.Sleep(time.Millisecond)
				if dur, err = w.Sync(); err != nil {
					t.Fatal(err)
				}
			}
			if name == "mem" {
				if b, _ := be.Get(shard); string(b) != string(want) {
					t.Fatalf("%d bytes readable after Sync, want %d", len(b), len(want))
				}
			}
			// A chunk that is committed but never synced is not part of the
			// resumable state, whatever became of its bytes.
			stray := []byte("committed-but-never-synced-chunk")
			if _, err := w.Write(stray); err != nil {
				t.Fatal(err)
			}
			if _, err := w.Commit(sum(stray)); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			// Resume at the synced offset, append the last chunk, finalize.
			w2, err := be.ResumeShard(shard, dur)
			if err != nil {
				t.Fatal(err)
			}
			if dur2, err := w2.Sync(); err != nil || dur2 != dur {
				t.Fatalf("Sync of a resumed shard: %d, %v, want %d", dur2, err, dur)
			}
			if _, err := w2.Write(chunks[2]); err != nil {
				t.Fatal(err)
			}
			if _, err := w2.Commit(sum(chunks[2])); err != nil {
				t.Fatal(err)
			}
			want = append(want, chunks[2]...)
			if err := w2.Finalize(); err != nil {
				t.Fatal(err)
			}
			w2.Close()
			got, err := be.Get(shard)
			if err != nil || string(got) != string(want) {
				t.Fatalf("final shard: %d bytes, %v, want %d", len(got), err, len(want))
			}

			// A resume offset the store can't back is an explicit error.
			if _, err := be.ResumeShard(storage.Join(root, "shards", "missing.bin"), 10); err == nil {
				t.Fatal("ResumeShard on missing shard succeeded")
			}
		})
	}
}

func TestBackendLock(t *testing.T) {
	for name, root := range backendCases(t) {
		t.Run(name, func(t *testing.T) {
			be, err := storage.Resolve(root)
			if err != nil {
				t.Fatal(err)
			}
			lk := storage.Join(root, "worker.lock")
			l, err := be.Lock(lk)
			if err != nil {
				t.Fatal(err)
			}
			if name == "fs" {
				// flock exclusion is per file description, not per process:
				// a second in-process acquire would succeed. The cross-process
				// contract is covered by the job layer's crash tests.
				l.Release()
				return
			}
			if _, err := be.Lock(lk); !errors.Is(err, storage.ErrLocked) {
				t.Fatalf("double lock: got %v, want ErrLocked", err)
			}
			if err := l.Release(); err != nil {
				t.Fatal(err)
			}
			l2, err := be.Lock(lk)
			if err != nil {
				t.Fatalf("relock after release: %v", err)
			}
			l2.Release()
		})
	}
}

func TestS3LockTTLTakeover(t *testing.T) {
	setupS3(t, 1<<20)
	t.Setenv("KAGEN_S3_LOCK_TTL", "1ns")
	be, err := storage.Resolve("s3://bkt/x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := be.Lock("s3://bkt/locks/w0"); err != nil {
		t.Fatal(err)
	}
	// The first lease expired instantly; a second worker breaks it.
	l2, err := be.Lock("s3://bkt/locks/w0")
	if err != nil {
		t.Fatalf("takeover of expired lease: %v", err)
	}
	l2.Release()
}

// TestStripedUploadOverlap proves parts upload concurrently with ongoing
// generation: the server blocks part 1 until the writer has sealed and
// launched two more parts behind it.
func TestStripedUploadOverlap(t *testing.T) {
	srv := setupS3(t, 8)
	storage.ResetUploadStats()
	release := make(chan struct{})
	var blocked atomic.Bool
	srv.OnPart = func(_, _ string, num int) error {
		if num == 1 && blocked.CompareAndSwap(false, true) {
			<-release
		}
		return nil
	}
	be, err := storage.Resolve("s3://bkt/x")
	if err != nil {
		t.Fatal(err)
	}
	w, err := be.CreateShard("s3://bkt/striped/pe0.bin")
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	// Part 1 is stuck on the server; parts 2 and 3 seal and launch while
	// it hangs — generation never waits for upload.
	for i := 0; i < 3; i++ {
		c := []byte(fmt.Sprintf("chunk-%d-padding-past-part-size", i))
		w.Write(c)
		if _, err := w.Commit(sum(c)); err != nil {
			t.Fatal(err)
		}
		want = append(want, c...)
	}
	// Wait until all three uploads are genuinely in flight.
	deadline := time.Now().Add(5 * time.Second)
	for storage.UploadStats().PartsInFlight < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("uploads never overlapped: %+v", storage.UploadStats())
		}
		time.Sleep(time.Millisecond)
	}
	if dur, _ := w.Sync(); dur != 0 {
		t.Fatalf("Sync %d while part 1 incomplete, want 0", dur)
	}
	close(release)
	if err := w.Finalize(); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if got := srv.Object("bkt", "striped/pe0.bin"); string(got) != string(want) {
		t.Fatalf("striped object mismatch: %d bytes, want %d", len(got), len(want))
	}
	st := storage.UploadStats()
	if st.MaxInFlight < 3 {
		t.Fatalf("MaxInFlight %d, want >= 3", st.MaxInFlight)
	}
	if st.ChecksumReused != 3 || st.ChecksumRehashed != 0 {
		t.Fatalf("checksums: reused %d rehashed %d, want 3/0 — part checksums must be the chunk digests", st.ChecksumReused, st.ChecksumRehashed)
	}
}

// TestPartRetry: a transiently failing part upload is retried with
// backoff and the shard still finalizes byte-perfect.
func TestPartRetry(t *testing.T) {
	srv := setupS3(t, 8)
	storage.ResetUploadStats()
	var failed atomic.Bool
	srv.OnPart = func(_, _ string, num int) error {
		if num == 2 && failed.CompareAndSwap(false, true) {
			return errors.New("injected 500")
		}
		return nil
	}
	be, _ := storage.Resolve("s3://bkt/x")
	w, err := be.CreateShard("s3://bkt/retry/pe0.bin")
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for i := 0; i < 3; i++ {
		c := []byte(fmt.Sprintf("retry-chunk-%d-padded-out", i))
		w.Write(c)
		if _, err := w.Commit(sum(c)); err != nil {
			t.Fatal(err)
		}
		want = append(want, c...)
	}
	if err := w.Finalize(); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if got := srv.Object("bkt", "retry/pe0.bin"); string(got) != string(want) {
		t.Fatalf("object mismatch after retry: %d bytes, want %d", len(got), len(want))
	}
	if st := storage.UploadStats(); st.PartRetries < 1 {
		t.Fatalf("PartRetries %d, want >= 1", st.PartRetries)
	}
}

// TestPartPermanentFailure: a part that keeps failing surfaces as an
// error from the writer, and Abort cleans the multipart upload up.
func TestPartPermanentFailure(t *testing.T) {
	srv := setupS3(t, 8)
	t.Setenv("KAGEN_S3_MAX_ATTEMPTS", "2")
	failpoint.Arm("storage/s3-part-fail", 1)
	defer failpoint.Reset()
	be, _ := storage.Resolve("s3://bkt/x")
	w, err := be.CreateShard("s3://bkt/permfail/pe0.bin")
	if err != nil {
		t.Fatal(err)
	}
	c := []byte("doomed-chunk-padded-past-size")
	w.Write(c)
	w.Commit(sum(c))
	err = w.Finalize()
	if err == nil {
		t.Fatal("Finalize succeeded despite permanent part failure")
	}
	if err := w.Abort(); err != nil {
		t.Fatal(err)
	}
	if n := srv.Uploads("bkt"); n != 0 {
		t.Fatalf("%d uploads left after Abort, want 0", n)
	}
	if srv.Object("bkt", "permfail/pe0.bin") != nil {
		t.Fatal("aborted shard became an object")
	}
}

// TestS3FinalizeCrashResume: a crash between the last part upload and
// CompleteMultipartUpload leaves every part on the store; resuming at
// the full committed offset completes without re-uploading anything.
func TestS3FinalizeCrashResume(t *testing.T) {
	srv := setupS3(t, 8)
	be, _ := storage.Resolve("s3://bkt/x")
	w, err := be.CreateShard("s3://bkt/crash/pe0.bin")
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	var off int64
	for i := 0; i < 2; i++ {
		c := []byte(fmt.Sprintf("crash-chunk-%d-padded-out", i))
		w.Write(c)
		off, _ = w.Commit(sum(c))
		want = append(want, c...)
	}
	failpoint.Arm("storage/s3-finalize-crash", 1)
	err = w.Finalize()
	failpoint.Reset()
	if err == nil || !errors.Is(err, failpoint.ErrCrash) {
		t.Fatalf("Finalize: got %v, want simulated crash", err)
	}
	w.Close()

	w2, err := be.ResumeShard("s3://bkt/crash/pe0.bin", off)
	if err != nil {
		t.Fatal(err)
	}
	if dur, _ := w2.Sync(); dur != off {
		t.Fatalf("resumed Sync %d, want %d", dur, off)
	}
	if err := w2.Finalize(); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	if got := srv.Object("bkt", "crash/pe0.bin"); string(got) != string(want) {
		t.Fatalf("resumed object mismatch: %d bytes, want %d", len(got), len(want))
	}
	// Crash after Complete but before the caller's manifest write: the
	// finalized object at exactly the committed offset resumes as a
	// no-op writer.
	w3, err := be.ResumeShard("s3://bkt/crash/pe0.bin", int64(len(want)))
	if err != nil {
		t.Fatalf("resume of finalized shard: %v", err)
	}
	if err := w3.Finalize(); err != nil {
		t.Fatal(err)
	}
}

// TestS3ChunkCoalescing: chunks smaller than the part size coalesce into
// one part whose checksum is recomputed (counted, not silently hashed).
func TestS3ChunkCoalescing(t *testing.T) {
	srv := setupS3(t, 64)
	storage.ResetUploadStats()
	be, _ := storage.Resolve("s3://bkt/x")
	w, err := be.CreateShard("s3://bkt/coalesce/pe0.bin")
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for i := 0; i < 8; i++ {
		c := []byte(fmt.Sprintf("tiny-%d|", i)) // 7 bytes: 10 chunks per 64-byte part
		w.Write(c)
		if _, err := w.Commit(sum(c)); err != nil {
			t.Fatal(err)
		}
		want = append(want, c...)
	}
	if err := w.Finalize(); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if got := srv.Object("bkt", "coalesce/pe0.bin"); string(got) != string(want) {
		t.Fatalf("coalesced object mismatch: %q", got)
	}
	if st := storage.UploadStats(); st.ChecksumRehashed == 0 {
		t.Fatalf("coalesced parts must count rehashes: %+v", st)
	}
}

func TestResolveAndJoin(t *testing.T) {
	if _, err := storage.Resolve("ftp://x/y"); err == nil {
		t.Fatal("unknown scheme resolved")
	}
	for _, tc := range []struct{ dest, elem, want string }{
		{"s3://bkt/prefix", "shards", "s3://bkt/prefix/shards"},
		{"mem://space/j", "a.txt", "mem://space/j/a.txt"},
		{filepath.Join("x", "y"), "z", filepath.Join("x", "y", "z")},
	} {
		if got := storage.Join(tc.dest, tc.elem); got != tc.want {
			t.Errorf("Join(%q, %q) = %q, want %q", tc.dest, tc.elem, got, tc.want)
		}
	}
	if storage.Base("s3://bkt/a/b.txt") != "b.txt" {
		t.Error("Base on URI")
	}
}
