package storage

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/storage/s3test"
)

// TestPartBuffersReusedAcrossShards: part buffers outlive the shard and
// the backend that grew them. The second shard, written through a backend
// resolved anew as the next job run resolves its own, builds its parts in
// the buffers the first one gave back to the process's free list and
// allocates no part buffer of its own, and the list keeps no more buffers
// than two open shards can have out.
func TestPartBuffersReusedAcrossShards(t *testing.T) {
	const concurrency = 2
	srv := s3test.New("test-access", "test-secret", "bkt")
	t.Cleanup(srv.Close)
	t.Setenv("KAGEN_S3_ENDPOINT", srv.URL())
	t.Setenv("AWS_ACCESS_KEY_ID", "test-access")
	t.Setenv("AWS_SECRET_ACCESS_KEY", "test-secret")
	t.Setenv("AWS_REGION", "us-east-1")
	t.Setenv("KAGEN_S3_PART_SIZE", "1024")
	t.Setenv("KAGEN_S3_CONCURRENCY", fmt.Sprint(concurrency))
	emptyFreeParts()

	// Eight 700-byte chunks: two to a part, so four parts a shard, each
	// in a buffer of twice the part size.
	chunk := bytes.Repeat([]byte("0123456789"), 70)
	write := func(key string) {
		t.Helper()
		be, err := Resolve("s3://bkt/job")
		if err != nil {
			t.Fatal(err)
		}
		w, err := be.CreateShard("s3://bkt/" + key)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			if _, err := w.Write(chunk); err != nil {
				t.Fatal(err)
			}
			if _, err := w.Commit(sha256.Sum256(chunk)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Finalize(); err != nil {
			t.Fatal(err)
		}
		w.Close()
		if got := srv.Object("bkt", key); !bytes.Equal(got, bytes.Repeat(chunk, 8)) {
			t.Fatalf("%s: object of %d bytes differs from what was written", key, len(got))
		}
	}
	buffers := func() map[*byte]bool {
		freeParts.mu.Lock()
		defer freeParts.mu.Unlock()
		set := make(map[*byte]bool, len(freeParts.list))
		for _, buf := range freeParts.list {
			set[unsafe.SliceData(buf[:cap(buf)])] = true
		}
		return set
	}

	write("pe0.bin")
	first := buffers()
	if len(first) == 0 {
		t.Fatal("no part buffer came back to the free list after the first shard")
	}
	write("pe1.bin")
	second := buffers()
	for buf := range second {
		if !first[buf] {
			t.Errorf("the second shard allocated a part buffer; the first left %d", len(first))
			break
		}
	}
	if len(second) > 2*(concurrency+1) {
		t.Errorf("the free list keeps %d part buffers, want at most %d", len(second), 2*(concurrency+1))
	}
}

// TestFreshPartBufferNeverRegrows: a fresh part buffer is sized for the
// part at once. With one-chunk parts of 1.3 x partSize written in small
// blocks, every part is built in a single buffer of 2 x partSize that
// keeps its backing array from the first block to the seal. The run
// starts from an empty free list, so its first part buffer is fresh; a
// buffer that was too small would never leave the list.
func TestFreshPartBufferNeverRegrows(t *testing.T) {
	const partSize = 1000
	emptyFreeParts()
	freeParts.mu.Lock()
	freeParts.list = append(freeParts.list, make([]byte, 0, 2*partSize-1))
	freeParts.mu.Unlock()
	srv := s3test.New("test-access", "test-secret", "bkt")
	t.Cleanup(srv.Close)
	t.Setenv("KAGEN_S3_ENDPOINT", srv.URL())
	t.Setenv("AWS_ACCESS_KEY_ID", "test-access")
	t.Setenv("AWS_SECRET_ACCESS_KEY", "test-secret")
	t.Setenv("AWS_REGION", "us-east-1")
	t.Setenv("KAGEN_S3_PART_SIZE", fmt.Sprint(partSize))
	t.Setenv("KAGEN_S3_CONCURRENCY", "2")
	be, err := Resolve("s3://bkt/job")
	if err != nil {
		t.Fatal(err)
	}
	w, err := be.(*s3Backend).CreateShard("s3://bkt/pe0.bin")
	if err != nil {
		t.Fatal(err)
	}
	sw := w.(*s3Shard)
	part := func() []byte {
		sw.mu.Lock()
		defer sw.mu.Unlock()
		return sw.part
	}
	chunk := bytes.Repeat([]byte("0123456789"), 130) // 1.3 x partSize
	var want []byte
	for c := 0; c < 6; c++ {
		var data *byte
		for off := 0; off < len(chunk); off += 100 {
			if _, err := w.Write(chunk[off : off+100]); err != nil {
				t.Fatal(err)
			}
			buf := part()
			if off == 0 {
				data = unsafe.SliceData(buf[:cap(buf)])
				if cap(buf) != 2*partSize {
					t.Fatalf("chunk %d: part buffer of %d bytes, want %d", c, cap(buf), 2*partSize)
				}
			} else if unsafe.SliceData(buf[:cap(buf)]) != data {
				t.Fatalf("chunk %d: part buffer regrown at byte %d", c, off)
			}
		}
		if _, err := w.Commit(sha256.Sum256(chunk)); err != nil {
			t.Fatal(err)
		}
		want = append(want, chunk...)
	}
	if err := w.Finalize(); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if got := srv.Object("bkt", "pe0.bin"); !bytes.Equal(got, want) {
		t.Fatalf("object of %d bytes differs from the %d written", len(got), len(want))
	}
}

// emptyFreeParts drops the part buffers earlier tests of the process left
// on the free list, so a test sees only its own.
func emptyFreeParts() {
	freeParts.mu.Lock()
	defer freeParts.mu.Unlock()
	freeParts.list = nil
}
