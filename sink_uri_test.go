package kagen_test

import (
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	kagen "repro"
	"repro/internal/job"
	"repro/internal/storage"
	"repro/internal/storage/s3test"
)

// streamTo streams gen to dest through its backend's single-shot writer,
// as `kagen -o dest` does; inside, before Stream runs, check sees the
// destination.
func streamTo(t *testing.T, gen kagen.Generator, format kagen.Format, dest string, check func(storage.Backend)) {
	t.Helper()
	store, err := storage.Resolve(dest)
	if err != nil {
		t.Fatal(err)
	}
	if err := storage.WriteObject(store, dest, func(w io.Writer) error {
		_, err := job.Stream(gen, format, w, 2)
		check(store)
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

// TestOpenSinkObjectURI: a stream to an object destination round-trips
// through the backend, and nothing is visible at the destination until
// the whole stream is written.
func TestOpenSinkObjectURI(t *testing.T) {
	srv := s3test.New("test-access", "test-secret", "bkt")
	t.Cleanup(srv.Close)
	t.Setenv("KAGEN_S3_ENDPOINT", srv.URL())
	t.Setenv("AWS_ACCESS_KEY_ID", "test-access")
	t.Setenv("AWS_SECRET_ACCESS_KEY", "test-secret")
	t.Setenv("AWS_REGION", "us-east-1")
	gen, err := kagen.New(kagen.ModelGNMDirected, kagen.ModelParams{N: 300, M: 1500}, kagen.Options{Seed: 4, PEs: 3})
	if err != nil {
		t.Fatal(err)
	}
	want, err := gen.Generate()
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range kagen.Formats() {
		dest := "s3://bkt/sinkuri-obj/graph." + format.Ext()
		streamTo(t, gen, format, dest, func(store storage.Backend) {
			if _, err := store.Stat(dest); !errors.Is(err, storage.ErrNotExist) {
				t.Fatalf("%s: object visible before the stream ended: %v", format, err)
			}
		})
		got, err := kagen.ReadEdgeListFrom(dest, format)
		if err != nil {
			t.Fatal(err)
		}
		sameList(t, string(format), got, want)
	}
}

// TestOpenSinkRejectsBadDestinations: an unknown scheme fails when the
// destination resolves, before anything is generated, and reading from
// it fails the same way.
func TestOpenSinkRejectsBadDestinations(t *testing.T) {
	for _, dest := range []string{"gopher://x/y", "mem://x/y"} {
		if _, err := storage.Resolve(dest); err == nil {
			t.Fatalf("%s: unknown scheme accepted for writing", dest)
		}
		if _, err := kagen.ReadEdgeListFrom(dest, kagen.FormatText); err == nil {
			t.Fatalf("%s: unknown scheme accepted for reading", dest)
		}
	}
}

// TestOpenSinkFileURI: file:// destinations are the local filesystem,
// and plain binary there gets its exact edge count.
func TestOpenSinkFileURI(t *testing.T) {
	gen, err := kagen.New(kagen.ModelGNMDirected, kagen.ModelParams{N: 300, M: 1500}, kagen.Options{Seed: 4, PEs: 3})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	streamTo(t, gen, kagen.FormatText, "file://"+filepath.Join(dir, "graph.txt"), func(storage.Backend) {})
	b, err := os.ReadFile(filepath.Join(dir, "graph.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(b), "# 300\n") || strings.Count(string(b), "\n") != 1501 {
		t.Fatalf("file:// output is not a 1500-edge text stream: %.40q…", b)
	}
	path := filepath.Join(dir, "graph.bin")
	streamTo(t, gen, kagen.FormatBinary, "file://"+path, func(storage.Backend) {})
	el, err := kagen.ReadEdgeListFrom(path, kagen.FormatBinary)
	if err != nil || el.Len() != 1500 {
		t.Fatalf("file:// binary: %v edges, %v", el, err)
	}
	if b, _ := os.ReadFile(path); binary.LittleEndian.Uint64(b[8:16]) != 1500 {
		t.Fatalf("file:// binary header does not carry the count 1500: % x", b[:16])
	}
}
