package kagen_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	kagen "repro"
	"repro/internal/job"
	"repro/internal/storage"
)

// streamCase is one instance of the plain-stream tests: a sampling-stream
// model and two spatial models cover the three streamer families.
type streamCase struct {
	name string
	gen  kagen.Generator
}

func streamCases(t *testing.T) []streamCase {
	t.Helper()
	opt := kagen.Options{Seed: 21, PEs: 4}
	var cases []streamCase
	for _, c := range []struct {
		name  string
		model kagen.Model
		p     kagen.ModelParams
	}{
		{"gnm", kagen.ModelGNMDirected, kagen.ModelParams{N: 500, M: 3000}},
		{"rgg2d", kagen.ModelRGG2D, kagen.ModelParams{N: 400, R: 0.08}},
		{"srhg", kagen.ModelSRHG, kagen.ModelParams{N: 400, AvgDeg: 8, Gamma: 2.8}},
	} {
		gen, err := kagen.New(c.model, c.p, opt)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, streamCase{c.name, gen})
	}
	return cases
}

func sameList(t *testing.T, name string, got, want *kagen.EdgeList) {
	t.Helper()
	if got.N != want.N || got.Len() != want.Len() {
		t.Fatalf("%s: n=%d with %d edges, want n=%d with %d", name, got.N, got.Len(), want.N, want.Len())
	}
	for i := range want.Edges {
		if got.Edges[i] != want.Edges[i] {
			t.Fatalf("%s: edge %d = %v, want %v", name, i, got.Edges[i], want.Edges[i])
		}
	}
}

// streamFile streams gen to a new file at path through job.Stream, as
// `kagen -o path` does, and returns the edge count.
func streamFile(t *testing.T, gen kagen.Generator, format kagen.Format, path string) uint64 {
	t.Helper()
	store, err := storage.Resolve(path)
	if err != nil {
		t.Fatal(err)
	}
	var edges uint64
	if err := storage.WriteObject(store, path, func(w io.Writer) (err error) {
		edges, err = job.Stream(gen, format, w, 3)
		return err
	}); err != nil {
		t.Fatalf("%s: %v", format, err)
	}
	return edges
}

// TestTextSinkRoundTrip: a text stream to a file reads back as Generate.
func TestTextSinkRoundTrip(t *testing.T) {
	for _, c := range streamCases(t) {
		want, err := c.gen.Generate()
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "edges.txt")
		if edges := streamFile(t, c.gen, kagen.FormatText, path); edges != uint64(want.Len()) {
			t.Errorf("%s: Stream counted %d edges, want %d", c.name, edges, want.Len())
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := kagen.ReadEdgeList(f, kagen.FormatText)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sameList(t, c.name, got, want)
	}
}

// TestBinarySinkRoundTrip: a binary stream to a file carries the exact
// edge count in its header, patched in at the end, and reads back as
// Generate.
func TestBinarySinkRoundTrip(t *testing.T) {
	for _, c := range streamCases(t) {
		want, err := c.gen.Generate()
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "edges.bin")
		streamFile(t, c.gen, kagen.FormatBinary, path)
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if m := binary.LittleEndian.Uint64(b[8:]); m != uint64(want.Len()) {
			t.Fatalf("%s: header edge count %d, want %d", c.name, m, want.Len())
		}
		got, err := kagen.ReadEdgeList(bytes.NewReader(b), kagen.FormatBinary)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sameList(t, c.name, got, want)
	}
}

// TestFormatSinkRoundTrip: streaming every format to a file and reading
// it back reproduces the materialized instance, compressed formats
// included.
func TestFormatSinkRoundTrip(t *testing.T) {
	for _, c := range streamCases(t) {
		want, err := c.gen.Generate()
		if err != nil {
			t.Fatal(err)
		}
		for _, format := range kagen.Formats() {
			path := filepath.Join(t.TempDir(), "edges."+format.Ext())
			streamFile(t, c.gen, format, path)
			got, err := kagen.ReadEdgeListFrom(path, format)
			if err != nil {
				t.Fatalf("%s/%s: %v", c.name, format, err)
			}
			sameList(t, c.name+"/"+string(format), got, want)
		}
	}
}

// TestBinaryStreamSinkSentinel: plain binary to a writer that cannot take
// the count at the end — a buffer, a pipe, a file opened for append —
// carries the StreamingEdgeCount sentinel instead, and reads back until
// EOF; a torn trailing record is an error, not silent truncation.
func TestBinaryStreamSinkSentinel(t *testing.T) {
	s, err := kagen.New(kagen.ModelGNMDirected, kagen.ModelParams{N: 300, M: 1500}, kagen.Options{Seed: 4, PEs: 3})
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Generate()
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]func(t *testing.T) []byte{
		"buffer": func(t *testing.T) []byte {
			var buf bytes.Buffer
			if _, err := job.Stream(s, kagen.FormatBinary, &buf, 2); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		},
		"pipe": func(t *testing.T) []byte {
			r, w, err := os.Pipe()
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() {
				_, err := job.Stream(s, kagen.FormatBinary, w, 2)
				w.Close()
				done <- err
			}()
			b, rerr := io.ReadAll(r)
			r.Close()
			if err := errors.Join(<-done, rerr); err != nil {
				t.Fatal(err)
			}
			return b
		},
		"append": func(t *testing.T) []byte {
			path := filepath.Join(t.TempDir(), "edges.bin")
			f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			_, err = job.Stream(s, kagen.FormatBinary, f, 2)
			if err = errors.Join(err, f.Close()); err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			return b
		},
	}
	for name, stream := range rows {
		b := stream(t)
		if m := binary.LittleEndian.Uint64(b[8:]); m != kagen.StreamingEdgeCount {
			t.Errorf("%s: header edge count %d, want the sentinel", name, m)
		}
		got, err := kagen.ReadEdgeList(bytes.NewReader(b), kagen.FormatBinary)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameList(t, name, got, want)
		if _, err := kagen.ReadEdgeList(bytes.NewReader(b[:len(b)-7]), kagen.FormatBinary); err == nil {
			t.Fatalf("%s: torn sentinel stream read back without error", name)
		}
	}
}

// failingWriter fails every write from its failAt-th on.
type failingWriter struct {
	w      io.Writer
	writes int
	failAt int
}

var errWriteFailed = errors.New("write failed")

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.writes++; f.writes >= f.failAt {
		return 0, errWriteFailed
	}
	return f.w.Write(p)
}

// TestStreamSinkErrorPropagates: a failing writer aborts the run, its
// error surfaces from Stream, and nothing is written after it. Through a
// destination's single-shot writer, the destination keeps what it held.
func TestStreamSinkErrorPropagates(t *testing.T) {
	s, err := kagen.New(kagen.ModelGNMDirected, kagen.ModelParams{N: 1 << 14, M: 1 << 17}, kagen.Options{Seed: 1, PEs: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	fw := &failingWriter{w: &buf, failAt: 5}
	if _, err := job.Stream(s, kagen.FormatText, fw, 2); !errors.Is(err, errWriteFailed) {
		t.Fatalf("Stream returned %v, want the writer's error", err)
	}
	if fw.writes != fw.failAt {
		t.Errorf("%d writes, want the run to stop at the failing %dth", fw.writes, fw.failAt)
	}

	path := filepath.Join(t.TempDir(), "graph.txt")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	store, err := storage.Resolve(path)
	if err != nil {
		t.Fatal(err)
	}
	err = storage.WriteObject(store, path, func(w io.Writer) error {
		_, err := job.Stream(s, kagen.FormatText, &failingWriter{w: w, failAt: 3}, 2)
		return err
	})
	if !errors.Is(err, errWriteFailed) {
		t.Fatalf("WriteObject returned %v, want the writer's error", err)
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != "old" {
		t.Fatalf("destination after a failed stream: %q, %v; want it as it was", b, err)
	}
	if names, _ := filepath.Glob(filepath.Join(filepath.Dir(path), "*")); len(names) != 1 {
		t.Fatalf("failed stream left files behind: %v", names)
	}
}
