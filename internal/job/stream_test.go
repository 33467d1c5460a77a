package job

import (
	"bytes"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	kagen "repro"
)

// TestStreamEqualsMerge: a plain stream is a merge without shards. For
// every format its bytes in a file equal Merge's output for the job with
// one chunk per PE of the same instance, .gz member boundaries and plain
// binary's exact edge count included, for any goroutine count; the zero
// format writes nothing and counts the same edges.
func TestStreamEqualsMerge(t *testing.T) {
	for _, format := range kagen.Formats() {
		spec := Spec{Model: "rgg2d", N: 3000, R: 0.03, Seed: 3, PEs: 5, ChunksPerPE: 1, Workers: 2, Format: string(format)}
		dir := t.TempDir()
		if err := Init(dir, spec); err != nil {
			t.Fatal(err)
		}
		runAll(t, dir, spec)
		var merged bytes.Buffer
		if err := Merge(dir, &merged); err != nil {
			t.Fatal(err)
		}
		streamer, err := spec.Streamer()
		if err != nil {
			t.Fatal(err)
		}
		want, err := streamer.(kagen.Generator).Generate()
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range []int{1, 3} {
			path := filepath.Join(t.TempDir(), "graph")
			f, err := os.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			edges, err := Stream(streamer, format, f, g)
			f.Close()
			if err != nil {
				t.Fatal(err)
			}
			if edges != uint64(want.Len()) {
				t.Errorf("%s G=%d: %d edges counted, want %d", format, g, edges, want.Len())
			}
			if b, _ := os.ReadFile(path); !bytes.Equal(b, merged.Bytes()) {
				t.Errorf("%s G=%d: %d stream bytes differ from the %d-byte merge", format, g, len(b), merged.Len())
			}
		}
		var none bytes.Buffer
		if edges, err := Stream(streamer, "", &none, 2); err != nil || edges != uint64(want.Len()) || none.Len() != 0 {
			t.Errorf("zero format: %d edges, %d bytes written, %v; want %d edges and nothing written", edges, none.Len(), err, want.Len())
		}
	}
}

// doneStreamer records when its chunk has finished generating.
type doneStreamer struct {
	kagen.Streamer
	done atomic.Bool
}

func (s *doneStreamer) EmitChunk(chunk uint64, e *kagen.Emitter) error {
	err := s.Streamer.EmitChunk(chunk, e)
	s.done.Store(true)
	return err
}

// earlyWriter counts the bytes it receives before its streamer's chunk
// has finished generating.
type earlyWriter struct {
	s            *doneStreamer
	early, total int
}

func (w *earlyWriter) Write(p []byte) (int, error) {
	if !w.s.done.Load() {
		w.early += len(p)
	}
	w.total += len(p)
	return len(p), nil
}

// TestStreamHeadChunkReachesWriterWhileGenerating: one 16 MiB chunk
// reaches the writer block by block while it generates — all of it but
// the last block before EmitChunk returns — so a stream holds blocks,
// never a chunk.
func TestStreamHeadChunkReachesWriterWhileGenerating(t *testing.T) {
	spec := Spec{Model: "gnm_directed", N: 1 << 20, M: 1 << 20, Seed: 5, PEs: 1, ChunksPerPE: 1, Workers: 1, Format: "binary"}
	streamer, err := spec.Streamer()
	if err != nil {
		t.Fatal(err)
	}
	s := &doneStreamer{Streamer: streamer}
	w := &earlyWriter{s: s}
	if _, err := Stream(s, kagen.FormatBinary, w, 0); err != nil {
		t.Fatal(err)
	}
	if w.total != 16+16<<20 {
		t.Fatalf("%d bytes written, want the 16-byte header and 16 MiB of edges", w.total)
	}
	if w.early < w.total-2*blockSize {
		t.Errorf("%d of %d bytes reached the writer while the chunk generated, want all but its last block", w.early, w.total)
	}
}
