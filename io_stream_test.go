package kagen

import (
	"os"
	"path/filepath"
	"testing"
)

// streamRoundTripCases: one sampling-stream model and two spatial models
// cover the three streamer families.
func streamRoundTripCases(t *testing.T) []struct {
	name string
	gen  Generator
} {
	t.Helper()
	opt := Options{Seed: 21, PEs: 4}
	return []struct {
		name string
		gen  Generator
	}{
		{"gnm", mustNew(t, ModelGNMDirected, ModelParams{N: 500, M: 3000}, opt)},
		{"rgg2d", mustNew(t, ModelRGG2D, ModelParams{N: 400, R: 0.08}, opt)},
		{"srhg", mustNew(t, ModelSRHG, ModelParams{N: 400, AvgDeg: 8, Gamma: 2.8}, opt)},
	}
}

func requireSameList(t *testing.T, name string, got, want *EdgeList) {
	t.Helper()
	if got.N != want.N {
		t.Fatalf("%s: n = %d, want %d", name, got.N, want.N)
	}
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d edges, want %d", name, got.Len(), want.Len())
	}
	for i := range want.Edges {
		if got.Edges[i] != want.Edges[i] {
			t.Fatalf("%s: edge %d = %v, want %v", name, i, got.Edges[i], want.Edges[i])
		}
	}
}

// TestTextSinkRoundTrip: pe.Stream → text sink → reader equals Generate.
func TestTextSinkRoundTrip(t *testing.T) {
	for _, c := range streamRoundTripCases(t) {
		want, err := c.gen.Generate()
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "edges.txt")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := Stream(c.gen, 3, NewFormatSink(f, FormatText)); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		rf, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ReadEdgeListText(rf)
		rf.Close()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		requireSameList(t, c.name, got, want)
	}
}

// TestBinarySinkRoundTrip: the binary sink must also patch the edge count
// into the header at Close.
func TestBinarySinkRoundTrip(t *testing.T) {
	for _, c := range streamRoundTripCases(t) {
		want, err := c.gen.Generate()
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "edges.bin")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := Stream(c.gen, 3, NewFormatSink(f, FormatBinary)); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		rf, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ReadEdgeListBinary(rf)
		rf.Close()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		requireSameList(t, c.name, got, want)
	}
}

// TestShardedSinkRoundTrip: per-PE shard files merged in PE order equal
// Generate, in both shard formats, and each shard equals its Chunk.
func TestShardedSinkRoundTrip(t *testing.T) {
	for _, c := range streamRoundTripCases(t) {
		want, err := c.gen.Generate()
		if err != nil {
			t.Fatal(err)
		}
		for _, format := range Formats() {
			dir := t.TempDir()
			sink := openSharded(t, dir, c.name, format)
			if err := Stream(c.gen, 3, sink); err != nil {
				t.Fatalf("%s/%s: %v", c.name, format, err)
			}
			got, err := ReadShardedEdgeList(dir, c.name, format, c.gen.PEs())
			if err != nil {
				t.Fatalf("%s/%s: %v", c.name, format, err)
			}
			requireSameList(t, c.name, got, want)

			// Spot-check one shard against its chunk.
			pe := c.gen.PEs() - 1
			chunk, err := c.gen.Chunk(pe)
			if err != nil {
				t.Fatal(err)
			}
			shard, err := ReadEdgeListFile(sink.ShardPath(pe), format)
			if err != nil {
				t.Fatal(err)
			}
			if shard.Len() != len(chunk) {
				t.Fatalf("%s/%s: shard %d has %d edges, chunk has %d",
					c.name, format, pe, shard.Len(), len(chunk))
			}
			for i := range chunk {
				if shard.Edges[i] != chunk[i] {
					t.Fatalf("%s/%s: shard %d edge %d differs", c.name, format, pe, i)
				}
			}
		}
	}
}

// TestStreamSinkErrorPropagates: a failing sink aborts the run and the
// error surfaces through Stream.
func TestStreamSinkErrorPropagates(t *testing.T) {
	s := mustNew(t, ModelGNMDirected, ModelParams{N: 500, M: 3000}, Options{Seed: 1, PEs: 4})
	sink := &failingSink{failAt: 2}
	err := Stream(s, 2, sink)
	if err == nil {
		t.Fatal("sink error did not surface")
	}
	if !sink.closed {
		t.Fatal("sink not closed after error")
	}
}

// TestShardedSinkAbortRemovesPartialShard: an aborted run must not leave
// a shard file that would later read back as a valid (empty or truncated)
// edge list — the open shard is deleted at Close.
func TestShardedSinkAbortRemovesPartialShard(t *testing.T) {
	s := mustNew(t, ModelGNMDirected, ModelParams{N: 500, M: 3000}, Options{Seed: 1, PEs: 4})
	for _, format := range Formats() {
		dir := t.TempDir()
		sink := openSharded(t, dir, "gnm", format)
		// Fail while PE 2's shard is open: its first batch errors after
		// openShard has created the file.
		ferr := &failAfterOpen{ShardedSink: sink, failPE: 2}
		if err := Stream(s, 2, ferr); err == nil {
			t.Fatal("sink error did not surface")
		}
		for pe := uint64(0); pe < 4; pe++ {
			_, err := os.Stat(sink.ShardPath(pe))
			if pe < 2 && err != nil {
				t.Errorf("format=%v: completed shard %d missing: %v", format, pe, err)
			}
			if pe >= 2 && err == nil {
				t.Errorf("format=%v: aborted run left shard %d on disk", format, pe)
			}
		}
	}
}

func openSharded(t *testing.T, dir, prefix string, format Format) *ShardedSink {
	t.Helper()
	sink, err := OpenSink(dir, format, SinkSharded(prefix))
	if err != nil {
		t.Fatal(err)
	}
	return sink.(*ShardedSink)
}

// failAfterOpen lets the embedded ShardedSink open the failPE shard, then
// fails the batch, leaving the partial file for Close to clean up.
type failAfterOpen struct {
	*ShardedSink
	failPE uint64
}

func (f *failAfterOpen) Batch(pe uint64, edges []Edge) error {
	if err := f.ShardedSink.Batch(pe, edges); err != nil {
		return err
	}
	if pe == f.failPE {
		return os.ErrInvalid
	}
	return nil
}

type failingSink struct {
	failAt uint64
	closed bool
}

func (f *failingSink) Begin(n, pes uint64) error { return nil }
func (f *failingSink) Batch(pe uint64, e []Edge) error {
	if pe == f.failAt {
		return os.ErrInvalid
	}
	return nil
}
func (f *failingSink) EndPE(pe uint64) error { return nil }
func (f *failingSink) Close() error {
	f.closed = true
	return nil
}
