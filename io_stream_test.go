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
