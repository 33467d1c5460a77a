package kagen

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOpenSinkObjectURI: a single-object destination round-trips through
// the backend, and nothing is visible at the destination until the clean
// Close publishes it.
func TestOpenSinkObjectURI(t *testing.T) {
	dest := "mem://sinkuri-obj/graph.txt"
	s, err := OpenSink(dest, FormatText)
	if err != nil {
		t.Fatal(err)
	}
	edges := []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}}
	if err := s.Begin(4, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Batch(0, edges); err != nil {
		t.Fatal(err)
	}
	if err := s.EndPE(0); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadEdgeListFrom(dest, FormatText); err == nil {
		t.Fatal("object visible before the sink's Close published it")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEdgeListFrom(dest, FormatText)
	if err != nil {
		t.Fatal(err)
	}
	requireSameList(t, "object URI", got, &EdgeList{N: 4, Edges: edges})
}

// TestOpenSinkRejectsBadDestinations: an unknown scheme fails at open
// time, not mid-stream.
func TestOpenSinkRejectsBadDestinations(t *testing.T) {
	if _, err := OpenSink("gopher://x/y", FormatText); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

// TestOpenSinkFileURI: file:// destinations are the local filesystem.
func TestOpenSinkFileURI(t *testing.T) {
	path := filepath.Join(t.TempDir(), "graph.txt")
	s, err := OpenSink("file://"+path, FormatText)
	if err != nil {
		t.Fatal(err)
	}
	edges := []Edge{{U: 0, V: 1}}
	if err := s.Begin(2, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Batch(0, edges); err != nil {
		t.Fatal(err)
	}
	if err := s.EndPE(0); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "0 1") {
		t.Fatalf("file:// output missing edges: %q", b)
	}
}
