package kagen

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// TestParseFormat: every supported name round-trips, anything else fails.
func TestParseFormat(t *testing.T) {
	for _, f := range Formats() {
		got, err := ParseFormat(string(f))
		if err != nil || got != f {
			t.Errorf("ParseFormat(%q) = %v, %v", f, got, err)
		}
	}
	for _, bad := range []string{"", "texty", "gzip", "binary.gzip", "sharded-text"} {
		if _, err := ParseFormat(bad); err == nil {
			t.Errorf("ParseFormat(%q) accepted", bad)
		}
	}
}

// binaryHeader returns a 16-byte binary edge-list header declaring n
// vertices and m edges.
func binaryHeader(n, m uint64) []byte {
	return binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, n), m)
}

// TestReadEdgeListUntrustedCount: the binary header's edge count is input,
// not a promise. A bare header declaring 2^60 edges (which used to panic in
// makeslice) or 2^32 (a 64 GiB reservation) and a body one record short of
// its count all fail with io.ErrUnexpectedEOF, compressed or not.
func TestReadEdgeListUntrustedCount(t *testing.T) {
	oneShort := append(binaryHeader(8, 2), make([]byte, 16)...)
	for name, in := range map[string][]byte{
		"m=2^60, no body": binaryHeader(8, 1<<60),
		"m=2^32, no body": binaryHeader(8, 1<<32),
		"m=2, one record": oneShort,
	} {
		var gz bytes.Buffer
		w := gzip.NewWriter(&gz)
		w.Write(in)
		w.Close()
		for f, b := range map[Format][]byte{FormatBinary: in, FormatBinaryGz: gz.Bytes()} {
			el, err := ReadEdgeList(bytes.NewReader(b), f)
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Errorf("%s, %s: got %v, %v; want io.ErrUnexpectedEOF", name, f, el, err)
			}
		}
	}
}

// encodeList encodes a whole edge list as one stream of format: the
// header, then the edges, gzipped for the .gz formats — the bytes a
// one-chunk plain stream writes, up to the gzip member boundaries.
func encodeList(t testing.TB, format Format, el *EdgeList) []byte {
	payload := format.AppendEdges(format.AppendHeader(nil, el.N), el.Edges)
	if !format.Compressed() {
		return payload
	}
	var buf bytes.Buffer
	gz := format.NewGzipWriter(&buf)
	if _, err := gz.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadEdgeList: ReadEdgeList never panics on any input in any format,
// and whatever it accepts, encoded again and read back, yields the same
// vertex count and edges.
func FuzzReadEdgeList(f *testing.F) {
	s, err := New(ModelGNMDirected, ModelParams{N: 40, M: 30}, Options{Seed: 3, PEs: 2})
	if err != nil {
		f.Fatal(err)
	}
	el, err := s.Generate()
	if err != nil {
		f.Fatal(err)
	}
	for i, format := range Formats() {
		f.Add(encodeList(f, format, el), uint8(i))
	}
	sentinel := append(binaryHeader(40, StreamingEdgeCount), binaryHeader(1, 2)...)
	f.Add(sentinel, uint8(1))
	f.Add(sentinel[:len(sentinel)-5], uint8(1)) // a torn record
	f.Add(binaryHeader(8, 1<<60), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, fi uint8) {
		format := Formats()[int(fi)%len(Formats())]
		el, err := ReadEdgeList(bytes.NewReader(data), format)
		if err != nil {
			return
		}
		again, err := ReadEdgeList(bytes.NewReader(encodeList(t, format, el)), format)
		if err != nil {
			t.Fatalf("%s: re-reading the written-back list: %v", format, err)
		}
		requireSameList(t, string(format), again, el)
	})
}

// TestStreamChunksFromMatchesFullStream: the resumable entry point is a
// pure suffix/slice of the full stream — for every split point, streaming
// [0, k) and then [k, P) concatenates to exactly the full run's sequence.
func TestStreamChunksFromMatchesFullStream(t *testing.T) {
	s := mustNew(t, ModelRGG2D, ModelParams{N: 400, R: 0.08}, Options{Seed: 21, PEs: 6})
	full := collectStream(t, s, 0, s.PEs())
	for k := uint64(0); k <= s.PEs(); k++ {
		head := collectStream(t, s, 0, k)
		tail := collectStream(t, s, k, s.PEs()-k)
		if len(head)+len(tail) != len(full) {
			t.Fatalf("split at %d: %d+%d edges, want %d", k, len(head), len(tail), len(full))
		}
		for i, e := range full {
			var got Edge
			if i < len(head) {
				got = head[i]
			} else {
				got = tail[i-len(head)]
			}
			if got != e {
				t.Fatalf("split at %d: edge %d = %v, want %v", k, i, got, e)
			}
		}
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

// TestStreamChunksFromRejectsBadRange: out-of-range chunk windows error
// and still close the sink.
func TestStreamChunksFromRejectsBadRange(t *testing.T) {
	s := mustNew(t, ModelGNMDirected, ModelParams{N: 300, M: 1500}, Options{Seed: 4, PEs: 3})
	sink := &collectSink{}
	if err := StreamChunksFrom(s, 2, 2, 1, 0, sink); err == nil {
		t.Fatal("range past PEs accepted")
	}
	if !sink.closed {
		t.Fatal("sink not closed after range error")
	}
}

// collectStream gathers the edges of a chunk range through a memory sink.
func collectStream(t *testing.T, s Streamer, first, count uint64) []Edge {
	t.Helper()
	var edges []Edge
	sink := &rangeCollectSink{edges: &edges}
	if err := StreamChunksFrom(s, first, count, 3, 64, sink); err != nil {
		t.Fatal(err)
	}
	return edges
}

type rangeCollectSink struct{ edges *[]Edge }

func (c *rangeCollectSink) Begin(n, pes uint64) error { return nil }
func (c *rangeCollectSink) Batch(pe uint64, e []Edge) error {
	*c.edges = append(*c.edges, e...)
	return nil
}
func (c *rangeCollectSink) EndPE(pe uint64) error { return nil }
func (c *rangeCollectSink) Close() error          { return nil }
