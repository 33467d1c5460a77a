package kagen

import (
	"compress/gzip"
	"fmt"
	"io"
	"os"

	"repro/internal/graph"
	"repro/internal/storage"
)

// Format identifies a streaming edge-list encoding. The gzip-compressed
// variants are first-class formats: long streaming runs write them
// directly (no recompression pass), and every edge reader in the
// repository — ReadEdgeList, cmd/validate, cmd/graphstat — decompresses them
// transparently. Compressed binary streams carry the StreamingEdgeCount
// sentinel in their header (the count cannot be patched into compressed
// bytes), which ReadEdgeList reads as until-EOF framing.
type Format string

// Supported streaming formats.
const (
	FormatText     Format = "text"
	FormatBinary   Format = "binary"
	FormatTextGz   Format = "text.gz"
	FormatBinaryGz Format = "binary.gz"
)

// StreamingEdgeCount is the sentinel header edge count of binary streams
// whose writer cannot seek (compressed or piped output); see
// ReadEdgeList.
const StreamingEdgeCount = graph.StreamingEdgeCount

// Formats lists the streaming formats.
func Formats() []Format {
	return []Format{FormatText, FormatBinary, FormatTextGz, FormatBinaryGz}
}

// ParseFormat parses a format name as written on a command line or in a
// job spec.
func ParseFormat(s string) (Format, error) {
	switch f := Format(s); f {
	case FormatText, FormatBinary, FormatTextGz, FormatBinaryGz:
		return f, nil
	}
	return "", fmt.Errorf("kagen: unknown format %q (want text, binary, text.gz or binary.gz)", s)
}

// Binary reports whether the format's payload is the binary edge-list
// encoding.
func (f Format) Binary() bool { return f == FormatBinary || f == FormatBinaryGz }

// Compressed reports whether the format is gzip-compressed.
func (f Format) Compressed() bool { return f == FormatTextGz || f == FormatBinaryGz }

// Ext returns the file extension of the format (without leading dot).
func (f Format) Ext() string {
	switch f {
	case FormatBinary:
		return "bin"
	case FormatTextGz:
		return "txt.gz"
	case FormatBinaryGz:
		return "bin.gz"
	default:
		return "txt"
	}
}

// NewGzipWriter returns a gzip writer to w at the format's level. It is
// the one place the level is chosen: every gzip member the repository
// writes — a job shard's header and chunks, and so a plain .gz stream's —
// comes from the job's chunk encoder through it, and Reset keeps the
// level. text.gz is Huffman-coded without LZ match search: its 12-symbol
// alphabet (digits, space, newline) is where nearly all of deflate's gain
// on text comes from, and the match search cost about twenty times the
// generator. binary.gz keeps the default level, because fixed-width
// records compress mainly through LZ matches. Readers accept either, so a
// shard whose members were written at different levels stays valid. See
// DESIGN.md, "Compressed sinks", for the measurements.
func (f Format) NewGzipWriter(w io.Writer) *gzip.Writer {
	level := gzip.DefaultCompression
	if f == FormatTextGz {
		level = gzip.HuffmanOnly
	}
	gz, _ := gzip.NewWriterLevel(w, level) // both levels are valid
	return gz
}

// AppendEdges appends the payload encoding of a batch of edges to buf and
// returns the grown buffer: "u v\n" lines for the text formats, 16-byte
// little-endian (u, v) records for the binary formats. Headers are not
// included; see AppendHeader.
func (f Format) AppendEdges(buf []byte, edges []Edge) []byte {
	if f.Binary() {
		return appendEdgeBinary(buf, edges)
	}
	return appendEdgeText(buf, edges)
}

// AppendHeader appends the format's stream header for an instance with n
// vertices: "# n\n" for text, (n, StreamingEdgeCount) for binary. The
// binary sentinel makes the header final — resumable and compressed
// writers never need to come back and patch an edge count.
func (f Format) AppendHeader(buf []byte, n uint64) []byte {
	if f.Binary() {
		return appendBinaryHeader(buf, n, StreamingEdgeCount)
	}
	return fmt.Appendf(buf, "# %d\n", n)
}

// ReadEdgeList reads one edge-list stream in the given format,
// decompressing the gzip variants. A binary header may carry the exact
// edge count or the StreamingEdgeCount sentinel, which reads until EOF.
func ReadEdgeList(r io.Reader, f Format) (*EdgeList, error) {
	if f.Compressed() {
		gz, err := gzip.NewReader(r)
		if err != nil {
			return nil, err
		}
		defer gz.Close()
		r = gz
	}
	if f.Binary() {
		return graph.ReadEdgeListBinary(r)
	}
	return graph.ReadEdgeListText(r)
}

// ReadEdgeListFrom reads one edge-list object from a destination URI
// ("" and "-" read stdin), decompressing the gzip formats: a bare path or
// file:// reads the local filesystem, s3:// streams straight from the
// object store.
func ReadEdgeListFrom(src string, f Format) (*EdgeList, error) {
	if src == "" || src == "-" {
		return ReadEdgeList(os.Stdin, f)
	}
	be, err := storage.Resolve(src)
	if err != nil {
		return nil, err
	}
	r, err := be.Open(src)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return ReadEdgeList(r, f)
}
