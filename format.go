package kagen

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"os"

	"repro/internal/graph"
)

// Format identifies a streaming edge-list encoding. The gzip-compressed
// variants are first-class formats: long streaming runs write them
// directly (no recompression pass), and every edge reader in the
// repository — ReadEdgeList, cmd/validate — decompresses them
// transparently. Compressed binary streams carry the StreamingEdgeCount
// sentinel in their header (the count cannot be patched into compressed
// bytes), which ReadEdgeListBinary reads as until-EOF framing.
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
// ReadEdgeListBinary.
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
// the one place the level is chosen: a job shard's chunk members and
// NewFormatSink's stream are both written through it, and Reset keeps the
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

// NewFormatSink returns a Sink writing the format to w. It is the
// io.Writer-level primitive under OpenSink — use it when the bytes go
// into an existing writer (an HTTP response, a pipe); use OpenSink when
// they go to a destination URI. The plain binary
// format patches the true edge count into the header at Close when w
// supports random-access writes and falls back to the StreamingEdgeCount
// sentinel otherwise. The probe matters: a piped stdout is an *os.File
// that satisfies io.WriteSeeker but fails every Seek, and a shell
// `>> file` redirect seeks fine but silently redirects the Close-time
// header patch to EOF (O_APPEND) — both must select sentinel framing up
// front rather than surface as a corrupt file or a lost run at Close.
// The compressed formats always use sentinel framing.
func NewFormatSink(w io.Writer, f Format) Sink {
	if f == FormatBinary {
		if ws, ok := w.(io.WriteSeeker); ok && seekPatchable(ws) {
			return &binarySink{streamSink: streamSink{format: f, bw: bufio.NewWriterSize(ws, 1<<20)}, ws: ws}
		}
	}
	s := &streamSink{format: f}
	if f.Compressed() {
		s.gz = f.NewGzipWriter(w)
		w = s.gz
	}
	s.bw = bufio.NewWriterSize(w, 1<<20)
	return s
}

// ReadEdgeList reads one edge-list stream in the given format,
// decompressing the gzip variants.
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
		return ReadEdgeListBinary(r)
	}
	return ReadEdgeListText(r)
}

// ReadEdgeListFile reads one edge-list file in the given format.
// ReadEdgeListFrom is the same over any destination URI.
func ReadEdgeListFile(path string, f Format) (*EdgeList, error) {
	return ReadEdgeListFrom(path, f)
}

// seekPatchable reports whether ws supports the seek-back header patch:
// Seek must work (rules out pipes and terminals) and, for an *os.File,
// positioned writes must not be redirected to EOF by append mode (an
// empty WriteAt is a no-op on a regular file but fails immediately on a
// file opened with O_APPEND).
func seekPatchable(ws io.WriteSeeker) bool {
	if _, err := ws.Seek(0, io.SeekCurrent); err != nil {
		return false
	}
	if f, ok := ws.(*os.File); ok {
		if _, err := f.WriteAt(nil, 0); err != nil {
			return false
		}
	}
	return true
}
