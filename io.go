package kagen

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"

	"repro/internal/graph"
)

// WriteEdgeListText writes "# n m" followed by one "u v" pair per line.
func WriteEdgeListText(w io.Writer, e *EdgeList) error {
	return graph.WriteEdgeListText(w, e)
}

// ReadEdgeListText parses the format written by WriteEdgeListText.
func ReadEdgeListText(r io.Reader) (*EdgeList, error) {
	return graph.ReadEdgeListText(r)
}

// WriteEdgeListBinary writes a compact little-endian binary edge list.
func WriteEdgeListBinary(w io.Writer, e *EdgeList) error {
	return graph.WriteEdgeListBinary(w, e)
}

// ReadEdgeListBinary parses the format written by WriteEdgeListBinary.
func ReadEdgeListBinary(r io.Reader) (*EdgeList, error) {
	return graph.ReadEdgeListBinary(r)
}

// WriteMetis writes METIS adjacency format (undirected interpretation; the
// list must contain both orientations of every edge, which is the native
// output convention of the undirected generators).
func WriteMetis(w io.Writer, e *EdgeList) error {
	return graph.WriteMetis(w, e)
}

// --- streaming sinks ---

// Sink consumes the edge stream of a Streamer run driven by Stream:
// Begin once, then for each PE in increasing PE order zero or more Batch
// calls (non-empty, in emission order) followed by exactly one EndPE
// call, then Close. A batch slice is only valid during the call — it is
// recycled into the pipeline's pool as soon as Batch returns.
type Sink interface {
	// Begin announces the instance: n vertices, pes logical PEs.
	Begin(n, pes uint64) error
	// Batch delivers one batch of the PE's local edges.
	Batch(pe uint64, edges []Edge) error
	// EndPE marks the end of one PE's edges.
	EndPE(pe uint64) error
	// Close flushes and releases the sink. It is called exactly once,
	// also after an aborted run.
	Close() error
}

// streamSink writes a format's header and edge payload through one
// buffered writer, formatting each batch into a reusable scratch buffer
// and writing it with a single buffered write. Its header is final from
// the start — text omits the edge count, binary carries the
// StreamingEdgeCount sentinel, and readers consume until EOF — so it
// never seeks: it serves pipes and, for the compressed formats, the
// inside of a gzip stream.
type streamSink struct {
	format  Format
	bw      *bufio.Writer
	gz      *gzip.Writer // non-nil for the compressed formats
	scratch []byte
}

func (s *streamSink) Begin(n, pes uint64) error {
	return s.write(s.format.AppendHeader(s.scratch[:0], n))
}

func (s *streamSink) Batch(pe uint64, edges []Edge) error {
	return s.write(s.format.AppendEdges(s.scratch[:0], edges))
}

// EndPE is a no-op: the edge-list formats have no per-PE structure.
func (s *streamSink) EndPE(pe uint64) error { return nil }

func (s *streamSink) write(b []byte) error {
	s.scratch = b[:0]
	_, err := s.bw.Write(b)
	return err
}

// Close flushes the buffered output and finishes the gzip member.
func (s *streamSink) Close() error {
	err := s.bw.Flush()
	if s.gz != nil {
		if cerr := s.gz.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// binarySink writes the plain binary format of WriteEdgeListBinary to a
// seekable writer (for example an *os.File): a placeholder edge count at
// Begin, patched with the true count at Close.
type binarySink struct {
	streamSink
	ws    io.WriteSeeker
	count uint64
}

func (s *binarySink) Begin(n, pes uint64) error {
	return s.write(appendBinaryHeader(s.scratch[:0], n, 0))
}

func (s *binarySink) Batch(pe uint64, edges []Edge) error {
	s.count += uint64(len(edges))
	return s.streamSink.Batch(pe, edges)
}

// Close flushes the stream and patches the edge count into the header.
func (s *binarySink) Close() error {
	if err := s.bw.Flush(); err != nil {
		return err
	}
	if _, err := s.ws.Seek(8, io.SeekStart); err != nil {
		return fmt.Errorf("kagen: binary sink cannot patch edge count: %w", err)
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], s.count)
	if _, err := s.ws.Write(buf[:]); err != nil {
		return err
	}
	_, err := s.ws.Seek(0, io.SeekEnd)
	return err
}

// appendEdgeText appends "u v\n" lines for edges to buf with
// strconv.AppendUint and returns the grown buffer (the binary counterpart
// is appendEdgeBinary).
func appendEdgeText(buf []byte, edges []Edge) []byte {
	for _, e := range edges {
		buf = strconv.AppendUint(buf, e.U, 10)
		buf = append(buf, ' ')
		buf = strconv.AppendUint(buf, e.V, 10)
		buf = append(buf, '\n')
	}
	return buf
}

// appendEdgeBinary appends the 16-byte little-endian encodings of edges
// to buf, growing it as needed, and returns the grown buffer.
func appendEdgeBinary(buf []byte, edges []Edge) []byte {
	off := len(buf)
	need := off + 16*len(edges)
	if cap(buf) < need {
		grown := make([]byte, off, need)
		copy(grown, buf)
		buf = grown
	}
	buf = buf[:need]
	for i, e := range edges {
		binary.LittleEndian.PutUint64(buf[off+16*i:], e.U)
		binary.LittleEndian.PutUint64(buf[off+16*i+8:], e.V)
	}
	return buf
}

// appendBinaryHeader appends the 16-byte binary edge-list header.
func appendBinaryHeader(buf []byte, n, m uint64) []byte {
	var h [16]byte
	binary.LittleEndian.PutUint64(h[0:], n)
	binary.LittleEndian.PutUint64(h[8:], m)
	return append(buf, h[:]...)
}
