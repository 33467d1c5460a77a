package kagen

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"

	"repro/internal/graph"
	"repro/internal/storage"
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

// ShardedSink writes one self-contained edge-list file per PE under a
// destination — a directory, or an object-store prefix when the
// destination is a URI: <prefix>-pe<id>.<ext>, each readable with
// ReadEdgeList and carrying the global vertex count — the per-PE
// partitioned output a distributed consumer expects. All four streaming
// formats are supported; compressed shards are gzipped whole. Each shard
// is written incrementally batch by batch: a shard object is created at
// the PE's first batch and finalized at its EndPE, so no chunk is ever
// held in memory. Shards are created exclusively: a pre-existing shard
// at the destination is an error, never a silent truncate. Plain binary
// shards get their edge count patched into the header at EndPE when the
// backend's writer supports it (the filesystem's staging file does);
// otherwise — and always for text and compressed shards — the streaming
// header the readers accept is used.
type ShardedSink struct {
	dest   string
	prefix string
	format Format
	be     storage.Backend
	n      uint64

	w       storage.Writer
	gz      *gzip.Writer
	bw      *bufio.Writer
	patch   bool   // open shard's header count is patched at EndPE
	count   uint64 // edges written to the open shard
	scratch []byte
}

// ShardPath returns the destination of one PE's shard.
func (s *ShardedSink) ShardPath(pe uint64) string {
	return shardDest(s.dest, s.prefix, pe, s.format)
}

// Begin prepares the shard directory.
func (s *ShardedSink) Begin(n, pes uint64) error {
	s.n = n
	return s.be.EnsureDir(s.dest)
}

// openShard starts the PE's shard object and writes its header.
func (s *ShardedSink) openShard(pe uint64) error {
	w, err := s.be.Create(s.ShardPath(pe), true)
	if err != nil {
		return err
	}
	s.w = w
	var target io.Writer = w
	if s.format.Compressed() {
		if s.gz == nil {
			s.gz = gzip.NewWriter(target)
		} else {
			s.gz.Reset(target)
		}
		target = s.gz
	}
	if s.bw == nil {
		s.bw = bufio.NewWriterSize(target, 1<<20)
	} else {
		s.bw.Reset(target)
	}
	s.count = 0
	s.patch = false
	if s.format == FormatBinary {
		if ws, ok := w.(io.WriteSeeker); ok && seekPatchable(ws) {
			s.patch = true
		}
	}
	if s.patch {
		// Seekable plain binary: placeholder count, patched at EndPE.
		_, err = s.bw.Write(appendBinaryHeader(s.scratch[:0], s.n, 0))
		s.scratch = s.scratch[:0]
	} else {
		buf := s.format.AppendHeader(s.scratch[:0], s.n)
		s.scratch = buf[:0]
		_, err = s.bw.Write(buf)
	}
	return err
}

// Batch appends one batch to the PE's shard, opening it first if this is
// the PE's first batch.
func (s *ShardedSink) Batch(pe uint64, edges []Edge) error {
	if s.w == nil {
		if err := s.openShard(pe); err != nil {
			return err
		}
	}
	s.count += uint64(len(edges))
	frame := s.format.AppendEdges(s.scratch[:0], edges)
	s.scratch = frame[:0]
	_, err := s.bw.Write(frame)
	return err
}

// EndPE finalizes the PE's shard: it flushes the buffered edges, finishes
// the gzip stream of a compressed shard, patches the plain-binary edge
// count, and publishes the object. A PE without any batches still
// produces a complete (empty) shard. If finalization fails the partial
// object is aborted — a shard at the destination is always complete.
func (s *ShardedSink) EndPE(pe uint64) error {
	if s.w == nil {
		if err := s.openShard(pe); err != nil {
			return err
		}
	}
	err := s.bw.Flush()
	if s.format.Compressed() {
		if cerr := s.gz.Close(); err == nil {
			err = cerr
		}
	}
	if err == nil && s.patch {
		ws := s.w.(io.WriteSeeker)
		if _, serr := ws.Seek(8, io.SeekStart); serr != nil {
			err = fmt.Errorf("kagen: sharded sink cannot patch edge count: %w", serr)
		} else {
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], s.count)
			if _, err = ws.Write(buf[:]); err == nil {
				_, err = ws.Seek(0, io.SeekEnd)
			}
		}
	}
	w := s.w
	s.w = nil
	if err != nil {
		w.Abort() // best effort: never leave a truncated shard behind
		return err
	}
	return w.Finalize()
}

// Close handles a shard left open by an aborted run: the partial object
// is aborted, so an abort never leaves a shard that would later read
// back as a valid (but truncated or empty) edge list.
func (s *ShardedSink) Close() error {
	if s.w == nil {
		return nil
	}
	err := s.w.Abort()
	s.w = nil
	return err
}

// ReadShardedEdgeList reads the shard files written by a ShardedSink with
// the given directory, prefix and format, and merges them in PE order.
// ReadShardedEdgeListFrom is the same over any destination URI.
func ReadShardedEdgeList(dir, prefix string, format Format, pes uint64) (*EdgeList, error) {
	return ReadShardedEdgeListFrom(dir, prefix, format, pes)
}
