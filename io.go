package kagen

import (
	"encoding/binary"
	"io"
	"strconv"

	"repro/internal/graph"
)

// WriteMetis writes METIS adjacency format (undirected interpretation; the
// list must contain both orientations of every edge, which is the native
// output convention of the undirected generators).
func WriteMetis(w io.Writer, e *EdgeList) error {
	return graph.WriteMetis(w, e)
}

// --- streaming sinks ---

// Sink consumes the edge stream of StreamChunksFrom: Begin once, then for
// each PE in increasing PE order zero or more Batch calls (non-empty, in
// emission order) followed by exactly one EndPE call, then Close. A batch
// slice is only valid during the call — it is recycled into the
// pipeline's pool as soon as Batch returns.
//
// Files and pipes are written by internal/job's Stream, not by a Sink.
// Sink and StreamChunksFrom remain for bench/'s batch hand-off replay
// alone, and go once that replays through EmitChunk.
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
