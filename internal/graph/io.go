package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ReadEdgeListText parses the text edge-list format — an optional leading
// "# n ..." comment, then one "u v" pair per line — into an EdgeList; n
// is the comment's vertex count, grown by any vertex beyond it.
func ReadEdgeListText(r io.Reader) (*EdgeList, error) {
	e := &EdgeList{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	first := true
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if first {
				fields := strings.Fields(line[1:])
				if len(fields) >= 1 {
					n, err := strconv.ParseUint(fields[0], 10, 64)
					if err != nil {
						return nil, fmt.Errorf("graph: bad header: %v", err)
					}
					e.N = n
				}
				first = false
			}
			continue
		}
		first = false
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: bad edge line %q", line)
		}
		u, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil {
			return nil, err
		}
		v, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return nil, err
		}
		e.Edges = append(e.Edges, Edge{u, v})
		if u >= e.N {
			e.N = u + 1
		}
		if v >= e.N {
			e.N = v + 1
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return e, nil
}

// StreamingEdgeCount is the sentinel edge count of the binary header for
// streamed output: a writer that cannot seek back to patch the real count
// into the header (a pipe, or a compressed stream) writes it, and readers
// consume (u, v) pairs until EOF instead of a fixed count.
const StreamingEdgeCount = ^uint64(0)

// maxPresizeEdges caps how many edges ReadEdgeListBinary reserves up front
// for a fixed-count header. The count is untrusted input: a 16-byte file
// may declare 2^60 edges. Longer lists grow by append as records arrive.
const maxPresizeEdges = 1 << 16

// ReadEdgeListBinary parses the little-endian binary edge-list format —
// n (u64), m (u64), then (u, v) pairs of u64. A fixed count reads exactly
// m records, and a body shorter than that is io.ErrUnexpectedEOF; the
// StreamingEdgeCount sentinel reads until EOF, where a trailing partial
// record is an error.
func ReadEdgeListBinary(r io.Reader) (*EdgeList, error) {
	br := bufio.NewReader(r)
	var buf [16]byte
	if _, err := io.ReadFull(br, buf[:]); err != nil {
		return nil, err
	}
	e := &EdgeList{N: binary.LittleEndian.Uint64(buf[0:])}
	m := binary.LittleEndian.Uint64(buf[8:])
	if m != StreamingEdgeCount {
		e.Edges = make([]Edge, 0, min(m, maxPresizeEdges))
	}
	for i := uint64(0); m == StreamingEdgeCount || i < m; i++ {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			if err == io.EOF {
				if m == StreamingEdgeCount {
					return e, nil
				}
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		e.Edges = append(e.Edges, Edge{U: binary.LittleEndian.Uint64(buf[0:]), V: binary.LittleEndian.Uint64(buf[8:])})
	}
	return e, nil
}

// WriteMetis writes the graph in METIS adjacency format (1-indexed,
// undirected interpretation: the list must already contain both
// orientations of every edge).
func WriteMetis(w io.Writer, e *EdgeList) error {
	csr := BuildCSR(e)
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d %d\n", e.N, len(e.Edges)/2); err != nil {
		return err
	}
	for v := uint64(0); v < e.N; v++ {
		adj := csr.Neighbors(v)
		for i, u := range adj {
			if i > 0 {
				if err := bw.WriteByte(' '); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(strconv.FormatUint(u+1, 10)); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}
