package job

import (
	"encoding/binary"
	"io"
	"os"

	kagen "repro"
	"repro/internal/pe"
)

// Stream writes every chunk of streamer into out as one edge-list stream
// of format — a merge without shards — and returns the edge count. The
// header goes first, then each chunk as the job's chunk encoders produce
// it: the goroutines (0 = GOMAXPROCS) generate, encode and, for .gz, gzip
// whole chunks in parallel, and pe.Ordered writes their blocks into out
// in chunk order. The head chunk's blocks reach out while it generates,
// and the chunks behind it queue whole up to pe.QueueBudget blocks
// (64 MiB), so large chunks generate in parallel and memory is a bounded
// number of blocks, never a chunk larger than the budget.
//
// The bytes are Merge's for a one-chunk-per-PE job of the same instance,
// with one exception: plain binary carries the exact edge count only
// where out can take it at the end — a seekable writer not in append
// mode, such as a file or a storage single-shot writer — and the
// StreamingEdgeCount sentinel otherwise (a pipe, `>> file`). A .gz
// stream is one gzip member for the header and one per non-empty chunk.
//
// The zero Format encodes and writes nothing: Stream then generates and
// counts. The first chunk or write error ends the run; what reached out
// before it stays there, so a caller that must not publish a partial
// stream writes through storage.WriteObject.
func Stream(streamer kagen.Streamer, format kagen.Format, out io.Writer, goroutines int) (edges uint64, err error) {
	encs := newChunkEncoders(format, goroutines)
	for i := range encs.enc {
		encs.enc[i].noDigest = true
	}
	patchAt := int64(-1)
	if format != "" {
		if format == kagen.FormatBinary {
			patchAt = countOffset(out)
		}
		if _, err := encs.enc[0].encodeHeader(out, streamer.N()); err != nil {
			return 0, err
		}
	}
	err = pe.Ordered(0, int(streamer.PEs()), len(encs.enc),
		func(worker, chunk int, send func(*block, bool) bool) {
			enc := &encs.enc[worker]
			enc.begin(send, false)
			send(enc.finish(streamer.EmitChunk(uint64(chunk), &enc.em)), true)
		},
		func(_ int, b *block, final bool) error {
			if final && b.err != nil {
				return b.err
			}
			if _, err := out.Write(b.buf[:b.n]); err != nil {
				return err
			}
			if final {
				edges += b.edges
			}
			return nil
		},
		encs.blocks.put)
	if err != nil || patchAt < 0 {
		return edges, err
	}
	ws := out.(io.WriteSeeker)
	if _, err := ws.Seek(patchAt, io.SeekStart); err != nil {
		return edges, err
	}
	if _, err := ws.Write(binary.LittleEndian.AppendUint64(nil, edges)); err != nil {
		return edges, err
	}
	_, err = ws.Seek(0, io.SeekEnd)
	return edges, err
}

// countOffset returns where plain binary's header edge count will sit in
// out, or -1 if out cannot take the patch at the end. Seek must work,
// which rules out pipes and terminals, and an *os.File must not be in
// append mode, which sends positioned writes to EOF: an empty WriteAt is
// a no-op on a regular file but fails at once under O_APPEND.
func countOffset(out io.Writer) int64 {
	ws, ok := out.(io.WriteSeeker)
	if !ok {
		return -1
	}
	at, err := ws.Seek(0, io.SeekCurrent)
	if err != nil {
		return -1
	}
	if f, ok := out.(*os.File); ok {
		if _, err := f.WriteAt(nil, 0); err != nil {
			return -1
		}
	}
	return at + 8
}
