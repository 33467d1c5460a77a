package job

import (
	"bufio"
	"compress/gzip"
	"crypto/sha256"
	"fmt"
	"hash"
	"io"

	kagen "repro"
	"repro/internal/merkle"
	"repro/internal/storage"
)

// ShardPath returns the shard object of one PE inside a job directory.
// Shards are globally numbered across workers, so merged output never
// depends on which worker produced a shard.
func ShardPath(dir string, pe uint64, format kagen.Format) string {
	return storage.Join(dir, "shards", fmt.Sprintf("pe%05d.%s", pe, format.Ext()))
}

// shardWriter writes one PE's shard with chunk-granular durability on
// top of a backend ShardWriter. Two properties make reopening a
// partially written shard safe:
//
//  1. The header is final from the start. Binary shards carry the
//     StreamingEdgeCount sentinel instead of a patched edge count, so no
//     writer ever needs to seek back into committed bytes.
//  2. Committed bytes are only ever appended to. Checkpoint flushes
//     everything written so far into the backend and commits it as one
//     chunk; for compressed shards it also finishes the current gzip
//     member, so the offset falls on a member boundary and truncating to
//     it leaves a well-formed gzip stream. On the filesystem a commit is
//     an fsync; on S3 the committed chunk joins the pending multipart
//     part, and durability (Durable) arrives when its part's upload
//     completes. Resume discards anything past the last durable offset
//     and appends, for compressed shards as a fresh member (concatenated
//     gzip members are one valid stream).
//
// Because every run checkpoints after every chunk, member boundaries are
// a pure function of the spec, and a resumed shard is byte-identical to
// an uninterrupted one.
type shardWriter struct {
	format kagen.Format
	sw     storage.ShardWriter
	cw     countingWriter
	*shardBufs
	// needReset marks the gzip member closed by the last checkpoint; the
	// next write starts a fresh member.
	needReset bool
	// dirty marks bytes written since the last checkpoint.
	dirty bool
}

// shardBufs holds the allocations of a shardWriter that can outlive one
// shard: the 1 MiB write buffer, the encode scratch, the hashers and the
// gzip state. A worker writes its PEs' shards one after another, so
// runWorker owns one zero-valued set and every shardWriter it opens
// resets and reuses it instead of allocating ~1 MiB afresh per PE.
type shardBufs struct {
	bw      *bufio.Writer
	gz      *gzip.Writer // compressed formats only
	scratch []byte
	// h accumulates the SHA-256 of the payload bytes (the format
	// encoding, before compression) written since the last checkpoint —
	// the chunk digest the manifest's Merkle tree is built over. Hashing
	// pre-compression bytes keeps the digest a pure function of the spec:
	// verify can re-derive it from a regenerated chunk without caring
	// which gzip implementation wrote the member.
	h hash.Hash
	// wire is the countingWriter's hasher (compressed formats only).
	wire hash.Hash
}

// countingWriter tracks the committed-plus-inflight byte offset of the
// backend writer and, for compressed shards, hashes the wire bytes on
// the way through: the backend's part checksums are over wire bytes,
// which for a compressed format differ from the payload the Merkle
// digest covers. Plain formats leave h nil — there the payload digest
// is the wire digest and is reused verbatim, so the hot path never
// hashes the same bytes twice.
type countingWriter struct {
	w io.Writer
	h hash.Hash
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	if c.h != nil && n > 0 {
		c.h.Write(p[:n])
	}
	c.n += int64(n)
	return n, err
}

// createShard starts a fresh shard through the backend: it writes the
// format header and commits it as checkpoint zero, returning the writer
// and the committed header offset.
func createShard(store storage.Backend, path string, format kagen.Format, n uint64, bufs *shardBufs) (*shardWriter, int64, error) {
	sw, err := store.CreateShard(path)
	if err != nil {
		return nil, 0, err
	}
	w := &shardWriter{format: format, shardBufs: bufs}
	w.init(sw, 0)
	if err := w.write(format.AppendHeader(nil, n)); err != nil {
		sw.Close()
		return nil, 0, err
	}
	off, _, err := w.Checkpoint()
	if err != nil {
		sw.Close()
		return nil, 0, err
	}
	return w, off, nil
}

// reopenShard resumes a partially written shard at the last durable
// offset: the filesystem truncates any torn tail away, S3 reattaches to
// the multipart upload whose parts sum to the offset. A
// storage.ErrNoShard means no resumable state survives and the caller
// must reset the PE and regenerate.
func reopenShard(store storage.Backend, path string, format kagen.Format, offset int64, bufs *shardBufs) (*shardWriter, error) {
	sw, err := store.ResumeShard(path, offset)
	if err != nil {
		return nil, err
	}
	w := &shardWriter{format: format, shardBufs: bufs}
	w.init(sw, offset)
	return w, nil
}

// init points the writer (and its possibly recycled buffers, whose
// leftover state from the previous shard is discarded) at a backend shard
// writer positioned at byte off.
func (w *shardWriter) init(sw storage.ShardWriter, off int64) {
	w.sw = sw
	w.cw = countingWriter{w: sw, n: off}
	if w.h == nil {
		w.h = sha256.New()
		w.bw = bufio.NewWriterSize(nil, 1<<20)
	}
	w.h.Reset()
	var target io.Writer = &w.cw
	if w.format.Compressed() {
		if w.gz == nil {
			w.wire = sha256.New()
			w.gz = gzip.NewWriter(nil)
		}
		w.wire.Reset()
		w.gz.Reset(&w.cw)
		w.cw.h = w.wire
		target = w.gz
	}
	w.bw.Reset(target)
}

func (w *shardWriter) write(p []byte) error {
	if len(p) == 0 {
		return nil
	}
	if w.needReset {
		w.gz.Reset(&w.cw)
		w.needReset = false
	}
	w.dirty = true
	w.h.Write(p)
	_, err := w.bw.Write(p)
	return err
}

// AppendBatch encodes one batch of edges in the shard format and buffers
// it for the next checkpoint.
func (w *shardWriter) AppendBatch(edges []kagen.Edge) error {
	buf := w.format.AppendEdges(w.scratch[:0], edges)
	w.scratch = buf[:0]
	return w.write(buf)
}

// offset returns the committed-plus-inflight byte offset.
func (w *shardWriter) offset() int64 { return w.cw.n }

// Checkpoint commits everything written since the last checkpoint as one
// chunk and returns the committed byte offset plus the SHA-256 digest of
// the chunk's payload bytes — its Merkle leaf. For compressed shards it
// finishes the current gzip member so the offset is a valid truncation
// point. The backend receives the chunk's wire digest as the commit
// checksum: for plain formats that is the payload digest itself, reused
// with zero extra hashing; for compressed formats it is the member hash
// the countingWriter accumulated in passing. A checkpoint with nothing
// written since the last one (an empty chunk) is free, returns the
// unchanged offset, and digests the empty payload.
func (w *shardWriter) Checkpoint() (int64, merkle.Digest, error) {
	var d merkle.Digest
	if !w.dirty {
		w.h.Sum(d[:0]) // hasher already reset: the empty-payload digest
		return w.cw.n, d, nil
	}
	if err := w.bw.Flush(); err != nil {
		return 0, d, err
	}
	if w.format.Compressed() {
		if err := w.gz.Close(); err != nil {
			return 0, d, err
		}
		w.needReset = true
	}
	w.dirty = false
	w.h.Sum(d[:0])
	w.h.Reset()
	wire := [32]byte(d)
	if w.cw.h != nil {
		w.cw.h.Sum(wire[:0])
		w.cw.h.Reset()
	}
	off, err := w.sw.Commit(wire)
	if err != nil {
		return 0, d, err
	}
	return off, d, nil
}

// Durable returns the contiguous committed prefix the backend is known
// to hold — what checkpoint manifests may record.
func (w *shardWriter) Durable() (int64, error) { return w.sw.Durable() }

// Finalize publishes the shard (S3: CompleteMultipartUpload; filesystem:
// a final sync — shards live at their destination from the first byte)
// and releases the writer.
func (w *shardWriter) Finalize() error {
	if w.sw == nil {
		return nil
	}
	err := w.sw.Finalize()
	if cerr := w.sw.Close(); err == nil {
		err = cerr
	}
	w.sw = nil
	return err
}

// Close releases the writer, keeping committed state resumable. Bytes
// buffered since the last checkpoint are deliberately dropped, not
// flushed: only checkpointed state is meaningful, and a resume discards
// anything past it anyway.
func (w *shardWriter) Close() error {
	if w.sw == nil {
		return nil
	}
	err := w.sw.Close()
	w.sw = nil
	return err
}
