package job

import (
	"bufio"
	"compress/gzip"
	"crypto/sha256"
	"errors"
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

// shardWriter is the ordered stage's end of one PE's shard: it appends
// finished blocks to a backend ShardWriter and commits chunk by chunk.
// The bytes arrive encoded, digested and compressed by the chunk encoder
// of whichever goroutine generated the chunk; nothing here looks inside
// them. Two properties make reopening a partially written shard safe:
//
//  1. The header is final from the start. Binary shards carry the
//     StreamingEdgeCount sentinel instead of a patched edge count, so no
//     writer ever needs to seek back into committed bytes.
//  2. Committed bytes are only ever appended to. commit seals everything
//     written so far as one chunk; for compressed shards a chunk is one
//     whole gzip member, so the offset falls on a member boundary and
//     truncating to it leaves a well-formed gzip stream. A commit is a
//     boundary mark on every backend; durability arrives with a later
//     Sync — an fsync on the filesystem, the completed upload of the
//     chunk's multipart part on S3 — which the worker's checkpointer
//     runs beside generation. Resume discards anything past the last
//     recorded durable offset and appends, for compressed shards as a
//     fresh member (concatenated gzip members are one valid stream).
//
// Because every run commits after every chunk, whatever the cadence at
// which commits become durable, member boundaries are a pure function of
// the spec, and a resumed shard is byte-identical to an uninterrupted one.
//
// write and commit belong to the ordered stage; Sync, Finalize and Close
// to the checkpointer, Sync alone while the ordered stage still runs.
type shardWriter struct {
	sw storage.ShardWriter
	// committed is the offset of the last commit; bytes written past it
	// belong to the chunk in flight.
	committed int64
}

// createShard starts a fresh shard through the backend: the format header
// goes through enc like any chunk (see encodeHeader) and is committed as
// checkpoint zero. It returns the writer and the committed header offset.
// The pipeline is not running yet, so the caller may lend any of the
// worker's encoders.
func createShard(store storage.Backend, path string, n uint64, enc *chunkEncoder) (*shardWriter, int64, error) {
	sw, err := store.CreateShard(path)
	if err != nil {
		return nil, 0, err
	}
	w := &shardWriter{sw: sw}
	t, err := enc.encodeHeader(sw, n)
	var off int64
	if err == nil {
		off, err = w.commit(&t)
	}
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
func reopenShard(store storage.Backend, path string, offset int64) (*shardWriter, error) {
	sw, err := store.ResumeShard(path, offset)
	if err != nil {
		return nil, err
	}
	return &shardWriter{sw: sw, committed: offset}, nil
}

// write appends wire bytes of the chunk in flight.
func (w *shardWriter) write(p []byte) error {
	_, err := w.sw.Write(p)
	return err
}

// commit seals everything written since the last commit as one chunk and
// returns the committed byte offset. The backend receives the chunk's
// wire digest as the commit checksum, exactly as the encoder computed it.
// An empty chunk wrote nothing and commits nothing: its checkpoint is
// free and the offset unchanged.
func (w *shardWriter) commit(t *chunkTrailer) (int64, error) {
	if t.wireBytes == 0 {
		return w.committed, nil
	}
	off, err := w.sw.Commit(t.wire)
	if err != nil {
		return 0, err
	}
	w.committed = off
	return off, nil
}

// Sync hardens what is committed and returns the contiguous committed
// prefix the backend durably holds — what checkpoint manifests may record.
func (w *shardWriter) Sync() (int64, error) { return w.sw.Sync() }

// Finalize publishes the shard (S3: CompleteMultipartUpload; filesystem:
// a final sync, free when a Sync already covered everything — shards live
// at their destination from the first byte) and releases the writer.
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
// written since the last commit are deliberately left uncommitted: only
// checkpointed state is meaningful, and a resume discards anything past
// it anyway.
func (w *shardWriter) Close() error {
	if w.sw == nil {
		return nil
	}
	err := w.sw.Close()
	w.sw = nil
	return err
}

// readAhead bounds a shardReader's read-ahead buffer, which grows to the
// largest segment read: one pread, or one ranged GET on an object store.
const readAhead = 1 << 20

// errStopped ends an emitting read whose run has already failed.
var errStopped = errors.New("job: run stopped")

// shardReader reads committed segments of shards back and digests their
// payload — the bytes themselves, or for a compressed format what their
// gzip members inflate to: the shard check of Merge, Verify and the
// resume audit. One reader serves one goroutine for a whole pass, keeping
// the open shard, read-ahead buffer, decompressor and hash, so a segment
// costs no allocation. Raw bytes are read into blocks and digested from
// there, and every full block goes to send: Merge's passes it on, so the
// read that checks a segment also copies it; a checking reader's hands
// it straight back.
type shardReader struct {
	store   storage.Backend
	format  kagen.Format
	blocks  *blockList
	send    func(*block, bool) bool
	path    string // the open shard
	f       storage.Reader
	src     *bufio.Reader // the segment being read
	hash    hash.Hash
	gz      *gzip.Reader
	scratch []byte // decompressed bytes on their way into hash
	cur     *block // where raw bytes land
	pos     int    // bytes of cur already digested
}

// checkingReader returns a reader that only checks segments, recycling
// one block of its own.
func checkingReader(store storage.Backend, format kagen.Format) shardReader {
	blocks := new(blockList)
	return shardReader{store: store, format: format, hash: sha256.New(), blocks: blocks, cur: blocks.get(),
		send: func(b *block, _ bool) bool { blocks.put(b); return true }}
}

// open makes path the reader's shard, keeping it if it already is.
func (r *shardReader) open(path string) error {
	if r.f != nil && r.path == path {
		return nil
	}
	r.close()
	f, err := r.store.Open(path)
	if err != nil {
		return err
	}
	r.f, r.path = f, path
	return nil
}

func (r *shardReader) close() {
	if r.f != nil {
		r.f.Close()
		r.f = nil
	}
}

// digest reads the open shard's segment [start, end) into cur and returns
// the SHA-256 of its payload: the chunk digest a manifest records for it.
// A segment reaching past the end of the shard fails with io.EOF before
// anything is read.
func (r *shardReader) digest(start, end int64) (d merkle.Digest, err error) {
	if end < start {
		return d, fmt.Errorf("inverted segment [%d,%d)", start, end)
	}
	if end > r.f.Size() {
		return d, io.EOF
	}
	if size := int(min(end-start, readAhead)); r.src == nil || r.src.Size() < size {
		r.src = bufio.NewReaderSize(nil, size)
	}
	r.src.Reset(io.NewSectionReader(r.f, start, end-start))
	r.hash.Reset()
	r.pos = r.cur.n
	if r.format.Compressed() && end > start {
		err = r.inflate()
	} else {
		for err == nil {
			if err = r.fill(); err == nil {
				r.hash.Write(r.cur.buf[r.pos:r.cur.n])
				r.pos = r.cur.n
			}
		}
		if err == io.EOF {
			err = nil
		}
	}
	r.hash.Sum(d[:0])
	return d, err
}

// inflate feeds what the segment's gzip members decompress to into hash.
// The decompressor reads the raw bytes straight out of the blocks.
func (r *shardReader) inflate() error {
	var err error
	if r.gz == nil {
		r.gz, err = gzip.NewReader(r)
		r.scratch = make([]byte, 32<<10)
	} else {
		err = r.gz.Reset(r)
	}
	if err == nil {
		_, err = io.CopyBuffer(r.hash, r.gz, r.scratch)
	}
	return err
}

// Read and ReadByte serve the decompressor the segment's raw bytes.
func (r *shardReader) Read(p []byte) (int, error) {
	if r.pos == r.cur.n {
		if err := r.fill(); err != nil {
			return 0, err
		}
	}
	n := copy(p, r.cur.buf[r.pos:r.cur.n])
	r.pos += n
	return n, nil
}

func (r *shardReader) ReadByte() (byte, error) {
	if r.pos == r.cur.n {
		if err := r.fill(); err != nil {
			return 0, err
		}
	}
	c := r.cur.buf[r.pos]
	r.pos++
	return c, nil
}

// fill reads more of the segment into cur, sending it first and taking a
// fresh block if it is full.
func (r *shardReader) fill() error {
	if r.cur.n == blockSize {
		live := r.send(r.cur, false)
		r.cur, r.pos = r.blocks.get(), 0
		if !live {
			return errStopped
		}
	}
	n, err := r.src.Read(r.cur.buf[r.cur.n:])
	r.cur.n += n
	if n > 0 {
		return nil
	}
	if err == nil {
		err = io.ErrNoProgress
	}
	return err
}
