package job

import (
	"fmt"

	kagen "repro"
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
// goes through enc like any chunk (for a compressed format it is a gzip
// member of its own) and is committed as checkpoint zero. It returns the
// writer and the committed header offset. The pipeline is not running
// yet, so the caller may lend any of the worker's encoders.
func createShard(store storage.Backend, path string, format kagen.Format, n uint64, enc *chunkEncoder) (*shardWriter, int64, error) {
	sw, err := store.CreateShard(path)
	if err != nil {
		return nil, 0, err
	}
	w := &shardWriter{sw: sw}
	enc.begin(func(b *block, _ bool) bool {
		if err == nil {
			err = w.write(b.buf[:b.n])
		}
		enc.blocks.put(b)
		return err == nil
	}, false)
	enc.writePayload(format.AppendHeader(nil, n))
	last := enc.finish(nil)
	if err == nil {
		err = w.write(last.buf[:last.n])
	}
	var off int64
	if err == nil {
		off, err = w.commit(&last.chunkTrailer)
	}
	enc.blocks.put(last)
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
