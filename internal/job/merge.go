package job

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"

	kagen "repro"
	"repro/internal/merkle"
	"repro/internal/obs"
	"repro/internal/pe"
	"repro/internal/storage"
)

// Merge streams a complete job into one edge-list stream of its format
// on out without decoding an edge: shard 0's header segment, then every
// chunk segment of every PE in PE order, copied verbatim — for .gz a
// sequence of gzip members, one valid gzip stream. Plain binary's header
// alone is rewritten, to carry the manifests' exact edge total instead of
// the sentinel, whatever out is.
//
// Every shard must be as long as its manifest records and start with the
// job's header, and every chunk's payload (decompressed, for .gz) must
// hash to its manifest digest: a chunk's last block reaches out only after
// that, and the first failure ends the merge naming the PE and chunk. The
// unit of work is the global chunk, on pe.Ordered with GOMAXPROCS
// goroutines and bounded blocks, so memory depends on neither chunk nor
// shard size. Merge refuses an incomplete job — use Inspect to report the
// gaps instead.
func Merge(dir string, out io.Writer) error {
	// Merge spans land on the process-global trace: merge runs outside
	// any worker, so there is no RunOptions to thread a trace through.
	sp := obs.Active().Start("job", "merge", obs.LaneWorker, obs.Span{})
	defer sp.End(obs.Str("dir", dir))
	store, err := storage.Resolve(dir)
	if err != nil {
		return err
	}
	spec, err := loadSpec(store, dir)
	if err != nil {
		return err
	}
	manifests, err := loadManifests(store, dir, spec)
	if err != nil {
		return err
	}
	var progs []*PEProgress
	var edges uint64
	for _, m := range manifests {
		for i := 0; m != nil && i < len(m.PEs); i++ {
			if p := &m.PEs[i]; p.Done {
				progs = append(progs, p)
				edges += p.Edges
			}
		}
	}
	if missing := spec.PEs - uint64(len(progs)); missing > 0 {
		return fmt.Errorf("job: %d of %d PEs incomplete — run or resume the missing workers before merging", missing, spec.PEs)
	}
	streamer, err := spec.Streamer()
	if err != nil {
		return err
	}
	format := spec.ShardFormat()
	header := format.AppendHeader(nil, streamer.N())
	headerDigest := sha256.Sum256(header)
	var countHeader []byte // plain binary's merged header: the exact count in place of the sentinel
	if format == kagen.FormatBinary {
		countHeader = binary.LittleEndian.AppendUint64(header[:8:8], edges)
	}

	// copyChunk copies one chunk segment into the merged stream through
	// r, checking it on the way; a PE's first chunk also checks the
	// shard's length and header.
	copyChunk := func(r *shardReader, p *PEProgress, c int) error {
		path := ShardPath(dir, p.PE, format)
		if err := r.open(path); err != nil {
			return err
		}
		if c == 0 {
			if size := r.f.Size(); size != p.Offset {
				return fmt.Errorf("shard %s holds %d bytes, the manifest records %d", path, size, p.Offset)
			}
			if d, err := r.digest(0, p.HeaderEnd); err != nil {
				return fmt.Errorf("shard %s header: %w", path, err)
			} else if d != headerDigest {
				return fmt.Errorf("shard %s header does not decode to the %s header of this job", path, format)
			}
			// A header that checks out is a few bytes, all still in cur:
			// shard 0's stays (plain binary's swapped for the one with the
			// exact count), every other shard's goes.
			if p.PE != 0 {
				r.cur.n = 0
			} else if countHeader != nil {
				r.cur.n = copy(r.cur.buf[:], countHeader)
			}
		}
		var leaf merkle.Digest
		if err := decodeDigest(p.Chunks[c].Digest, &leaf); err != nil {
			return err
		}
		start, end := p.chunkBounds(c)
		if d, err := r.digest(start, end); err != nil {
			return fmt.Errorf("shard %s bytes [%d,%d): %w", path, start, end, err)
		} else if d != leaf {
			return fmt.Errorf("shard %s bytes [%d,%d) do not reproduce the chunk digest", path, start, end)
		}
		return nil
	}
	var blocks blockList
	readers := make([]shardReader, runtime.GOMAXPROCS(0))
	for i := range readers {
		readers[i] = shardReader{store: store, format: format, hash: sha256.New(), blocks: &blocks}
	}
	cpp := spec.ChunksPerPE
	err = pe.Ordered(0, int(spec.TotalChunks()), len(readers),
		func(worker, chunk int, send func(*block, bool) bool) {
			p, c := progs[uint64(chunk)/cpp], int(uint64(chunk)%cpp)
			r := &readers[worker]
			r.send, r.cur = send, blocks.get()
			err := copyChunk(r, p, c)
			last := r.cur
			r.cur = nil
			if err != nil {
				last.err = fmt.Errorf("job: merge: PE %d chunk %d: %w", p.PE, c, err)
			}
			send(last, true)
		},
		func(_ int, b *block, final bool) error {
			if final && b.err != nil {
				return b.err
			}
			_, err := out.Write(b.buf[:b.n])
			return err
		},
		blocks.put)
	for i := range readers {
		readers[i].close()
	}
	return err
}

// MergeToFile is Merge writing to a freshly created destination, local
// or object store; nothing is visible there until the merge succeeds.
func MergeToFile(dir, path string) error {
	store, err := storage.Resolve(path)
	if err != nil {
		return err
	}
	return storage.WriteObject(store, path, func(w io.Writer) error { return Merge(dir, w) })
}
