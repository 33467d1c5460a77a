package job

import (
	"compress/gzip"
	"crypto/sha256"
	"hash"
	"io"
	"runtime"
	"sync"
	"time"

	kagen "repro"
	"repro/internal/merkle"
	"repro/internal/pe"
)

// blockSize is the capacity of one block of finished wire bytes, the unit
// that crosses goroutines in a job: 64 KiB, the size of one encodeBatch of
// binary edges, so the pipeline buffers by count of blocks, never by
// chunk size.
const blockSize = 64 << 10

// encodeBatch is how many edges a chunk encoder gathers before it encodes
// them in one Format.AppendEdges call.
const encodeBatch = pe.DefaultBatchSize

// block carries finished wire bytes from the goroutine that generated a
// chunk to the ordered stage that writes them into the shard. A chunk's
// last block also carries its trailer.
type block struct {
	n int // bytes of buf in use
	chunkTrailer
	buf [blockSize]byte
}

// chunkTrailer is what the ordered stage needs to commit a chunk, all of
// it computed where the chunk was generated.
type chunkTrailer struct {
	// payload is the SHA-256 of the chunk's payload bytes (the format
	// encoding, before compression) — the chunk digest the manifest's
	// Merkle tree is built over. Hashing pre-compression bytes keeps the
	// digest a pure function of the spec: verify can re-derive it from a
	// regenerated chunk without caring which gzip implementation wrote
	// the member.
	payload merkle.Digest
	// wire is the SHA-256 of the chunk's wire bytes, which the backend
	// receives as the commit checksum. For a plain format the wire bytes
	// are the payload, so this is a copy of payload and the bytes are
	// hashed once; for a compressed format it is the hash of the gzip
	// member.
	wire         [32]byte
	edges        uint64
	payloadBytes uint64
	wireBytes    uint64 // 0 for an empty chunk: nothing to write or commit
	// err is the failure of the chunk's generation; the ordered stage
	// returns it when it reaches the chunk, so chunks before it commit and
	// the chunk itself does not.
	err error
}

// freeBlocks holds the blocks no pipeline is using. A block is fixed-size
// and carries nothing from one use to the next — get clears its header and
// only the n bytes written since are read — so every pipeline of the
// process takes from and gives back to this one list: blocks outlive the
// worker, Stream, Merge or Verify pass that made them, and the next run in
// the process starts with them. The list holds at most what the process's
// pipelines held at once: pe.QueueBudget + G + 1 blocks, 64 MiB and a few
// blocks, for each pipeline of G goroutines that ran at once. It is not a
// sync.Pool: under the race detector a Pool drops a quarter of its puts,
// so a steady state that allocates nothing could not be tested there.
var freeBlocks struct {
	mu   sync.Mutex
	list []*block
}

// blockList is one pipeline's door to freeBlocks. Producers get and the
// ordered stage puts, on different goroutines; it counts the blocks the
// pipeline holds and the most it held at once, so tests can check that
// every block comes back and that the queue budget bounds them.
type blockList struct {
	taken int // blocks got and not yet put; guarded by freeBlocks.mu
	peak  int // the most blocks taken at once; guarded by freeBlocks.mu
}

func (l *blockList) get() *block {
	var b *block
	freeBlocks.mu.Lock()
	if n := len(freeBlocks.list); n > 0 {
		b, freeBlocks.list = freeBlocks.list[n-1], freeBlocks.list[:n-1]
	}
	l.taken++
	l.peak = max(l.peak, l.taken)
	freeBlocks.mu.Unlock()
	if b == nil {
		return new(block)
	}
	b.n, b.chunkTrailer = 0, chunkTrailer{}
	return b
}

func (l *blockList) put(b *block) {
	freeBlocks.mu.Lock()
	freeBlocks.list = append(freeBlocks.list, b)
	l.taken--
	freeBlocks.mu.Unlock()
}

// chunkEncoders is the encoding state of one worker: one chunk encoder per
// pipeline goroutine and the block list they share. runWorker owns
// one for all its PEs, Stream and Verify one for their pass; encoders
// initialise on first use, so a goroutine that never gets a chunk costs
// nothing.
type chunkEncoders struct {
	enc    []chunkEncoder
	blocks blockList
}

// newChunkEncoders returns the encoders of a worker whose pipeline runs
// on the given number of goroutines (0 = GOMAXPROCS).
func newChunkEncoders(format kagen.Format, goroutines int) *chunkEncoders {
	if goroutines <= 0 {
		goroutines = runtime.GOMAXPROCS(0)
	}
	s := &chunkEncoders{enc: make([]chunkEncoder, goroutines)}
	for i := range s.enc {
		s.enc[i].format, s.enc[i].blocks = format, &s.blocks
	}
	return s
}

// chunkEncoder turns one chunk at a time into finished wire bytes on the
// goroutine that generates it: format encode, payload SHA-256, and for a
// compressed format the chunk's gzip member and its wire SHA-256. The
// bytes leave through send in fixed-size blocks; the last block carries
// the chunk's trailer. Everything here is a pure function of the chunk,
// which is why it needs no ordering; compress/flate output does not
// depend on how the input is split over Write calls, so neither the
// goroutine count nor the block size can change a byte.
//
// An encoder is reused for every chunk its goroutine generates, across
// PEs, and so is its Emitter: the generator's batch is the encoder's, and
// the generator's scratch (the spatial models' cell arena) stays in the
// Emitter from chunk to chunk. In steady state a chunk allocates nothing.
type chunkEncoder struct {
	format  kagen.Format
	blocks  *blockList
	em      kagen.Emitter // what the generator streams into; flushes to encode
	flush   func([]kagen.Edge) ([]kagen.Edge, bool)
	scratch []byte
	// noDigest leaves the trailer's digests zero, for Stream: its chunks
	// are recorded in no manifest, so it skips hashing every byte.
	noDigest bool
	payload  hash.Hash    // nil under noDigest
	wire     hash.Hash    // compressed formats only; nil under noDigest
	gz       *gzip.Writer // compressed formats only

	// Per-chunk state, set by begin.
	send     func(*block, bool) bool
	cur      *block
	t        chunkTrailer
	live     bool // send has not reported a failed run
	timed    bool
	encodeNs int64 // time inside the encoder, hand-off waits excluded (timed only)

	// encodeTo's destination, the first error writing to it, and the send
	// that writes there (built once: a chunk allocates nothing).
	out    io.Writer
	outErr error
	toOut  func(*block, bool) bool
}

// begin starts a chunk whose blocks go to send. timed makes the encoder
// account the time it spends encoding (for the trace); the untimed path
// never reads the clock.
func (e *chunkEncoder) begin(send func(*block, bool) bool, timed bool) {
	batch := e.em.Edges()
	if e.flush == nil {
		batch = make([]kagen.Edge, 0, encodeBatch)
		e.flush = e.encodeEdges
		if e.format == "" {
			e.flush = e.countEdges
		}
		if !e.noDigest {
			e.payload = sha256.New()
			if e.format.Compressed() {
				e.wire = sha256.New()
			}
		}
		if e.format.Compressed() {
			e.gz = e.format.NewGzipWriter(nil)
		}
	}
	if e.payload != nil {
		e.payload.Reset()
	}
	if e.wire != nil {
		e.wire.Reset()
	}
	e.em.Reset(batch, e.flush)
	e.send, e.cur, e.t, e.live = send, e.blocks.get(), chunkTrailer{}, true
	e.timed, e.encodeNs = timed, 0
}

// encodeEdges is the Emitter's flush: the batch's edges are encoded into
// the chunk's payload, and the batch goes back to the generator.
func (e *chunkEncoder) encodeEdges(batch []kagen.Edge) ([]kagen.Edge, bool) {
	e.t.edges += uint64(len(batch))
	if e.live {
		buf := e.format.AppendEdges(e.scratch[:0], batch)
		e.scratch = buf[:0]
		e.writePayload(buf)
	}
	return batch, e.live
}

// countEdges is the Emitter's flush for the zero format, which encodes
// nothing: the batch's edges are counted and dropped.
func (e *chunkEncoder) countEdges(batch []kagen.Edge) ([]kagen.Edge, bool) {
	e.t.edges += uint64(len(batch))
	return batch, e.live
}

// writePayload adds payload bytes to the chunk: hashed for the Merkle
// leaf, then compressed (the member starts with the chunk's first payload
// byte, so an empty chunk has none) or copied into blocks as they are.
func (e *chunkEncoder) writePayload(p []byte) {
	if len(p) == 0 {
		return
	}
	var t0 time.Time
	if e.timed {
		t0 = time.Now()
	}
	if e.payload != nil {
		e.payload.Write(p)
	}
	if e.gz != nil {
		if e.t.payloadBytes == 0 {
			e.gz.Reset(e)
		}
		e.gz.Write(p) // cannot fail: e.Write never does
	} else {
		e.Write(p)
	}
	e.t.payloadBytes += uint64(len(p))
	if e.timed {
		e.encodeNs += int64(time.Since(t0))
	}
}

// Write appends wire bytes to the current block, handing every block that
// fills to send. It never fails: once the run has failed the bytes are
// dropped.
func (e *chunkEncoder) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		if e.cur.n == blockSize {
			e.seal()
			var s0 time.Time
			if e.timed {
				s0 = time.Now()
			}
			e.live = e.send(e.cur, false) && e.live
			if e.timed {
				e.encodeNs -= int64(time.Since(s0)) // waiting for the sink is not encoding
			}
			e.cur = e.blocks.get()
		}
		c := copy(e.cur.buf[e.cur.n:], p)
		e.cur.n += c
		p = p[c:]
	}
	return n, nil
}

// seal accounts the current block's bytes to the chunk. Wire bytes are
// hashed a block at a time rather than in the few-hundred-byte writes the
// deflate bit writer makes.
func (e *chunkEncoder) seal() {
	if e.wire != nil {
		e.wire.Write(e.cur.buf[:e.cur.n])
	}
	e.t.wireBytes += uint64(e.cur.n)
}

// finish ends the chunk — remaining edges encoded, gzip member closed,
// digests taken — and returns its last block, trailer filled in, for the
// caller to send as final. genErr is the streamer's result for the chunk.
func (e *chunkEncoder) finish(genErr error) *block {
	e.flush(e.em.Edges())
	if e.gz != nil && e.t.payloadBytes > 0 {
		var t0 time.Time
		if e.timed {
			t0 = time.Now()
		}
		e.gz.Close() // cannot fail: e.Write never does
		if e.timed {
			e.encodeNs += int64(time.Since(t0))
		}
	}
	e.seal()
	if e.payload != nil {
		e.payload.Sum(e.t.payload[:0])
	}
	e.t.wire = e.t.payload
	if e.wire != nil {
		e.wire.Sum(e.t.wire[:0])
	}
	e.t.err = genErr
	b := e.cur
	b.chunkTrailer = e.t
	e.send, e.cur = nil, nil
	return b
}

// encodeTo runs one chunk through the encoder outside a pipeline: fill
// feeds it (through em, or writePayload), and every finished block is
// written to out (nil drops it) and handed straight back, so it holds one
// block whatever the chunk's size. It returns the chunk's trailer and
// fill's error, or else the first failed write. This is how a shard's
// header is written, and how Repair and RebuildManifest re-derive a
// chunk's exact shard bytes.
func (e *chunkEncoder) encodeTo(out io.Writer, fill func(*chunkEncoder) error) (chunkTrailer, error) {
	if e.toOut == nil {
		e.toOut = e.writeOut
	}
	e.out, e.outErr = out, nil
	e.begin(e.toOut, false)
	last := e.finish(fill(e))
	t := last.chunkTrailer
	e.toOut(last, true)
	err := t.err
	if err == nil {
		err = e.outErr
	}
	e.out = nil
	return t, err
}

// writeOut is encodeTo's send.
func (e *chunkEncoder) writeOut(b *block, _ bool) bool {
	if e.outErr == nil && e.out != nil {
		_, e.outErr = e.out.Write(b.buf[:b.n])
	}
	e.blocks.put(b)
	return e.outErr == nil
}

// encodeHeader runs a shard's format header for n vertices through
// encodeTo; for a compressed format it is a gzip member of its own.
func (e *chunkEncoder) encodeHeader(out io.Writer, n uint64) (chunkTrailer, error) {
	return e.encodeTo(out, func(e *chunkEncoder) error {
		e.writePayload(e.format.AppendHeader(nil, n))
		return nil
	})
}

// ChunkEncodeFunc is the benchmark seam of the chunk encoder for
// internal/benchreg: the returned function pushes one chunk's edges
// through an encoder of the given format exactly as a pipeline goroutine
// does — encode, digest, compress into blocks — gives the blocks straight
// back as the ordered stage would after writing them, and returns the
// chunk's wire byte count. After its first call it allocates nothing.
func ChunkEncodeFunc(format kagen.Format) func(edges []kagen.Edge) (wireBytes uint64) {
	enc := &newChunkEncoders(format, 1).enc[0]
	return func(edges []kagen.Edge) uint64 {
		// Cannot fail: nothing is written and fill returns nil.
		t, _ := enc.encodeTo(nil, func(e *chunkEncoder) error {
			for _, edge := range edges {
				e.em.Append(edge.U, edge.V)
			}
			return nil
		})
		return t.wireBytes
	}
}
