package job

import (
	"compress/gzip"
	"crypto/sha256"
	"hash"
	"runtime"
	"sync"
	"time"

	kagen "repro"
	"repro/internal/merkle"
	"repro/internal/pe"
)

// blockSize is the capacity of one block of finished wire bytes, the unit
// that crosses goroutines in a job: 64 KiB, the size of the 4096-edge
// batches kagen.Stream hands around, so the pipeline buffers what it
// always did — by count of blocks, never by chunk size.
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

// blockList is the free list of a worker's blocks. Producers take from it
// and the ordered stage gives back, on different goroutines; it lives as
// long as the worker, so after the pipeline has filled once no PE
// allocates a block.
type blockList struct {
	mu        sync.Mutex
	free      []*block
	allocated int // blocks ever made; == len(free) whenever no run is in flight
}

func (l *blockList) get() *block {
	l.mu.Lock()
	var b *block
	if n := len(l.free); n > 0 {
		b, l.free = l.free[n-1], l.free[:n-1]
	} else {
		l.allocated++
	}
	l.mu.Unlock()
	if b == nil {
		return new(block)
	}
	b.n, b.chunkTrailer = 0, chunkTrailer{}
	return b
}

func (l *blockList) put(b *block) {
	l.mu.Lock()
	l.free = append(l.free, b)
	l.mu.Unlock()
}

// chunkEncoders is the encoding state of one worker: one chunk encoder per
// pipeline goroutine and the block free list they share. runWorker owns
// one for all its PEs; encoders initialise on first use, so a goroutine
// that never gets a chunk costs nothing.
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
// PEs; in steady state a chunk allocates nothing.
type chunkEncoder struct {
	format  kagen.Format
	blocks  *blockList
	edges   []kagen.Edge
	scratch []byte
	payload hash.Hash
	wire    hash.Hash    // compressed formats only
	gz      *gzip.Writer // compressed formats only
	emit    func(kagen.Edge)

	// Per-chunk state, set by begin.
	send     func(*block, bool) bool
	cur      *block
	t        chunkTrailer
	live     bool // send has not reported a failed run
	timed    bool
	encodeNs int64 // time inside the encoder, hand-off waits excluded (timed only)
}

// begin starts a chunk whose blocks go to send. timed makes the encoder
// account the time it spends encoding (for the trace); the untimed path
// never reads the clock.
func (e *chunkEncoder) begin(send func(*block, bool) bool, timed bool) {
	if e.payload == nil {
		e.payload = sha256.New()
		e.edges = make([]kagen.Edge, 0, encodeBatch)
		e.emit = e.add
		if e.format.Compressed() {
			e.wire = sha256.New()
			e.gz = gzip.NewWriter(nil)
		}
	}
	e.payload.Reset()
	if e.wire != nil {
		e.wire.Reset()
	}
	e.send, e.cur, e.t, e.live = send, e.blocks.get(), chunkTrailer{}, true
	e.edges = e.edges[:0]
	e.timed, e.encodeNs = timed, 0
}

// add is the emit callback handed to the streamer.
func (e *chunkEncoder) add(edge kagen.Edge) {
	e.edges = append(e.edges, edge)
	if len(e.edges) == cap(e.edges) {
		e.flushEdges()
	}
}

func (e *chunkEncoder) flushEdges() {
	e.t.edges += uint64(len(e.edges))
	if e.live {
		buf := e.format.AppendEdges(e.scratch[:0], e.edges)
		e.scratch = buf[:0]
		e.writePayload(buf)
	}
	e.edges = e.edges[:0]
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
	e.payload.Write(p)
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
	e.flushEdges()
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
	e.payload.Sum(e.t.payload[:0])
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

// ChunkEncodeFunc is the benchmark seam of the chunk encoder for
// internal/benchreg: the returned function pushes one chunk's edges
// through an encoder of the given format exactly as a pipeline goroutine
// does — encode, digest, compress into blocks — gives the blocks straight
// back as the ordered stage would after writing them, and returns the
// chunk's wire byte count. After its first call it allocates nothing.
func ChunkEncodeFunc(format kagen.Format) func(edges []kagen.Edge) (wireBytes uint64) {
	encs := newChunkEncoders(format, 1)
	enc := &encs.enc[0]
	recycle := func(b *block, _ bool) bool {
		encs.blocks.put(b)
		return true
	}
	return func(edges []kagen.Edge) uint64 {
		enc.begin(recycle, false)
		for _, e := range edges {
			enc.emit(e)
		}
		last := enc.finish(nil)
		n := last.wireBytes
		encs.blocks.put(last)
		return n
	}
}
