package storage

import (
	"context"
	"crypto/sha256"
	"encoding/base64"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/failpoint"
	"repro/internal/obs"
)

// s3Shard is the striped multipart shard writer: committed chunks
// coalesce into multipart parts (>= partSize, chunk-aligned) that upload
// in background goroutines while the generator keeps producing the next
// chunks. The semaphore bounds both in-flight uploads and buffered part
// memory — sealing a part blocks when cfg.concurrency uploads are
// already running, which is the backpressure that keeps a slow store
// from buffering the whole shard in RAM.
//
// Durability model: a chunk is durable once every part up to and
// including its bytes has finished uploading (the store verified each
// part's SHA-256 on receipt). Sync reports that contiguous prefix
// without waiting for anything; the job layer's checkpoint manifests
// only record offsets at or below it, so a crash never leaves a manifest
// pointing past what the store holds.
//
// Bytes are copied once on their way out: Write appends straight into
// the part being built, Commit marks how much of it is committed, and a
// full part's buffer is handed to its upload as it is. Part buffers come
// from the backend's free list, and a finished upload gives its buffer
// back there, so a shard in steady state cycles through at most
// concurrency+1 buffers, and the shards after the first written through
// one backend allocate none.
type s3Shard struct {
	b      *s3Backend
	bucket string
	key    string
	upload string // multipart UploadId

	ctx    context.Context
	cancel context.CancelFunc
	sem    chan struct{}
	wg     sync.WaitGroup

	mu           sync.Mutex
	part         []byte   // the part being built: committed chunks, then the bytes written since the last Commit
	committed    int      // bytes of part that are committed
	pendingN     int      // chunks in part[:committed]
	pendingSum   [32]byte // digest of that chunk when pendingN == 1
	pendingKnown bool     // pendingSum valid (single whole chunk)
	off          int64    // absolute committed offset
	resumeOff    int64    // durable offset inherited from a resumed upload
	resumeParts  []s3Part
	local        []*s3PartState // sealed this session, in part order
	nextPart     int
	uploadErr    error
	finalized    bool
}

type s3PartState struct {
	part s3Part
	done bool
	data []byte // recycled once uploaded
}

func (b *s3Backend) newShard(bucket, key, uploadID string, resumeOff int64, resumeParts []s3Part) *s3Shard {
	ctx, cancel := context.WithCancel(context.Background())
	next := 1
	for _, p := range resumeParts {
		if p.Num >= next {
			next = p.Num + 1
		}
	}
	return &s3Shard{
		b: b, bucket: bucket, key: key, upload: uploadID,
		ctx: ctx, cancel: cancel,
		sem:       make(chan struct{}, b.cfg.concurrency),
		off:       resumeOff,
		resumeOff: resumeOff, resumeParts: resumeParts,
		nextPart: next,
	}
}

// CreateShard starts a fresh shard, initiating its multipart upload
// eagerly so part uploads can start with the first sealed part.
func (b *s3Backend) CreateShard(name string) (ShardWriter, error) {
	return b.freshShard(name)
}

// freshShard starts a new multipart upload of name, after aborting any
// stale one for the key — left by a crash or a failed run, its parts are
// unreachable garbage otherwise.
func (b *s3Backend) freshShard(name string) (*s3Shard, error) {
	bucket, key, err := splitS3(name)
	if err != nil {
		return nil, err
	}
	stale, err := b.listUploads(bucket, key)
	if err != nil {
		return nil, err
	}
	for _, id := range stale {
		if err := b.abortMultipart(bucket, key, id); err != nil {
			return nil, fmt.Errorf("storage: aborting stale upload of %s: %w", name, err)
		}
	}
	id, err := b.createMultipart(bucket, key)
	if err != nil {
		return nil, err
	}
	return b.newShard(bucket, key, id, 0, nil), nil
}

// ResumeShard reattaches to the in-progress multipart upload of name.
// The committed offset recorded by the manifest is always a part
// boundary (promotion only ever records offsets Sync returned, and on S3
// those move in whole parts), so resume looks for a contiguous prefix of
// uploaded parts summing exactly to offset. Anything else — no upload,
// a gap, a sum mismatch — means the store-side state cannot back the
// checkpoint, and the caller gets ErrNoShard to regenerate from zero.
func (b *s3Backend) ResumeShard(name string, offset int64) (ShardWriter, error) {
	bucket, key, err := splitS3(name)
	if err != nil {
		return nil, err
	}
	ids, err := b.listUploads(bucket, key)
	if err != nil {
		return nil, err
	}
	for _, id := range ids {
		parts, err := b.listParts(bucket, key, id)
		if err != nil {
			return nil, err
		}
		// Contiguous prefix 1..k summing exactly to offset.
		var sum int64
		k := 0
		for i, p := range parts {
			if p.Num != i+1 || sum >= offset {
				break
			}
			sum += p.Size
			k = i + 1
		}
		if sum == offset {
			return b.newShard(bucket, key, id, offset, parts[:k]), nil
		}
	}
	// No usable upload. A finalized object whose size equals the
	// committed offset means the crash fell between Complete and the
	// final manifest write: the data is all there, nothing to write.
	if size, serr := b.Stat(name); serr == nil && size == offset {
		return &finalizedShard{off: offset}, nil
	}
	return nil, fmt.Errorf("%w: %s at offset %d", ErrNoShard, name, offset)
}

func (w *s3Shard) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.uploadErr; err != nil {
		return 0, err
	}
	if w.part == nil {
		w.part = w.b.takePart()
	}
	if need := len(w.part) + len(p); need > cap(w.part) {
		// The job layer writes a chunk as a run of 64 KiB blocks. A fresh
		// buffer starts at twice the part size: a part seals at its first
		// commit at or past partSize, so a part made of one chunk up to that
		// size never regrows. Past that, grow by doubling: append's 1.25x
		// steps would copy a multi-megabyte part about five times over on
		// the way up, doubling copies it twice.
		size := 2 * cap(w.part)
		if size == 0 {
			size = int(2 * w.b.cfg.partSize)
		}
		grown := make([]byte, len(w.part), max(need, size))
		copy(grown, w.part)
		w.part = grown
	}
	w.part = append(w.part, p...)
	return len(p), nil
}

// Commit seals everything written since the last Commit as one chunk.
// digest is the chunk's wire SHA-256 from the job layer's Merkle
// manifest; when the chunk becomes a part on its own the digest is
// forwarded verbatim as the part checksum — no second hash pass.
func (w *s3Shard) Commit(digest [32]byte) (int64, error) {
	return w.commit(digest, true)
}

func (w *s3Shard) commit(digest [32]byte, known bool) (int64, error) {
	w.mu.Lock()
	if err := w.uploadErr; err != nil {
		w.mu.Unlock()
		return 0, err
	}
	w.off += int64(len(w.part) - w.committed)
	w.committed = len(w.part)
	w.pendingN++
	if w.pendingN == 1 {
		w.pendingSum, w.pendingKnown = digest, known
	} else {
		w.pendingKnown = false
	}
	off := w.off
	var ps *s3PartState
	if int64(w.committed) >= w.b.cfg.partSize {
		ps = w.seal()
	}
	w.mu.Unlock()
	if ps != nil {
		w.launch(ps)
	}
	return off, nil
}

// seal turns the committed chunk run into one part and hands it the
// buffer. Everything in the buffer is committed: both callers seal
// right after a commit. Caller holds mu.
func (w *s3Shard) seal() *s3PartState {
	if w.committed == 0 {
		return nil
	}
	var sum string
	if w.pendingN == 1 && w.pendingKnown {
		sum = base64.StdEncoding.EncodeToString(w.pendingSum[:])
		stats.checksumReused.Add(1)
	} else {
		d := sha256.Sum256(w.part)
		sum = base64.StdEncoding.EncodeToString(d[:])
		stats.checksumRehashed.Add(1)
	}
	ps := &s3PartState{
		part: s3Part{Num: w.nextPart, Size: int64(len(w.part)), Checksum: sum},
		data: w.part,
	}
	w.nextPart++
	w.part = nil
	w.committed = 0
	w.pendingN = 0
	w.pendingKnown = false
	w.local = append(w.local, ps)
	return ps
}

// launch starts the background upload of a sealed part. The semaphore
// acquire happens here, on the generator's goroutine: when the
// concurrency budget is exhausted, sealing the next part blocks until a
// slot frees, bounding buffered part memory.
func (w *s3Shard) launch(ps *s3PartState) {
	w.sem <- struct{}{}
	w.wg.Add(1)
	trackInFlight(1)
	go func() {
		defer func() {
			trackInFlight(-1)
			<-w.sem
			w.wg.Done()
		}()
		// Observability: a span on the process-global trace (nil check when
		// tracing is off) and a latency observation for the part-upload
		// histogram (one atomic load when no observer is installed).
		sp := obs.Active().Start("storage", "upload-part", obs.UploadLane(uint64(ps.part.Num)), obs.Span{})
		start := time.Now()
		etag, err := w.b.uploadPart(w.ctx, w.bucket, w.key, w.upload, ps.part.Num, ps.data, ps.part.Checksum)
		observePartUpload(time.Since(start).Seconds())
		sp.End(obs.U64("part", uint64(ps.part.Num)), obs.U64("bytes", uint64(ps.part.Size)), obs.Str("key", w.key))
		w.mu.Lock()
		if err != nil {
			if w.uploadErr == nil {
				w.uploadErr = fmt.Errorf("storage: upload of %s part %d: %w", w.key, ps.part.Num, err)
			}
		} else {
			// The store acknowledged the whole body, so nothing reads the
			// buffer any more. A failed attempt may still be sending it.
			ps.part.ETag = etag
			ps.done = true
			w.b.givePart(ps.data)
			ps.data = nil
		}
		w.mu.Unlock()
	}()
}

// Sync returns the contiguous committed prefix whose parts have all
// finished uploading, plus the first background upload error. Uploads
// start at Commit, so there is nothing to start here and nothing to wait
// for.
func (w *s3Shard) Sync() (int64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.finalized {
		return w.off, w.uploadErr
	}
	dur := w.resumeOff
	for _, ps := range w.local {
		if !ps.done {
			break
		}
		dur += ps.part.Size
	}
	return dur, w.uploadErr
}

// Finalize seals the remainder, drains every upload, and completes the
// multipart upload — the instant the shard becomes an object. An empty
// shard degenerates to a plain PUT (Complete with zero parts is
// invalid).
func (w *s3Shard) Finalize() error {
	w.mu.Lock()
	if len(w.part) > w.committed {
		// Uncommitted tail: seal it as an implicit final chunk (single-shot
		// writers land here; the job layer always commits first).
		w.off += int64(len(w.part) - w.committed)
		w.committed = len(w.part)
		w.pendingN += 2 // force a rehash — no digest accompanies these bytes
	}
	ps := w.seal()
	w.mu.Unlock()
	if ps != nil {
		w.launch(ps)
	}
	w.wg.Wait()

	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.uploadErr; err != nil {
		return err
	}
	parts := append([]s3Part(nil), w.resumeParts...)
	for _, p := range w.local {
		parts = append(parts, p.part)
	}
	if len(parts) == 0 {
		if err := w.b.abortMultipart(w.bucket, w.key, w.upload); err != nil {
			return err
		}
		return w.b.Put("s3://"+w.bucket+"/"+w.key, nil, PutOptions{})
	}
	if failpoint.Armed() && failpoint.Eval("storage/s3-finalize-crash") {
		// Simulated crash after every part uploaded but before Complete:
		// the upload (and all its parts) survives for resume.
		return failpoint.Crash("storage/s3-finalize-crash")
	}
	if err := w.b.completeMultipart(w.bucket, w.key, w.upload, parts); err != nil {
		return err
	}
	w.finalized = true
	return nil
}

// Close drains in-flight uploads and releases resources without
// completing or aborting the multipart upload: committed parts stay on
// the store for a later ResumeShard.
func (w *s3Shard) Close() error {
	w.wg.Wait()
	w.cancel()
	return nil
}

// abort cancels in-flight part uploads and aborts the multipart upload,
// discarding every part: the single-shot writer's Abort.
func (w *s3Shard) abort() error {
	obs.Logger("storage").Info("aborting multipart upload", "key", w.key, "upload", w.upload)
	w.cancel()
	w.wg.Wait()
	if failpoint.Armed() && failpoint.Eval("storage/s3-abort-crash") {
		// Simulated crash before AbortMultipartUpload: the orphaned upload
		// must be swept by the next write of the name.
		return failpoint.Crash("storage/s3-abort-crash")
	}
	return w.b.abortMultipart(w.bucket, w.key, w.upload)
}

// finalizedShard backs a resume that found the object already complete
// at exactly the committed offset (crash between Complete and the final
// manifest write): everything is durable, nothing may be written.
type finalizedShard struct{ off int64 }

func (s *finalizedShard) Write([]byte) (int, error) {
	return 0, errors.New("storage: shard already finalized")
}
func (s *finalizedShard) Commit([32]byte) (int64, error) {
	return 0, errors.New("storage: shard already finalized")
}
func (s *finalizedShard) Sync() (int64, error) { return s.off, nil }
func (s *finalizedShard) Finalize() error      { return nil }
func (s *finalizedShard) Close() error         { return nil }

// s3Writer is the single-shot object writer: small objects buffer in
// memory and publish with one PUT; anything reaching the part-size
// threshold spills into a striped multipart upload.
type s3Writer struct {
	b     *s3Backend
	name  string
	buf   []byte
	shard *s3Shard
	done  bool
}

func (b *s3Backend) Create(name string) (Writer, error) {
	if _, _, err := splitS3(name); err != nil {
		return nil, err
	}
	return &s3Writer{b: b, name: name}, nil
}

func (w *s3Writer) Write(p []byte) (int, error) {
	if w.shard != nil {
		n, err := w.shard.Write(p)
		if err != nil {
			return n, err
		}
		if _, err := w.shard.commit([32]byte{}, false); err != nil {
			return n, err
		}
		return n, nil
	}
	w.buf = append(w.buf, p...)
	if int64(len(w.buf)) >= w.b.cfg.partSize {
		shard, err := w.b.freshShard(w.name)
		if err != nil {
			return len(p), err
		}
		w.shard = shard
		if _, err := w.shard.Write(w.buf); err != nil {
			return len(p), err
		}
		if _, err := w.shard.commit([32]byte{}, false); err != nil {
			return len(p), err
		}
		w.buf = nil
	}
	return len(p), nil
}

func (w *s3Writer) Finalize() error {
	if w.done {
		return nil
	}
	w.done = true
	if w.shard != nil {
		err := w.shard.Finalize()
		if err != nil && !errors.Is(err, failpoint.ErrCrash) {
			w.shard.abort() // a failed publish leaves no upload behind
		}
		w.shard.cancel()
		return err
	}
	return w.b.Put(w.name, w.buf, PutOptions{})
}

func (w *s3Writer) Abort() error {
	if w.done {
		return nil
	}
	w.done = true
	w.buf = nil
	if w.shard != nil {
		return w.shard.abort()
	}
	return nil
}
