// Package storage abstracts where generated artifacts live: the local
// filesystem, an S3/MinIO-compatible object store, or memory (tests).
// Destinations are URIs — a bare path or file://path resolves to the
// filesystem backend, s3://bucket/prefix to the object store, mem://space
// to the in-memory backend — and every consumer (the sinks in the root
// package, the job runner, the serve layer) goes through the Backend
// interface instead of the os package.
//
// The interface is shaped by the paper's communication-free invariants
// rather than by generic blob semantics:
//
//   - Small control objects (specs, manifests) are replaced atomically:
//     readers see the old bytes or the new bytes, never a torn write. On
//     the filesystem that is the temp-file + fsync + rename discipline;
//     on S3 a PUT is atomic by contract.
//   - Shards are append-only streams with chunk-granular commits. A
//     commit is a boundary mark and does no I/O; durability arrives
//     later and is asked for separately: Sync hardens what has been
//     committed (filesystem: one fsync; S3: committed chunks are sealed
//     into multipart parts that upload concurrently with generation —
//     "striped" upload — and Sync reports how far the uploads got) and
//     returns the contiguous durable prefix, which can lag Commit on
//     every backend. Checkpoint manifests must only ever record offsets
//     a Sync has returned.
//   - Single-shot objects (merged outputs, ShardedSink shards) are
//     invisible until Finalize and can be created exclusively, so a dirty
//     destination is an explicit error instead of a silent truncate.
package storage

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Sentinel errors. ErrNotExist and ErrExists alias the fs package's
// sentinels so call sites keep using errors.Is(err, fs.ErrNotExist)
// regardless of backend.
var (
	ErrNotExist = fs.ErrNotExist
	ErrExists   = fs.ErrExist
	// ErrLocked reports a Lock refused because another holder owns it.
	ErrLocked = errors.New("storage: locked")
	// ErrNoShard reports a ResumeShard that found neither an in-progress
	// upload nor a finalized object matching the committed offset: the
	// partial state is gone (expired multipart upload, deleted staging)
	// and the caller must regenerate from scratch.
	ErrNoShard = errors.New("storage: no resumable shard state")
)

// PutOptions tune an atomic small-object write.
type PutOptions struct {
	// IfAbsent refuses to replace an existing object with ErrExists.
	IfAbsent bool
	// CrashBefore and CorruptAfter name failpoint sites the backend
	// evaluates around its atomic publish step: CrashBefore fires between
	// making the new bytes durable and publishing them (filesystem: between
	// the temp-file fsync and the rename), CorruptAfter fires after a
	// successful publish and truncates the published object before
	// crashing (simulated external rot). Empty names are not evaluated.
	// Keeping the sites inside the backend keeps the job layer's
	// long-standing failpoint names meaningful on every backend.
	CrashBefore  string
	CorruptAfter string
}

// Reader is a readable object handle: sequential reads, random-access
// reads (ranged GETs on S3), and a known size.
type Reader interface {
	io.Reader
	io.ReaderAt
	io.Seeker
	io.Closer
	Size() int64
}

// Writer is a single-shot object writer: bytes stream in, nothing is
// visible at the destination until Finalize, and Abort discards
// everything. Exactly one of Finalize or Abort must be called.
//
// The filesystem implementation also supports io.Seeker/io.WriterAt on
// the staging file, which the binary sinks detect to patch headers.
type Writer interface {
	io.Writer
	Finalize() error
	Abort() error
}

// ShardWriter is a checkpointed append writer for one PE's shard.
//
// Write appends; Commit marks everything appended since the previous
// Commit as one committed chunk and returns the absolute end offset. It
// is a boundary mark on every backend: no fsync, no request, nothing a
// generator could wait on (S3 may hand a full part to a background
// upload, which blocks only when the upload pool is saturated). digest
// is the SHA-256 of the chunk's wire bytes (what Write received), which
// the S3 backend forwards verbatim as the part checksum when the chunk
// becomes a part of its own — the digest the job layer already computed
// for its Merkle manifest, so the hot path never hashes twice.
//
// Sync makes durable whatever is committed and can be, and returns the
// contiguous committed prefix the backend now durably holds, plus any
// background upload failure. Filesystem: one fsync, covering every
// Commit made before Sync started (the first Sync of a fresh shard also
// syncs the directory, so the entry is durable before a manifest can
// reference it). S3: the contiguous run of parts whose uploads
// completed, without waiting for the rest. Memory: the committed length,
// published to readers. Bytes past the returned offset — committed or
// not — may or may not survive a crash; ResumeShard discards them.
//
// Write and Commit belong to one goroutine at a time; Sync may run on
// another, concurrently with them. Finalize, Close and Abort need the
// writer quiescent. Finalize drains outstanding uploads and publishes
// the object, after which everything committed is durable; Close
// releases resources keeping durable state resumable; Abort discards
// the partial object (S3: AbortMultipartUpload).
type ShardWriter interface {
	io.Writer
	Commit(digest [32]byte) (int64, error)
	Sync() (durable int64, err error)
	Finalize() error
	Close() error
	Abort() error
}

// Unlock releases a Lock.
type Unlock interface {
	Release() error
}

// Backend is one storage target. Names passed to it are full
// destinations of its own scheme (the strings Resolve and Join hand
// around), so a name can be logged or stored and resolved again later.
type Backend interface {
	// Scheme is the URI scheme ("file", "s3", "mem").
	Scheme() string
	// Local reports whether objects are plain local files that os-level
	// tooling (and the byte-level fault injectors) can touch in place.
	Local() bool
	// PartialReads reports whether the committed prefix of an in-progress
	// shard can be read back before Finalize. The filesystem can (the
	// resume audit re-hashes committed chunks); S3 cannot (parts of an
	// open multipart upload are unreadable), so resume there trusts the
	// server-verified part checksums instead.
	PartialReads() bool

	Open(name string) (Reader, error)
	Get(name string) ([]byte, error)
	// Stat returns the object's size.
	Stat(name string) (int64, error)
	// List returns the names under prefix (recursively), sorted.
	List(prefix string) ([]string, error)
	Delete(name string) error
	// EnsureDir prepares a directory-like destination (no-op on flat
	// object stores).
	EnsureDir(name string) error

	// Put atomically replaces name with data.
	Put(name string, data []byte, opts PutOptions) error
	// Create opens a single-shot writer; excl makes Finalize (and, where
	// the backend can, Create itself) fail with ErrExists if name exists.
	Create(name string, excl bool) (Writer, error)

	// CreateShard starts a fresh checkpointed shard at name.
	CreateShard(name string) (ShardWriter, error)
	// ResumeShard reopens a shard whose committed prefix ends at offset,
	// discarding anything past it. ErrNoShard means no resumable state
	// survives and the caller must start over with CreateShard.
	ResumeShard(name string, offset int64) (ShardWriter, error)

	// Lock takes an exclusive advisory lock on name, failing fast with an
	// error wrapping ErrLocked when held elsewhere.
	Lock(name string) (Unlock, error)
}

// Resolve parses a destination URI and returns the backend that serves
// it. Names keep their full spelling (scheme included) through every
// Backend call, so a destination can be stored, logged, joined with
// Join, and resolved again later without loss.
func Resolve(dest string) (Backend, error) {
	switch {
	case strings.HasPrefix(dest, "s3://"):
		return newS3FromEnv()
	case strings.HasPrefix(dest, "mem://"):
		return memBackendFor(dest)
	case strings.HasPrefix(dest, "file://"):
		return fsBackend{}, nil
	case strings.Contains(dest, "://"):
		return nil, fmt.Errorf("storage: unknown scheme in destination %q (want a path, file://, s3:// or mem://)", dest)
	default:
		return fsBackend{}, nil
	}
}

// Join joins destination path elements, URI-aware: scheme-prefixed
// destinations join with "/", bare paths with the OS separator. The
// scheme and authority of a URI are never cleaned away.
func Join(dest string, elem ...string) string {
	i := strings.Index(dest, "://")
	if i < 0 {
		return filepath.Join(append([]string{dest}, elem...)...)
	}
	scheme, rest := dest[:i+3], dest[i+3:]
	return scheme + path.Join(append([]string{rest}, elem...)...)
}

// Base returns the last path element of a destination.
func Base(dest string) string {
	if i := strings.Index(dest, "://"); i >= 0 {
		return path.Base(dest[i+3:])
	}
	return filepath.Base(dest)
}

// fsPath strips an optional file:// prefix.
func fsPath(name string) string { return strings.TrimPrefix(name, "file://") }

// --- upload observability ---

// Stats is a snapshot of the striped uploader's counters — the test and
// metrics hook that makes the upload/generation overlap observable.
type Stats struct {
	// PartsUploaded counts completed part uploads.
	PartsUploaded int64
	// PartRetries counts part upload attempts retried after a transient
	// failure.
	PartRetries int64
	// PartsInFlight is the number of part uploads currently running.
	PartsInFlight int64
	// MaxInFlight is the high-water mark of PartsInFlight.
	MaxInFlight int64
	// ChecksumReused counts parts whose checksum was taken verbatim from
	// the committed chunk digest (no re-hash).
	ChecksumReused int64
	// ChecksumRehashed counts parts whose checksum had to be recomputed
	// because several chunks coalesced into one part.
	ChecksumRehashed int64
	// BytesUploaded counts part payload bytes successfully uploaded.
	BytesUploaded int64
}

var stats struct {
	partsUploaded, partRetries, partsInFlight, maxInFlight atomic.Int64
	checksumReused, checksumRehashed, bytesUploaded        atomic.Int64
}

// UploadStats returns a snapshot of the uploader counters.
func UploadStats() Stats {
	return Stats{
		PartsUploaded:    stats.partsUploaded.Load(),
		PartRetries:      stats.partRetries.Load(),
		PartsInFlight:    stats.partsInFlight.Load(),
		MaxInFlight:      stats.maxInFlight.Load(),
		ChecksumReused:   stats.checksumReused.Load(),
		ChecksumRehashed: stats.checksumRehashed.Load(),
		BytesUploaded:    stats.bytesUploaded.Load(),
	}
}

// ResetUploadStats zeroes the uploader counters (tests).
func ResetUploadStats() {
	stats.partsUploaded.Store(0)
	stats.partRetries.Store(0)
	stats.partsInFlight.Store(0)
	stats.maxInFlight.Store(0)
	stats.checksumReused.Store(0)
	stats.checksumRehashed.Store(0)
	stats.bytesUploaded.Store(0)
}

// partUploadObserver, when installed, receives the wall seconds of
// every completed part upload attempt — serve feeds it into the
// kagen_storage_part_upload_seconds histogram. Process-global like the
// upload counters; nil (one atomic load) when nothing is scraping.
var partUploadObserver atomic.Pointer[func(seconds float64)]

// SetPartUploadObserver installs (or, with nil, removes) the process
// part-upload latency observer.
func SetPartUploadObserver(fn func(seconds float64)) {
	if fn == nil {
		partUploadObserver.Store(nil)
		return
	}
	partUploadObserver.Store(&fn)
}

func observePartUpload(seconds float64) {
	if fn := partUploadObserver.Load(); fn != nil {
		(*fn)(seconds)
	}
}

func trackInFlight(delta int64) {
	n := stats.partsInFlight.Add(delta)
	if delta > 0 {
		for {
			max := stats.maxInFlight.Load()
			if n <= max || stats.maxInFlight.CompareAndSwap(max, n) {
				break
			}
		}
	}
}

// --- mem registry ---

var (
	memMu     sync.Mutex
	memSpaces = map[string]*memSpace{}
)

// memBackendFor returns the backend of a mem:// destination's space,
// creating it on first use. Spaces live for the process — exactly the
// lifetime unit tests need.
func memBackendFor(dest string) (Backend, error) {
	rest := strings.TrimPrefix(dest, "mem://")
	space := rest
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		space = rest[:i]
	}
	if space == "" {
		return nil, fmt.Errorf("storage: mem destination %q needs a space name (mem://space/...)", dest)
	}
	memMu.Lock()
	defer memMu.Unlock()
	sp, ok := memSpaces[space]
	if !ok {
		sp = newMemSpace(space)
		memSpaces[space] = sp
	}
	return sp, nil
}

// ResetMem drops every in-memory space (tests).
func ResetMem() {
	memMu.Lock()
	defer memMu.Unlock()
	memSpaces = map[string]*memSpace{}
}

// sortedNames sorts a name list in place and returns it.
func sortedNames(names []string) []string {
	sort.Strings(names)
	return names
}
