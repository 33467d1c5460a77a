package storage

import (
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync/atomic"

	"repro/internal/failpoint"
)

// fsBackend is the filesystem backend. It preserves the durability
// discipline the job layer was built on: control objects are written to
// a temp file, fsynced, renamed into place, and the directory is synced;
// shards are hardened with one fsync per Sync and stay plain in-place
// files so os-level tooling (and the fault injectors) can inspect them.
type fsBackend struct{}

func (fsBackend) Scheme() string     { return "file" }
func (fsBackend) Local() bool        { return true }
func (fsBackend) PartialReads() bool { return true }

// fsReader adapts an *os.File to Reader with a cached size.
type fsReader struct {
	*os.File
	size int64
}

func (r *fsReader) Size() int64 { return r.size }

func (fsBackend) Open(name string) (Reader, error) {
	f, err := os.Open(fsPath(name))
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &fsReader{File: f, size: st.Size()}, nil
}

func (fsBackend) Get(name string) ([]byte, error) { return os.ReadFile(fsPath(name)) }

func (fsBackend) Stat(name string) (int64, error) {
	st, err := os.Stat(fsPath(name))
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

func (fsBackend) List(prefix string) ([]string, error) {
	root := fsPath(prefix)
	var names []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, rerr := filepath.Rel(root, p)
		if rerr != nil {
			return rerr
		}
		names = append(names, Join(prefix, rel))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return sortedNames(names), nil
}

func (fsBackend) Delete(name string) error { return os.Remove(fsPath(name)) }

func (fsBackend) EnsureDir(name string) error { return os.MkdirAll(fsPath(name), 0o755) }

// SyncDir fsyncs a directory so a freshly created or renamed entry in it
// survives a power loss — without it, a durable manifest could record
// progress for a shard whose directory entry never became durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Put writes data to a temp file in the target directory, fsyncs it,
// renames it over name, and fsyncs the directory: a crash at any point
// leaves either the previous object or the new one, never a torn mix.
// The failpoint sites of opts fire at the same instants they always
// have: CrashBefore between the fsync and the rename (durable .tmp left
// behind), CorruptAfter after the rename (published object truncated).
func (fsBackend) Put(name string, data []byte, opts PutOptions) error {
	p := fsPath(name)
	if opts.IfAbsent {
		if _, err := os.Stat(p); err == nil {
			return fmt.Errorf("%w: %s", ErrExists, name)
		} else if !os.IsNotExist(err) {
			return err
		}
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return err
	}
	tmp := p + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if opts.CrashBefore != "" && failpoint.Armed() && failpoint.Eval(opts.CrashBefore) {
		// Simulated crash between the fsync and the rename: the durable
		// .tmp is left behind and name still holds the previous object.
		return failpoint.Crash(opts.CrashBefore)
	}
	if err := os.Rename(tmp, p); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := SyncDir(filepath.Dir(p)); err != nil {
		return err
	}
	if opts.CorruptAfter != "" && failpoint.Armed() && failpoint.Eval(opts.CorruptAfter) {
		// Simulated external rot: the durably renamed object is cut in
		// half, then the process "crashes". Atomic renames cannot produce
		// this state — a disk can.
		if st, err := os.Stat(p); err == nil {
			os.Truncate(p, st.Size()/2)
		}
		return failpoint.Crash(opts.CorruptAfter)
	}
	return nil
}

// fsWriter is the single-shot writer: it streams into <name>.tmp and
// publishes with rename at Finalize. With excl the final name is
// reserved up front with O_EXCL, so a dirty destination fails at Create
// instead of being truncated — the reservation (an empty file) is what
// the rename atomically replaces.
type fsWriter struct {
	f        *os.File
	name     string // final path
	tmp      string
	reserved bool
}

func (fsBackend) Create(name string, excl bool) (Writer, error) {
	p := fsPath(name)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return nil, err
	}
	reserved := false
	if excl {
		r, err := os.OpenFile(p, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err != nil {
			if os.IsExist(err) {
				return nil, fmt.Errorf("%w: destination %s already exists — refusing to overwrite", ErrExists, name)
			}
			return nil, err
		}
		r.Close()
		reserved = true
	}
	f, err := os.OpenFile(p+".tmp", os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		if reserved {
			os.Remove(p)
		}
		return nil, err
	}
	return &fsWriter{f: f, name: p, tmp: p + ".tmp", reserved: reserved}, nil
}

func (w *fsWriter) Write(p []byte) (int, error) { return w.f.Write(p) }

// Seek and WriteAt expose the staging file's random access: the binary
// sinks probe for io.WriteSeeker to patch the header edge count before
// the object is published.
func (w *fsWriter) Seek(offset int64, whence int) (int64, error) { return w.f.Seek(offset, whence) }
func (w *fsWriter) WriteAt(p []byte, off int64) (int, error)     { return w.f.WriteAt(p, off) }

func (w *fsWriter) Finalize() error {
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(w.tmp)
		return err
	}
	if err := os.Rename(w.tmp, w.name); err != nil {
		os.Remove(w.tmp)
		return err
	}
	return SyncDir(filepath.Dir(w.name))
}

func (w *fsWriter) Abort() error {
	err := w.f.Close()
	if rerr := os.Remove(w.tmp); err == nil && !os.IsNotExist(rerr) {
		err = rerr
	}
	if w.reserved {
		os.Remove(w.name)
	}
	return err
}

// fsShard is the checkpointed shard writer: a plain in-place file. Write
// and Commit never leave the page cache; Sync is the one fsync, and it
// vouches for every commit made before it started.
type fsShard struct {
	f   *os.File
	dir string // synced by the first Sync of a fresh shard; "" once durable
	off int64  // bytes written (the writing goroutine's)
	// committed is the offset of the last Commit, read by a concurrent Sync.
	committed atomic.Int64
	synced    int64 // written bytes the last fsync covered (the syncing goroutine's)
}

func (fsBackend) CreateShard(name string) (ShardWriter, error) {
	p := fsPath(name)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(p, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	return &fsShard{f: f, dir: filepath.Dir(p)}, nil
}

func (fsBackend) ResumeShard(name string, offset int64) (ShardWriter, error) {
	p := fsPath(name)
	f, err := os.OpenFile(p, os.O_WRONLY, 0)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err == nil && st.Size() < offset {
		err = fmt.Errorf("storage: shard %s has %d bytes, committed offset is %d — object and checkpoint disagree", name, st.Size(), offset)
	}
	if err == nil {
		// Drop any torn tail a crash left past the committed offset.
		err = f.Truncate(offset)
	}
	if err == nil {
		_, err = f.Seek(offset, io.SeekStart)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	// A checkpoint already references the shard, so its directory entry
	// is durable.
	s := &fsShard{f: f, off: offset, synced: offset}
	s.committed.Store(offset)
	return s, nil
}

func (s *fsShard) Write(p []byte) (int, error) {
	n, err := s.f.Write(p)
	s.off += int64(n)
	return n, err
}

func (s *fsShard) Commit(_ [32]byte) (int64, error) {
	s.committed.Store(s.off)
	return s.off, nil
}

// Sync fsyncs the file and, the first time on a fresh shard, its
// directory — the new entry must be durable before any manifest can
// reference the shard. It vouches for the commits made before it started.
func (s *fsShard) Sync() (int64, error) {
	c := s.committed.Load()
	return c, s.sync(c)
}

// sync hardens the first upTo bytes of the file, which the caller knows
// were written before the call. Nothing new to harden costs nothing.
func (s *fsShard) sync(upTo int64) error {
	if upTo <= s.synced && s.dir == "" {
		return nil
	}
	if err := s.f.Sync(); err != nil {
		return err
	}
	if s.dir != "" {
		if err := SyncDir(s.dir); err != nil {
			return err
		}
		s.dir = ""
	}
	s.synced = upTo
	return nil
}

// Finalize is a last sync covering everything written: filesystem shards
// live at their destination from the first byte (the manifest, not a
// rename, governs their meaning), which the byte-level CI checks rely on.
func (s *fsShard) Finalize() error { return s.sync(s.off) }

func (s *fsShard) Close() error {
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}

func (s *fsShard) Abort() error {
	name := s.f.Name()
	err := s.Close()
	if rerr := os.Remove(name); err == nil && !os.IsNotExist(rerr) {
		err = rerr
	}
	return err
}

// fsLock is the flock(2)-based worker lock (see lock_unix.go); the lock
// file is left behind on release — unlinking it would race a concurrent
// acquirer onto an orphaned inode, letting two processes both "hold"
// the lock.
type fsLock struct {
	f *os.File
}

func (fsBackend) Lock(name string) (Unlock, error) {
	p := fsPath(name)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(p, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := tryLockFile(f); err != nil {
		holder := ""
		if b, rerr := os.ReadFile(p); rerr == nil {
			if pid := bytes.TrimSpace(b); len(pid) > 0 {
				holder = fmt.Sprintf(" by pid %s", pid)
			}
		}
		f.Close()
		return nil, fmt.Errorf("%w: %s is held%s", ErrLocked, name, holder)
	}
	// Record the holder for diagnostics only — the kernel lock, not the
	// PID, is the source of truth.
	if err := f.Truncate(0); err == nil {
		f.WriteAt([]byte(fmt.Sprintf("%d\n", os.Getpid())), 0)
	}
	return &fsLock{f: f}, nil
}

func (l *fsLock) Release() error {
	if l.f == nil {
		return nil
	}
	err := unlockFile(l.f)
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}
