package storage

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/failpoint"
)

// memSpace is the in-memory backend: a process-lifetime map of objects
// keyed by full mem:// destination. It mimics the object-store model —
// atomic Put, single-shot Create invisible until Finalize, exclusive
// create — while staying readable mid-shard (PartialReads), so the unit
// tests of every layer above can run against it without a filesystem.
type memSpace struct {
	name string
	mu   sync.Mutex
	obj  map[string][]byte
	lock map[string]bool
}

func newMemSpace(name string) *memSpace {
	return &memSpace{name: name, obj: map[string][]byte{}, lock: map[string]bool{}}
}

func (*memSpace) Scheme() string     { return "mem" }
func (*memSpace) Local() bool        { return false }
func (*memSpace) PartialReads() bool { return true }

// memReader reads a snapshot of an object. bytes.Reader already
// provides ReadAt, Seek and the total Size.
type memReader struct {
	*bytes.Reader
}

func (r memReader) Close() error { return nil }

func (s *memSpace) Open(name string) (Reader, error) {
	b, err := s.Get(name)
	if err != nil {
		return nil, err
	}
	return memReader{bytes.NewReader(b)}, nil
}

func (s *memSpace) Get(name string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.obj[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	return append([]byte(nil), b...), nil
}

func (s *memSpace) Stat(name string) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.obj[name]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	return int64(len(b)), nil
}

func (s *memSpace) List(prefix string) ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var names []string
	for k := range s.obj {
		if strings.HasPrefix(k, strings.TrimSuffix(prefix, "/")+"/") || k == prefix {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	return names, nil
}

func (s *memSpace) Delete(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.obj[name]; !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	delete(s.obj, name)
	return nil
}

func (*memSpace) EnsureDir(string) error { return nil }

// Put replaces the object under the space lock. The failpoint sites of
// opts fire at the instants they do on the other backends: CrashBefore
// with the previous object still current, CorruptAfter leaving the
// published object cut in half.
func (s *memSpace) Put(name string, data []byte, opts PutOptions) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if opts.IfAbsent {
		if _, ok := s.obj[name]; ok {
			return fmt.Errorf("%w: %s", ErrExists, name)
		}
	}
	if opts.CrashBefore != "" && failpoint.Armed() && failpoint.Eval(opts.CrashBefore) {
		return failpoint.Crash(opts.CrashBefore)
	}
	s.obj[name] = append([]byte(nil), data...)
	if opts.CorruptAfter != "" && failpoint.Armed() && failpoint.Eval(opts.CorruptAfter) {
		s.obj[name] = s.obj[name][:len(data)/2]
		return failpoint.Crash(opts.CorruptAfter)
	}
	return nil
}

// memWriter buffers a single-shot object and publishes it at Finalize.
type memWriter struct {
	s    *memSpace
	name string
	excl bool
	buf  bytes.Buffer
	done bool
}

func (s *memSpace) Create(name string, excl bool) (Writer, error) {
	if excl {
		s.mu.Lock()
		_, exists := s.obj[name]
		s.mu.Unlock()
		if exists {
			return nil, fmt.Errorf("%w: destination %s already exists — refusing to overwrite", ErrExists, name)
		}
	}
	return &memWriter{s: s, name: name, excl: excl}, nil
}

func (w *memWriter) Write(p []byte) (int, error) { return w.buf.Write(p) }

func (w *memWriter) Finalize() error {
	if w.done {
		return nil
	}
	w.done = true
	return w.s.Put(w.name, w.buf.Bytes(), PutOptions{IfAbsent: w.excl})
}

func (w *memWriter) Abort() error {
	w.done = true
	w.buf.Reset()
	return nil
}

// memShard is the checkpointed shard writer. Commit is a mark; Sync and
// Finalize publish the committed bytes into the object map, so readers
// (and a resume) see exactly the synced prefix — durability lags commit
// here as it does on a disk or an object store, and neither committed
// bytes that were never synced nor the uncommitted tail ever escape.
type memShard struct {
	s    *memSpace
	name string
	mu   sync.Mutex // Sync may run beside Write and Commit
	buf  []byte     // bytes not yet published: committed first, then the tail
	held int        // bytes of buf that are committed
	off  int64      // absolute committed offset
}

func (s *memSpace) CreateShard(name string) (ShardWriter, error) {
	s.mu.Lock()
	s.obj[name] = nil
	s.mu.Unlock()
	return &memShard{s: s, name: name}, nil
}

func (s *memSpace) ResumeShard(name string, offset int64) (ShardWriter, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.obj[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoShard, name)
	}
	if int64(len(b)) < offset {
		return nil, fmt.Errorf("storage: shard %s has %d bytes, committed offset is %d — object and checkpoint disagree", name, len(b), offset)
	}
	// Drop what was synced past the offset the caller's checkpoint records.
	s.obj[name] = b[:offset:offset]
	return &memShard{s: s, name: name, off: offset}, nil
}

func (w *memShard) Write(p []byte) (int, error) {
	w.mu.Lock()
	w.buf = append(w.buf, p...)
	w.mu.Unlock()
	return len(p), nil
}

func (w *memShard) Commit(_ [32]byte) (int64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.off += int64(len(w.buf) - w.held)
	w.held = len(w.buf)
	return w.off, nil
}

// Sync appends the committed bytes to the published object — each byte
// is copied into the space once, whatever the number of commits.
func (w *memShard) Sync() (int64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.held > 0 {
		w.s.mu.Lock()
		w.s.obj[w.name] = append(w.s.obj[w.name], w.buf[:w.held]...)
		w.s.mu.Unlock()
		w.buf = w.buf[:copy(w.buf, w.buf[w.held:])]
		w.held = 0
	}
	return w.off, nil
}

func (w *memShard) Finalize() error {
	_, err := w.Sync()
	return err
}

func (w *memShard) Close() error { return nil }

func (w *memShard) Abort() error {
	w.s.mu.Lock()
	delete(w.s.obj, w.name)
	w.s.mu.Unlock()
	return nil
}

// memLock is a map-entry mutex.
type memLock struct {
	s    *memSpace
	name string
}

func (s *memSpace) Lock(name string) (Unlock, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lock[name] {
		return nil, fmt.Errorf("%w: %s is held", ErrLocked, name)
	}
	s.lock[name] = true
	return &memLock{s: s, name: name}, nil
}

func (l *memLock) Release() error {
	l.s.mu.Lock()
	delete(l.s.lock, l.name)
	l.s.mu.Unlock()
	return nil
}
