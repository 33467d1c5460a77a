package kagen

import (
	"fmt"
	"io"
	"os"

	"repro/internal/storage"
)

// OpenSink opens a streaming Sink on a destination URI — the single
// entry point behind which the sink constructor family lives. The
// destination decides where the bytes go, the format decides what they
// look like:
//
//	""            stdout
//	"-"           stdout
//	"graph.bin"   local file (file:// optional)
//	"s3://b/k"    object store (striped multipart upload)
//	"mem://s/k"   in-memory backend (tests)
//
// A destination other than stdout is written through the backend's
// single-shot writer: nothing is visible there until the sink's Close,
// and a sink that saw an error aborts instead of publishing. Per-PE
// sharded output is a job (see internal/job), not a sink.
func OpenSink(dest string, format Format) (Sink, error) {
	if dest == "" || dest == "-" {
		return NewFormatSink(os.Stdout, format), nil
	}
	be, err := storage.Resolve(dest)
	if err != nil {
		return nil, err
	}
	w, err := be.Create(dest)
	if err != nil {
		return nil, err
	}
	return &objectSink{inner: NewFormatSink(w, format), w: w}, nil
}

// objectSink runs a format sink into a backend's single-shot writer and
// ties the sink lifecycle to the object lifecycle: a clean Close
// finalizes (publishes) the object, a Close after any sink error aborts
// it so a failed run never leaves a plausible-looking partial object at
// the destination.
type objectSink struct {
	inner  Sink
	w      storage.Writer
	failed bool
}

func (s *objectSink) track(err error) error {
	if err != nil {
		s.failed = true
	}
	return err
}

func (s *objectSink) Begin(n, pes uint64) error           { return s.track(s.inner.Begin(n, pes)) }
func (s *objectSink) Batch(pe uint64, edges []Edge) error { return s.track(s.inner.Batch(pe, edges)) }
func (s *objectSink) EndPE(pe uint64) error               { return s.track(s.inner.EndPE(pe)) }

func (s *objectSink) Close() error {
	err := s.inner.Close()
	if err != nil || s.failed {
		s.w.Abort()
		if err == nil {
			err = fmt.Errorf("kagen: sink aborted after earlier write error")
		}
		return err
	}
	return s.w.Finalize()
}

// ReadEdgeListFrom reads one edge-list object from a destination URI
// ("" and "-" read stdin), decompressing the gzip formats. It is the
// backend-aware counterpart of ReadEdgeListFile: a bare path reads the
// local filesystem, s3:// streams straight from the object store.
func ReadEdgeListFrom(src string, f Format) (*EdgeList, error) {
	if src == "" || src == "-" {
		return ReadEdgeList(os.Stdin, f)
	}
	be, err := storage.Resolve(src)
	if err != nil {
		return nil, err
	}
	r, err := be.Open(src)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return ReadEdgeList(io.Reader(r), f)
}
