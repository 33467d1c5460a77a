package job

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/merkle"
	"repro/internal/storage"
)

// ChunkRecord is the durable integrity record of one committed chunk:
// the SHA-256 digest of the chunk's payload bytes (the format-encoded
// edges, before any compression — see the digest discussion in
// DESIGN.md), the shard byte offset the chunk ends at, and its edge
// count. The digests double as the leaves of the PE's Merkle tree.
type ChunkRecord struct {
	// Digest is the hex SHA-256 of the chunk's payload bytes.
	Digest string `json:"d"`
	// End is the shard offset after this chunk (== next chunk's start).
	End int64 `json:"end"`
	// Edges is the number of edges the chunk emitted.
	Edges uint64 `json:"e"`
}

// PEProgress is the durable progress record of one PE's shard. Offset is
// the shard file's byte length after the last committed chunk — a crash
// may leave bytes past it (a torn batch, an unfinished gzip member), and
// resume truncates to Offset before appending, so everything at or below
// the offset is final.
type PEProgress struct {
	PE uint64 `json:"pe"`
	// ChunksDone counts the PE's chunks whose edges are durably in the
	// shard; the next chunk to generate is ChunksDone.
	ChunksDone uint64 `json:"chunks_done"`
	// Offset is the committed shard length in bytes (header included).
	Offset int64 `json:"offset"`
	// Edges counts the edges committed through the last checkpoint.
	Edges uint64 `json:"edges"`
	// Done marks the shard finalized: all chunks committed and the file
	// closed.
	Done bool `json:"done"`
	// HeaderEnd is the committed length of the shard header (checkpoint
	// zero); chunk 0's bytes start here.
	HeaderEnd int64 `json:"header_end,omitempty"`
	// Chunks holds one integrity record per committed chunk
	// (len(Chunks) == ChunksDone always).
	Chunks []ChunkRecord `json:"chunks,omitempty"`
	// Root is the hex Merkle root over the chunk digests, set when the
	// PE finalizes. Any worker can re-derive any leaf from the spec
	// alone and check it against Root through an inclusion proof.
	Root string `json:"root,omitempty"`
}

// leafDigests decodes the PE's chunk digests into Merkle leaves.
func (p *PEProgress) leafDigests() ([]merkle.Digest, error) {
	leaves := make([]merkle.Digest, len(p.Chunks))
	for i, c := range p.Chunks {
		if err := decodeDigest(c.Digest, &leaves[i]); err != nil {
			return nil, fmt.Errorf("chunk %d: %w", i, err)
		}
	}
	return leaves, nil
}

// chunkBounds returns the shard byte range [start, end) of one committed
// chunk.
func (p *PEProgress) chunkBounds(chunk int) (start, end int64) {
	start = p.HeaderEnd
	if chunk > 0 {
		start = p.Chunks[chunk-1].End
	}
	return start, p.Chunks[chunk].End
}

// decodeDigest parses a hex SHA-256 digest into d.
func decodeDigest(s string, d *merkle.Digest) error {
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != len(d) {
		return fmt.Errorf("bad digest %q", s)
	}
	copy(d[:], b)
	return nil
}

// Manifest is one worker's checkpoint state: the spec hash it is bound
// to, the worker index, and per-PE progress for the worker's PE range.
// It is rewritten atomically (temp file + rename) once per checkpoint
// round — after every chunk when the store keeps up — so on disk it is
// always a complete, parseable snapshot of some durable chunk-prefix
// state, never a torn write.
type Manifest struct {
	SpecHash string       `json:"spec_hash"`
	Worker   uint64       `json:"worker"`
	PEs      []PEProgress `json:"pes"`
}

// ManifestPath returns the manifest object of one worker inside a job
// directory.
func ManifestPath(dir string, worker uint64) string {
	return storage.Join(dir, fmt.Sprintf("manifest-w%04d.json", worker))
}

// progress returns a pointer to the PE's progress record, or nil.
func (m *Manifest) progress(pe uint64) *PEProgress {
	for i := range m.PEs {
		if m.PEs[i].PE == pe {
			return &m.PEs[i]
		}
	}
	return nil
}

// newManifest returns the zero-progress manifest of one worker under a
// spec: every PE of the worker's range at zero chunks, zero offset.
func newManifest(spec Spec, worker uint64) *Manifest {
	lo, hi := spec.WorkerPEs(worker)
	m := &Manifest{SpecHash: spec.Hash(), Worker: worker}
	for pe := lo; pe < hi; pe++ {
		m.PEs = append(m.PEs, PEProgress{PE: pe})
	}
	return m
}

// WriteManifest atomically replaces path with the manifest through the
// path's backend: on the filesystem the JSON is written to a temp file,
// synced, and renamed over path; on an object store the PUT is atomic by
// contract. A crash at any point leaves either the previous manifest or
// the new one — the recorded progress can lag the shard (the extra bytes
// are truncated or re-uploaded at resume) but never lead it, because
// checkpoints only record durable shard offsets.
func WriteManifest(path string, m *Manifest) error {
	store, err := storage.Resolve(path)
	if err != nil {
		return err
	}
	return writeManifest(store, path, m)
}

// writeManifest is WriteManifest on an already resolved backend, for the
// writers outside a run's checkpoint rounds (the first manifest of a
// worker, the resume audit, repair).
func writeManifest(store storage.Backend, path string, m *Manifest) error {
	return new(manifestWriter).write(store, path, m)
}

// manifestWriter encodes and publishes manifests, keeping its buffers
// between publishes: a worker's checkpointer publishes once per round,
// and the manifest grows with every chunk.
type manifestWriter struct {
	buf bytes.Buffer
	enc *json.Encoder
}

// write atomically replaces path with the manifest. The failpoint sites
// around the atomic publish keep their long-standing names on every
// backend.
func (w *manifestWriter) write(store storage.Backend, path string, m *Manifest) error {
	if w.enc == nil {
		w.enc = json.NewEncoder(&w.buf)
		w.enc.SetIndent("", "  ")
	}
	w.buf.Reset()
	if err := w.enc.Encode(m); err != nil {
		return err
	}
	return store.Put(path, w.buf.Bytes(), storage.PutOptions{
		CrashBefore:  "job/crash-before-rename",
		CorruptAfter: "job/manifest-truncate",
	})
}

// ReadManifest reads and strictly validates a worker manifest: unknown
// fields, trailing garbage, duplicate or unsorted PEs, and impossible
// progress (chunks done beyond ChunksPerPE, a Done PE with missing
// chunks) are all rejected — a corrupt manifest must fail loudly rather
// than seed a resume with wrong state.
func ReadManifest(path string, spec Spec) (*Manifest, error) {
	store, err := storage.Resolve(path)
	if err != nil {
		return nil, err
	}
	return readManifest(store, path, spec)
}

// readManifest is ReadManifest on an already resolved backend.
func readManifest(store storage.Backend, path string, spec Spec) (*Manifest, error) {
	b, err := store.Get(path)
	if err != nil {
		return nil, err
	}
	m := &Manifest{}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(m); err != nil {
		return nil, fmt.Errorf("job: corrupt manifest %s: %w", path, err)
	}
	if dec.More() {
		return nil, fmt.Errorf("job: corrupt manifest %s: trailing data", path)
	}
	if m.SpecHash != spec.Hash() {
		for v := 1; v < spec.instanceVersion(); v++ {
			if m.SpecHash == spec.hashAt(v) {
				return nil, fmt.Errorf("job: manifest %s was written under %s instance version %d, this build generates version %d — the same spec now defines different edges; start the job over in a fresh directory",
					path, spec.Model, v, spec.instanceVersion())
			}
		}
		return nil, fmt.Errorf("job: manifest %s is bound to spec %.12s…, job spec is %.12s… — refusing to resume against a different instance definition",
			path, m.SpecHash, spec.Hash())
	}
	lo, hi := spec.WorkerPEs(m.Worker)
	if m.Worker >= spec.Normalized().Workers {
		return nil, fmt.Errorf("job: manifest %s: worker %d out of range [0, %d)", path, m.Worker, spec.Normalized().Workers)
	}
	if !sort.SliceIsSorted(m.PEs, func(i, j int) bool { return m.PEs[i].PE < m.PEs[j].PE }) {
		return nil, fmt.Errorf("job: corrupt manifest %s: PEs out of order", path)
	}
	if uint64(len(m.PEs)) != hi-lo {
		return nil, fmt.Errorf("job: corrupt manifest %s: %d PE records, worker %d owns %d", path, len(m.PEs), m.Worker, hi-lo)
	}
	cpp := spec.Normalized().ChunksPerPE
	for i := range m.PEs {
		p := &m.PEs[i]
		if p.PE != lo+uint64(i) {
			return nil, fmt.Errorf("job: corrupt manifest %s: PE %d out of worker %d's range [%d, %d)", path, p.PE, m.Worker, lo, hi)
		}
		if p.ChunksDone > cpp {
			return nil, fmt.Errorf("job: corrupt manifest %s: PE %d has %d chunks done of %d", path, p.PE, p.ChunksDone, cpp)
		}
		if p.Done && p.ChunksDone != cpp {
			return nil, fmt.Errorf("job: corrupt manifest %s: PE %d done with %d of %d chunks", path, p.PE, p.ChunksDone, cpp)
		}
		if p.Offset < 0 {
			return nil, fmt.Errorf("job: corrupt manifest %s: PE %d has negative offset", path, p.PE)
		}
		if p.ChunksDone > 0 && p.Offset == 0 {
			return nil, fmt.Errorf("job: corrupt manifest %s: PE %d has chunks but no committed bytes", path, p.PE)
		}
		if err := p.validateIntegrity(); err != nil {
			return nil, fmt.Errorf("job: corrupt manifest %s: PE %d: %w", path, p.PE, err)
		}
	}
	return m, nil
}

// validateIntegrity checks the per-chunk integrity records against the
// PE's progress counters: a record per committed chunk, offsets
// monotone from the header to Offset, edge counts summing to Edges,
// and — for a finalized PE — a root that reproduces from the leaves.
// The root re-check makes a tampered or torn integrity section fail at
// read time, before any resume or verify trusts it.
func (p *PEProgress) validateIntegrity() error {
	if uint64(len(p.Chunks)) != p.ChunksDone {
		return fmt.Errorf("%d chunk records for %d committed chunks", len(p.Chunks), p.ChunksDone)
	}
	if p.Offset == 0 && p.HeaderEnd != 0 {
		return fmt.Errorf("header end %d with no committed bytes", p.HeaderEnd)
	}
	if p.Offset > 0 && (p.HeaderEnd <= 0 || p.HeaderEnd > p.Offset) {
		return fmt.Errorf("header end %d outside (0, %d]", p.HeaderEnd, p.Offset)
	}
	if p.ChunksDone == 0 && p.Offset > 0 && p.HeaderEnd != p.Offset {
		return fmt.Errorf("no chunks but offset %d past header end %d", p.Offset, p.HeaderEnd)
	}
	prev := p.HeaderEnd
	var edges uint64
	var d merkle.Digest
	for i, c := range p.Chunks {
		if err := decodeDigest(c.Digest, &d); err != nil {
			return fmt.Errorf("chunk %d: %w", i, err)
		}
		if c.End < prev {
			return fmt.Errorf("chunk %d ends at %d before previous end %d", i, c.End, prev)
		}
		prev = c.End
		edges += c.Edges
	}
	if len(p.Chunks) > 0 && prev != p.Offset {
		return fmt.Errorf("last chunk ends at %d, offset is %d", prev, p.Offset)
	}
	if edges != p.Edges {
		return fmt.Errorf("chunk edge counts sum to %d, progress records %d", edges, p.Edges)
	}
	if !p.Done {
		if p.Root != "" {
			return fmt.Errorf("root set on an unfinished PE")
		}
		return nil
	}
	var root merkle.Digest
	if err := decodeDigest(p.Root, &root); err != nil {
		return fmt.Errorf("root: %w", err)
	}
	leaves, err := p.leafDigests()
	if err != nil {
		return err
	}
	if merkle.Root(leaves) != root {
		return fmt.Errorf("merkle root does not reproduce from the chunk digests")
	}
	return nil
}
