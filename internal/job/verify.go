package job

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"runtime"
	"slices"

	kagen "repro"
	"repro/internal/merkle"
	"repro/internal/obs"
	"repro/internal/pe"
	"repro/internal/storage"
)

// Fault reasons reported by Verify.
const (
	// FaultManifest: the worker manifest is missing, unparseable, or fails
	// strict validation — nothing it claims can be trusted.
	FaultManifest = "manifest-unreadable"
	// FaultManifestDigest: a chunk re-derived from the spec does not match
	// the digest (or edge count) the manifest records for it — the
	// manifest lies about what was generated.
	FaultManifestDigest = "manifest-digest"
	// FaultMerkleRoot: a chunk's inclusion proof does not carry its leaf
	// up to the PE's committed root.
	FaultMerkleRoot = "merkle-root"
	// FaultShard: the bytes on disk for a chunk do not reproduce the
	// chunk's payload digest — rot, truncation, or tampering in the shard
	// file itself. Unreadable or undecompressable chunk segments are
	// reported as this too: corruption is the conservative reading of any
	// failed read.
	FaultShard = "shard-corrupt"
)

// Fault is one integrity failure found by Verify. PE and Chunk are -1
// for faults scoped to a whole worker or a whole shard file.
type Fault struct {
	Worker uint64 `json:"worker"`
	PE     int64  `json:"pe"`
	Chunk  int64  `json:"chunk"`
	Reason string `json:"reason"`
	Detail string `json:"detail,omitempty"`
}

func (f Fault) String() string {
	return fmt.Sprintf("worker %d pe %d chunk %d: %s (%s)", f.Worker, f.PE, f.Chunk, f.Reason, f.Detail)
}

// VerifyOptions tune a verification pass.
type VerifyOptions struct {
	// All checks every committed chunk of every PE; otherwise a random
	// sample of Sample chunks per PE is checked.
	All bool
	// Sample is the number of chunks checked per PE when All is false
	// (0 = 2). With a corruption fraction f among a PE's chunks, a sample
	// of s misses with probability (1-f)^s — see DESIGN.md.
	Sample int
	// Seed seeds the sampling; equal seeds check equal chunks.
	Seed int64
}

// VerifyResult aggregates one verification pass.
type VerifyResult struct {
	ChunksChecked int     `json:"chunks_checked"`
	PEsChecked    int     `json:"pes_checked"`
	Faults        []Fault `json:"faults,omitempty"`
}

// OK reports a clean pass.
func (r *VerifyResult) OK() bool { return len(r.Faults) == 0 }

// Verify checks a job directory's committed state against the spec. It
// is communication-free in exactly the sense the generator is: every
// chunk's expected bytes are re-derived from the spec via the O(log P)
// seeded descent, hashed, and compared against the manifest record, the
// PE's Merkle root (for finalized PEs, through an inclusion proof), and
// the bytes on disk. No worker's manifest is trusted over the spec.
//
// The chunks to check are drawn first, worker by worker and PE by PE from
// the one seeded source, so equal seeds check equal chunks. Each check is
// then one unit of pe.Ordered on GOMAXPROCS goroutines, and the faults
// come back in the order the checks were drawn: the result does not
// depend on the goroutine count.
//
// Workers that have not started are skipped — absence of progress is not
// a fault. An incomplete job verifies its committed prefix.
func Verify(dir string, opts VerifyOptions) (*VerifyResult, error) {
	store, err := storage.Resolve(dir)
	if err != nil {
		return nil, err
	}
	spec, err := loadSpec(store, dir)
	if err != nil {
		return nil, err
	}
	streamer, err := spec.Streamer()
	if err != nil {
		return nil, err
	}
	format := spec.ShardFormat()
	log := obs.Logger("job")
	log.Info("verify starting", "dir", dir, "spec", spec.Hash(), "all", opts.All)
	res := &VerifyResult{}
	rng := rand.New(rand.NewSource(opts.Seed))
	var checks []chunkCheck
	for w := uint64(0); w < spec.Workers; w++ {
		mpath := ManifestPath(dir, w)
		if _, serr := store.Stat(mpath); errors.Is(serr, fs.ErrNotExist) {
			continue
		}
		m, err := readManifest(store, dir, spec, w)
		if err != nil {
			checks = append(checks, chunkCheck{fault: &Fault{Worker: w, PE: -1, Chunk: -1, Reason: FaultManifest, Detail: err.Error()}})
			continue
		}
		for i := range m.PEs {
			prog := &m.PEs[i]
			if prog.ChunksDone == 0 {
				continue
			}
			res.PEsChecked++
			// A shard that cannot be opened is one fault for its PE, and
			// draws no sample.
			path := ShardPath(dir, prog.PE, format)
			f, err := store.Open(path)
			if err != nil {
				checks = append(checks, chunkCheck{fault: &Fault{Worker: w, PE: int64(prog.PE), Chunk: -1, Reason: FaultShard, Detail: err.Error()}})
				continue
			}
			f.Close()
			sample := sampleIndices(int(prog.ChunksDone), opts, rng)
			res.ChunksChecked += len(sample)
			for _, c := range sample {
				checks = append(checks, chunkCheck{worker: w, prog: prog, chunk: c, path: path})
			}
		}
	}
	verifiers := make([]verifier, runtime.GOMAXPROCS(0))
	// A chunk's digest is taken before compression, so the encoders run
	// the format's plain payload encoding: Verify builds no gzip member
	// only to throw it away.
	encs := newChunkEncoders(payloadFormat(format), len(verifiers))
	for i := range verifiers {
		verifiers[i] = verifier{spec: spec, streamer: streamer, enc: &encs.enc[i], shards: checkingReader(store, format)}
	}
	pe.Ordered(0, len(checks), len(verifiers),
		func(worker, i int, send func(*Fault, bool) bool) { send(verifiers[worker].check(&checks[i]), true) },
		func(_ int, f *Fault, _ bool) error {
			if f != nil {
				res.Faults = append(res.Faults, *f)
			}
			return nil
		},
		func(*Fault) {})
	for i := range verifiers {
		verifiers[i].shards.close()
	}
	if res.OK() {
		log.Info("verify clean", "dir", dir, "pes_checked", res.PEsChecked, "chunks_checked", res.ChunksChecked)
	} else {
		log.Warn("verify found faults", "dir", dir, "faults", len(res.Faults),
			"pes_checked", res.PEsChecked, "chunks_checked", res.ChunksChecked)
	}
	return res, nil
}

// chunkCheck is one unit of a verify pass: a sampled chunk of a PE, or a
// fault found while drawing them, kept in its place in the report.
type chunkCheck struct {
	fault  *Fault
	worker uint64
	prog   *PEProgress
	chunk  int // within the PE
	path   string
}

// verifier is one verify goroutine's scratch, kept for the whole pass: a
// chunk encoder with its Emitter, which re-derives chunks, and a reader
// of shard segments.
type verifier struct {
	spec     Spec
	streamer kagen.Streamer
	enc      *chunkEncoder
	shards   shardReader
}

// payloadFormat returns the format without its gzip layer: the encoding
// a chunk's digest is taken over.
func payloadFormat(f kagen.Format) kagen.Format {
	if f.Binary() {
		return kagen.FormatBinary
	}
	return kagen.FormatText
}

// rederive regenerates one global chunk through the encoder, dropping its
// blocks as they fill, and returns the trailer: payload digest and edge
// count.
func (v *verifier) rederive(chunk uint64) (chunkTrailer, error) {
	return v.enc.encodeTo(nil, func(e *chunkEncoder) error { return v.streamer.EmitChunk(chunk, &e.em) })
}

// check runs one unit of a verify pass and returns its fault, if any.
func (v *verifier) check(k *chunkCheck) *Fault {
	if k.fault != nil {
		return k.fault
	}
	p, c := k.prog, k.chunk
	fault := func(reason, format string, args ...any) *Fault {
		return &Fault{Worker: k.worker, PE: int64(p.PE), Chunk: int64(c), Reason: reason, Detail: fmt.Sprintf(format, args...)}
	}
	first, _ := v.spec.ChunkRange(p.PE)
	t, err := v.rederive(first + uint64(c))
	if err != nil {
		return fault(FaultManifestDigest, "cannot re-derive chunk: %v", err)
	}
	leaf := t.payload
	if rec := p.Chunks[c]; hex.EncodeToString(leaf[:]) != rec.Digest || t.edges != rec.Edges {
		return fault(FaultManifestDigest, "manifest records digest %.12s…/%d edges, spec derives %.12s…/%d", rec.Digest, rec.Edges, hex.EncodeToString(leaf[:]), t.edges)
	}
	if p.Done {
		var root merkle.Digest
		leaves, _ := p.leafDigests() // readManifest has checked them and the root
		decodeDigest(p.Root, &root)
		if !merkle.VerifyProof(leaf, merkle.Proof(leaves, c), root) {
			return fault(FaultMerkleRoot, "inclusion proof does not reach the committed root")
		}
	}
	start, end := p.chunkBounds(c)
	err = v.shards.open(k.path)
	var disk merkle.Digest
	if err == nil {
		disk, err = v.shards.digest(start, end)
	}
	if err != nil {
		return fault(FaultShard, "bytes [%d,%d): %v", start, end, err)
	}
	if disk != leaf {
		return fault(FaultShard, "bytes [%d,%d) do not reproduce the chunk digest", start, end)
	}
	return nil
}

// sampleIndices picks the chunk indices a pass checks: all of them, or a
// seeded random sample without replacement.
func sampleIndices(n int, opts VerifyOptions, rng *rand.Rand) []int {
	if opts.All || n == 0 {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	s := opts.Sample
	if s <= 0 {
		s = 2
	}
	if s > n {
		s = n
	}
	return rng.Perm(n)[:s]
}

// RepairResult aggregates one repair pass.
type RepairResult struct {
	ChunksSpliced  int     `json:"chunks_spliced"`
	PEsReset       int     `json:"pes_reset"`
	WorkersRebuilt int     `json:"workers_rebuilt"`
	Unrepaired     []Fault `json:"unrepaired,omitempty"`
}

// Repair fixes the faults a Verify pass found, without regenerating
// anything that is intact. Each shard with corrupt chunks is rewritten
// once, through the backend's single-shot writer: intact segments are
// copied over, and exactly the failed chunks are regenerated from the spec
// through the chunk encoder into their places (gzip-member-aligned for
// compressed formats). If a regenerated chunk's length does not match its
// committed segment (a different deflate implementation wrote the shard),
// the rewrite is aborted and the whole PE is reset and regenerated
// instead. Manifest-level faults rebuild the worker's manifest from the
// spec and the shard bytes that still match it, then resume the worker to
// regenerate whatever did not.
//
// Repair is as communication-free as generation: any worker holding the
// spec can repair any shard.
func Repair(dir string, faults []Fault) (*RepairResult, error) {
	store, err := storage.Resolve(dir)
	if err != nil {
		return nil, err
	}
	spec, err := loadSpec(store, dir)
	if err != nil {
		return nil, err
	}
	streamer, err := spec.Streamer()
	if err != nil {
		return nil, err
	}
	format := spec.ShardFormat()
	log := obs.Logger("job")
	log.Info("repair starting", "dir", dir, "faults", len(faults))
	res := &RepairResult{}

	byWorker := map[uint64][]Fault{}
	for _, f := range faults {
		byWorker[f.Worker] = append(byWorker[f.Worker], f)
	}
	for w, wfaults := range byWorker {
		rebuild := false
		for _, f := range wfaults {
			if f.Reason != FaultShard {
				rebuild = true
			}
		}
		if rebuild {
			// The manifest cannot be trusted: reconstruct it from the spec
			// and whatever shard prefix still matches, then resume the
			// worker to regenerate the rest.
			if err := RebuildManifest(dir, w); err != nil {
				res.Unrepaired = append(res.Unrepaired, Fault{Worker: w, PE: -1, Chunk: -1, Reason: FaultManifest, Detail: err.Error()})
				continue
			}
			if err := Run(dir, w, RunOptions{}); err != nil {
				res.Unrepaired = append(res.Unrepaired, Fault{Worker: w, PE: -1, Chunk: -1, Reason: FaultManifest, Detail: err.Error()})
				continue
			}
			res.WorkersRebuilt++
			continue
		}
		if err := repairShards(store, dir, spec, streamer, format, w, wfaults, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// repairShards fixes shard-corrupt faults of one worker: one rewrite per
// shard where the regenerated chunks fit, PE resets where they do not.
func repairShards(store storage.Backend, dir string, spec Spec, streamer kagen.Streamer, format kagen.Format, worker uint64, faults []Fault, res *RepairResult) error {
	m, err := readManifest(store, dir, spec, worker)
	if err != nil {
		return err
	}
	// The faulted chunks of each PE, PEs in the order the faults name them;
	// a fault that names no committed chunk resets its PE.
	var pes []uint64
	chunks := map[uint64][]int{}
	resetPEs := map[uint64]bool{}
	for _, f := range faults {
		pe := uint64(f.PE)
		if prog := m.progress(pe); prog == nil || f.Chunk < 0 || int(f.Chunk) >= len(prog.Chunks) {
			resetPEs[pe] = true
			continue
		}
		if chunks[pe] == nil {
			pes = append(pes, pe)
		}
		chunks[pe] = append(chunks[pe], int(f.Chunk))
	}
	lock, err := acquireWorkerLock(dir, worker)
	if err != nil {
		return err
	}
	enc := &newChunkEncoders(format, 1).enc[0]
	for _, pe := range pes {
		if resetPEs[pe] {
			continue
		}
		cs := chunks[pe]
		slices.Sort(cs)
		cs = slices.Compact(cs)
		err := rewriteShard(store, ShardPath(dir, pe, format), spec, streamer, m.progress(pe), cs, enc)
		if errors.Is(err, errMisfit) {
			resetPEs[pe] = true
			continue
		}
		if err != nil {
			lock.Release()
			return err
		}
		res.ChunksSpliced += len(cs)
	}
	// Reset PEs regenerate from scratch: zero their progress under the
	// lock, then resume the worker (which re-acquires it).
	if len(resetPEs) > 0 {
		for pe := range resetPEs {
			if prog := m.progress(pe); prog != nil {
				*prog = PEProgress{PE: pe}
			}
		}
		if err := WriteManifest(ManifestPath(dir, worker), m); err != nil {
			lock.Release()
			return err
		}
	}
	lock.Release()
	if len(resetPEs) > 0 {
		if err := Run(dir, worker, RunOptions{}); err != nil {
			return err
		}
		res.PEsReset += len(resetPEs)
	}
	return nil
}

// errMisfit reports a regenerated chunk whose bytes do not fill its
// committed segment exactly: a foreign deflate wrote the member, and the
// regenerated one cannot take its place without shifting every later
// offset.
var errMisfit = errors.New("job: regenerated chunk does not fit its committed segment")

// rewriteShard rewrites one shard in a single streaming pass through the
// backend's single-shot writer: the segments around the given chunks
// (sorted, distinct) are copied from the old object, and each of those
// chunks is regenerated through enc straight into the new one. Nothing is
// published unless every regenerated chunk fits its segment (errMisfit
// otherwise); the old shard stays as it was.
func rewriteShard(store storage.Backend, path string, spec Spec, streamer kagen.Streamer, prog *PEProgress, chunks []int, enc *chunkEncoder) error {
	src, err := store.Open(path)
	if err != nil {
		return err
	}
	defer src.Close()
	first, _ := spec.ChunkRange(prog.PE)
	return storage.WriteObject(store, path, func(w io.Writer) error {
		var off int64 // where src is
		for _, c := range chunks {
			start, end := prog.chunkBounds(c)
			if _, err := io.CopyN(w, src, start-off); err != nil {
				return err
			}
			t, err := enc.encodeTo(w, func(e *chunkEncoder) error {
				return streamer.EmitChunk(first+uint64(c), &e.em)
			})
			if err != nil {
				return err
			}
			if int64(t.wireBytes) != end-start {
				return errMisfit
			}
			if off, err = src.Seek(end, io.SeekStart); err != nil {
				return err
			}
		}
		_, err := io.Copy(w, src)
		return err
	})
}

// RebuildManifest reconstructs one worker's manifest from the spec and
// its shard files alone: the header and then each chunk are regenerated
// through the chunk encoder, and each shard segment is checked against
// them — the encoder's wire length, its payload digest — as the resume
// audit and Merge check it. Progress is recorded for exactly the prefix
// that matches. The old manifest — missing, corrupt, or lying — is not
// consulted. A shard whose matching prefix covers every chunk and whose
// length matches exactly is finalized with its Merkle root; anything
// shorter is left resumable, so a following Run regenerates only the
// unmatched suffix.
func RebuildManifest(dir string, worker uint64) error {
	store, err := storage.Resolve(dir)
	if err != nil {
		return err
	}
	spec, err := loadSpec(store, dir)
	if err != nil {
		return err
	}
	if worker >= spec.Workers {
		return fmt.Errorf("job: worker %d out of range [0, %d)", worker, spec.Workers)
	}
	streamer, err := spec.Streamer()
	if err != nil {
		return err
	}
	format := spec.ShardFormat()
	lock, err := acquireWorkerLock(dir, worker)
	if err != nil {
		return err
	}
	defer lock.Release()
	enc := &newChunkEncoders(format, 1).enc[0]
	shards := checkingReader(store, format)
	defer shards.close()
	m := newManifest(spec, worker)
	for i := range m.PEs {
		if err := rebuildPE(ShardPath(dir, m.PEs[i].PE, format), spec, streamer, enc, &shards, &m.PEs[i]); err != nil {
			return err
		}
	}
	return writeManifest(store, ManifestPath(dir, worker), m)
}

// rebuildPE fills one PE's progress from its shard's matching prefix.
func rebuildPE(path string, spec Spec, streamer kagen.Streamer, enc *chunkEncoder, shards *shardReader, prog *PEProgress) error {
	if err := shards.open(path); errors.Is(err, fs.ErrNotExist) {
		return nil // no shard: zero progress, Run starts it fresh
	} else if err != nil {
		return err
	}
	// matches reports whether the shard holds at off the segment the
	// encoder just produced.
	matches := func(off int64, t *chunkTrailer) bool {
		d, err := shards.digest(off, off+int64(t.wireBytes))
		return err == nil && d == t.payload
	}
	t, err := enc.encodeHeader(nil, streamer.N())
	if err != nil {
		return err
	}
	if !matches(0, &t) {
		return nil // header does not match: regenerate the shard entirely
	}
	off := int64(t.wireBytes)
	prog.Offset, prog.HeaderEnd = off, off

	first, count := spec.ChunkRange(prog.PE)
	for c := first; c < first+count; c++ {
		t, err := enc.encodeTo(nil, func(e *chunkEncoder) error { return streamer.EmitChunk(c, &e.em) })
		if err != nil {
			return err
		}
		if !matches(off, &t) {
			return nil // mismatching suffix stays unrecorded; Run redoes it
		}
		off += int64(t.wireBytes)
		prog.Chunks = append(prog.Chunks, ChunkRecord{Digest: hex.EncodeToString(t.payload[:]), End: off, Edges: t.edges})
		prog.ChunksDone++
		prog.Offset = off
		prog.Edges += t.edges
	}
	if off == shards.f.Size() {
		leaves, err := prog.leafDigests()
		if err != nil {
			return err
		}
		root := merkle.Root(leaves)
		prog.Root = hex.EncodeToString(root[:])
		prog.Done = true
	}
	// off < size: a torn tail past the last good chunk — left !Done so the
	// following Run truncates it away and finalizes.
	return nil
}

// auditCommitted re-hashes the committed chunks a resume is about to
// extend against their manifest digests. On a mismatch — rot or
// tampering since the checkpoint — the corrupt suffix is copied to a
// .quarantine file beside the shard, the PE's progress is rolled back to
// the last intact chunk, and the rolled-back manifest is committed; the
// caller then regenerates the suffix through the normal resume path.
// Silently appending to corrupt data would launder the corruption into a
// "complete" job, which is the one failure mode a tamper-evident store
// must not have.
func auditCommitted(store storage.Backend, path string, format kagen.Format, n uint64, manifest *Manifest, mpath string, prog *PEProgress) error {
	headerOK, good := intactPrefix(store, path, format, n, prog)
	if headerOK && good == len(prog.Chunks) {
		return nil // everything committed is intact
	}
	// Quarantine before rollback: keep the corrupt evidence, then shrink
	// the manifest so resume regenerates from the last intact chunk.
	obs.Logger("job").Warn("resume audit found corruption; quarantining",
		"shard", path, "pe", prog.PE, "header_ok", headerOK,
		"chunks_intact", good, "chunks_committed", len(prog.Chunks))
	if err := quarantine(store, path, prog, headerOK, good); err != nil {
		return err
	}
	if !headerOK {
		*prog = PEProgress{PE: prog.PE}
	} else {
		goodEnd := prog.HeaderEnd
		var edges uint64
		for c := 0; c < good; c++ {
			goodEnd = prog.Chunks[c].End
			edges += prog.Chunks[c].Edges
		}
		prog.Chunks = prog.Chunks[:good]
		prog.ChunksDone = uint64(good)
		prog.Offset = goodEnd
		prog.Edges = edges
	}
	return writeManifest(store, mpath, manifest)
}

// intactPrefix reports whether a shard's committed header is intact and how
// many of its committed chunks, from the first, reproduce their digests.
func intactPrefix(store storage.Backend, path string, format kagen.Format, n uint64, prog *PEProgress) (headerOK bool, good int) {
	r := checkingReader(store, format)
	defer r.close()
	if r.open(path) != nil {
		return false, 0
	}
	if d, err := r.digest(0, prog.HeaderEnd); err != nil || d != sha256.Sum256(format.AppendHeader(nil, n)) {
		return false, 0
	}
	var want merkle.Digest
	for c := range prog.Chunks {
		start, end := prog.chunkBounds(c)
		d, err := r.digest(start, end)
		if err != nil || decodeDigest(prog.Chunks[c].Digest, &want) != nil || d != want {
			break
		}
		good = c + 1
	}
	return true, good
}

// quarantine copies the corrupt part of a shard (the whole object if the
// header is bad, the suffix past the last intact chunk otherwise) to
// <shard>.quarantine for post-mortem, replacing any previous quarantine.
func quarantine(store storage.Backend, path string, prog *PEProgress, headerOK bool, good int) error {
	src, err := store.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil // nothing in the store to preserve
	}
	if err != nil {
		return err
	}
	defer src.Close()
	var from int64
	if headerOK {
		from = prog.HeaderEnd
		if good > 0 {
			from = prog.Chunks[good-1].End
		}
	}
	if _, err := src.Seek(from, io.SeekStart); err != nil {
		return err
	}
	return storage.WriteObject(store, path+".quarantine", func(w io.Writer) error {
		_, err := io.Copy(w, src)
		return err
	})
}
