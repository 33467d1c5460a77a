package job

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	kagen "repro"
	"repro/internal/merkle"
	"repro/internal/storage"
)

// mergeBytes merges a job to a fresh destination through MergeToFile and
// returns the merged object's bytes.
func mergeBytes(t *testing.T, dir, dest string) []byte {
	t.Helper()
	if err := MergeToFile(dir, dest); err != nil {
		t.Fatal(err)
	}
	store, err := storage.Resolve(dest)
	if err != nil {
		t.Fatal(err)
	}
	b, err := store.Get(dest)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// plainSHA returns the hex SHA-256 of b, decompressed first for a
// compressed format.
func plainSHA(t *testing.T, b []byte, format kagen.Format) string {
	t.Helper()
	if format.Compressed() {
		zr, err := gzip.NewReader(bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		if b, err = io.ReadAll(zr); err != nil {
			t.Fatal(err)
		}
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestMergeBytesPinnedAcrossCommits pins the merged stream to what the
// decoding merge — shards parsed to edges and re-encoded through one
// format sink — wrote before merge became a byte-level copy. The digests
// were computed with that merge writing to a local file: text and plain
// binary must reproduce them byte for byte (plain binary with the exact
// edge count in its header, which the old merge only wrote to a seekable
// file); the .gz formats differ in member layout only, so their
// decompressed bytes must. Every backend, at one and at four goroutines.
// The third instance has mostly empty chunks.
func TestMergeBytesPinnedAcrossCommits(t *testing.T) {
	setupJobS3(t, 1)
	instances := []struct {
		spec Spec
		want map[string]string // format -> SHA-256 (decompressed for .gz)
	}{
		{Spec{Model: "gnm_undirected", N: 600, M: 4000, Seed: 99, PEs: 4, ChunksPerPE: 3, Workers: 2}, map[string]string{
			"text":      "30af1c39c31b02899a392b0e19eb62c95e2e34c787515549a02180df3469878a",
			"binary":    "ae6221528f21b79c29297dd96be71b646a8a026f32da8ea83221da60f3ca410a",
			"text.gz":   "30af1c39c31b02899a392b0e19eb62c95e2e34c787515549a02180df3469878a",
			"binary.gz": "c75520d73f57f41f556e01b373f0ddcc2c485b5486a1144927ae0b96bb930530"}},
		{Spec{Model: "rgg2d", N: 500, R: 0.07, Seed: 99, PEs: 4, ChunksPerPE: 3, Workers: 2}, map[string]string{
			"text":      "3eb60d3493ba8bcce9fed3d6efe217f2ade58b2080e645e38e92694944b2465a",
			"binary":    "c6d66aa4e9b7b5487710ab5a9385a060bf1de6481cddae7871d1928e463acbf5",
			"text.gz":   "3eb60d3493ba8bcce9fed3d6efe217f2ade58b2080e645e38e92694944b2465a",
			"binary.gz": "3077be5c34732f7a1688d36c7f7b670c48e74018eb307eacc65b91e26d4e139e"}},
		{Spec{Model: "gnm_undirected", N: 256, M: 8, Seed: 3, PEs: 2, ChunksPerPE: 4, Workers: 1}, map[string]string{
			"text":      "dcf0a557f9325f02f2a5647e6d12df38cae19539f73f8118d48e3b05120a6f82",
			"binary":    "03be0f2ef6ad612f3d6a34d1ac51621cb8c96fccb790f70b72648feb5283ed17",
			"text.gz":   "dcf0a557f9325f02f2a5647e6d12df38cae19539f73f8118d48e3b05120a6f82",
			"binary.gz": "4a729694afd9ac4bb5b0a862eed19c408ec91e7d0d3818992dd53b017fc8a01f"}},
	}
	for i, inst := range instances {
		for _, format := range kagen.Formats() {
			spec := inst.spec
			spec.Format = string(format)
			for _, backend := range []string{"fs", "s3"} {
				dir, merged := t.TempDir(), ""
				if backend == "s3" {
					dir = fmt.Sprintf("s3://bkt/mergepin/pin%d-%s", i, strings.ReplaceAll(spec.Format, ".", ""))
				}
				if err := Init(dir, spec); err != nil {
					t.Fatal(err)
				}
				runAll(t, dir, spec)
				for _, g := range []int{1, 4} {
					merged = storage.Join(dir, fmt.Sprintf("merged-g%d", g))
					prev := runtime.GOMAXPROCS(g)
					got := plainSHA(t, mergeBytes(t, dir, merged), format)
					runtime.GOMAXPROCS(prev)
					if got != inst.want[spec.Format] {
						t.Errorf("%s %s on %s, GOMAXPROCS=%d: merged sha256 %s, pinned %s",
							spec.Model, format, backend, g, got, inst.want[spec.Format])
					}
				}
			}
		}
	}
}

// TestMergeBinaryHeaderIndependentOfWriter: a plain binary merge carries
// the exact edge count in header bytes 8-15 whatever it is written to.
// The decoding merge patched the count in only when its writer could seek
// (a local file) and wrote the StreamingEdgeCount sentinel to a pipe,
// an object store or an HTTP response.
func TestMergeBinaryHeaderIndependentOfWriter(t *testing.T) {
	setupJobS3(t, 1)
	spec := Spec{Model: "gnm_directed", N: 1000, M: 5000, Seed: 1, PEs: 2, ChunksPerPE: 4, Workers: 1, Format: "binary"}
	dir := t.TempDir()
	if err := Init(dir, spec); err != nil {
		t.Fatal(err)
	}
	runAll(t, dir, spec)
	var pipe bytes.Buffer
	if err := Merge(dir, struct{ io.Writer }{&pipe}); err != nil {
		t.Fatal(err)
	}
	outputs := map[string][]byte{
		"file": mergeBytes(t, dir, filepath.Join(t.TempDir(), "merged.bin")),
		"pipe": pipe.Bytes(),
		"s3":   mergeBytes(t, dir, "s3://bkt/mergehdr/merged.bin"),
	}
	want := outputs["file"]
	if len(want) != 16+16*int(spec.M) {
		t.Fatalf("merged %d bytes, want a 16-byte header and %d edges", len(want), spec.M)
	}
	if n, m := binary.LittleEndian.Uint64(want[0:]), binary.LittleEndian.Uint64(want[8:]); n != spec.N || m != spec.M {
		t.Errorf("header holds n=%d m=%d, want n=%d m=%d", n, m, spec.N, spec.M)
	}
	for name, got := range outputs {
		if !bytes.Equal(got, want) {
			t.Errorf("merge to %s differs from the merge to a file", name)
		}
	}
}

// TestMergeRejectsRottenShard: every shard byte Merge copies is checked
// against the manifest first. Each case rots one shard of a finished job;
// the merge must fail naming the PE and chunk, leave nothing at its
// destination and stop every goroutine it started.
//
// The decoding merge parsed shards and never looked at the manifests. It
// let the digit flip, the truncation (cut at a line end, so every line
// still parses), the extra tail (a well-formed extra edge) and the wrong
// header (a comment line to the text parser) through, merging a graph
// that was not the job's. It caught only the flipped gzip byte, because
// the text it inflated to no longer parsed, and named neither PE nor
// chunk.
func TestMergeRejectsRottenShard(t *testing.T) {
	cases := []struct {
		name, format string
		pe, chunk    int
		rot          func(b []byte, p *PEProgress) []byte
	}{
		{"digit flip", "text", 1, 1, func(b []byte, p *PEProgress) []byte {
			start, end := p.chunkBounds(1)
			i := start + int64(bytes.IndexAny(b[start:end], "0123456789"))
			b[i] = '0' + (b[i]-'0'+1)%10
			return b
		}},
		{"gzip member byte", "text.gz", 2, 1, func(b []byte, p *PEProgress) []byte {
			start, end := p.chunkBounds(1)
			b[(start+end)/2] ^= 0x40
			return b
		}},
		{"truncated", "text", 3, 0, func(b []byte, p *PEProgress) []byte {
			return b[:bytes.LastIndexByte(b[:len(b)-1], '\n')+1]
		}},
		{"extra tail", "text", 0, 0, func(b []byte, p *PEProgress) []byte {
			return append(b, "1 2\n"...)
		}},
		{"wrong header", "text", 2, 0, func(b []byte, p *PEProgress) []byte {
			return append([]byte("# 601\n"), b[len("# 600\n"):]...)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := Spec{Model: "gnm_undirected", N: 600, M: 4000, Seed: 99, PEs: 4, ChunksPerPE: 3, Workers: 2, Format: tc.format}
			dir := t.TempDir()
			if err := Init(dir, spec); err != nil {
				t.Fatal(err)
			}
			runAll(t, dir, spec)
			m, err := ReadManifest(ManifestPath(dir, uint64(tc.pe)/2), spec)
			if err != nil {
				t.Fatal(err)
			}
			path := ShardPath(dir, uint64(tc.pe), spec.ShardFormat())
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.rot(b, m.progress(uint64(tc.pe))), 0o644); err != nil {
				t.Fatal(err)
			}
			for _, g := range []int{1, 4} {
				prev := runtime.GOMAXPROCS(g)
				before := runtime.NumGoroutine()
				dest := filepath.Join(t.TempDir(), "merged")
				err := MergeToFile(dir, dest)
				runtime.GOMAXPROCS(prev)
				want := fmt.Sprintf("PE %d chunk %d:", tc.pe, tc.chunk)
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("GOMAXPROCS=%d: merge returned %v, want an error naming %q", g, err, want)
				}
				if _, serr := os.Stat(dest); !errors.Is(serr, fs.ErrNotExist) {
					t.Errorf("GOMAXPROCS=%d: failed merge left %s behind (%v)", g, dest, serr)
				}
				assertNoGoroutineLeak(t, before)
			}
		})
	}
}

// TestMergeRefusesMisplacedManifest: a manifest counts as the progress of
// the worker its name gives only if it records that worker. With another
// worker's manifest copied into its place — over equal and unequal PE
// ranges, both ways — Merge and Inspect fail and Verify reports a
// manifest fault for the worker. Read by PE records alone, worker 0's
// copy would merge its own shards twice and pass every digest check, and
// worker 1's copy over a longer range would leave Merge short of PE
// records.
func TestMergeRefusesMisplacedManifest(t *testing.T) {
	for _, pes := range []uint64{4, 5} {
		spec := Spec{Model: "gnm_undirected", N: 600, M: 4000, Seed: 99, PEs: pes, ChunksPerPE: 2, Workers: 2, Format: "text"}
		for from := uint64(0); from < 2; from++ {
			to := 1 - from
			dir := t.TempDir()
			if err := Init(dir, spec); err != nil {
				t.Fatal(err)
			}
			runAll(t, dir, spec)
			b, err := os.ReadFile(ManifestPath(dir, from))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(ManifestPath(dir, to), b, 0o644); err != nil {
				t.Fatal(err)
			}
			want := fmt.Sprintf("records worker %d", from)
			if err := Merge(dir, io.Discard); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%d PEs, worker %d's manifest as worker %d's: merge returned %v, want %q", pes, from, to, err, want)
			}
			if _, err := Inspect(dir); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%d PEs, worker %d's manifest as worker %d's: inspect returned %v, want %q", pes, from, to, err, want)
			}
			res, err := Verify(dir, VerifyOptions{All: true})
			if err != nil || len(res.Faults) != 1 || res.Faults[0].Worker != to || res.Faults[0].Reason != FaultManifest {
				t.Errorf("%d PEs, worker %d's manifest as worker %d's: verify returned %+v (%v), want one manifest fault", pes, from, to, res, err)
			}
		}
	}
}

// verifySequential is the one-goroutine Verify the parallel one replaced,
// kept as the reference its result must equal: every PE's sample drawn
// and checked in turn, each chunk collected whole and encoded with
// Format.AppendEdges rather than through the chunk encoder, and its
// payload read whole from its segment.
func verifySequential(dir string, opts VerifyOptions) (*VerifyResult, error) {
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
	res := &VerifyResult{}
	rng := rand.New(rand.NewSource(opts.Seed))
	for w := uint64(0); w < spec.Workers; w++ {
		mpath := ManifestPath(dir, w)
		if _, serr := store.Stat(mpath); errors.Is(serr, fs.ErrNotExist) {
			continue
		}
		m, err := readManifest(store, dir, spec, w)
		if err != nil {
			res.Faults = append(res.Faults, Fault{Worker: w, PE: -1, Chunk: -1, Reason: FaultManifest, Detail: err.Error()})
			continue
		}
		for i := range m.PEs {
			prog := &m.PEs[i]
			if prog.ChunksDone == 0 {
				continue
			}
			res.PEsChecked++
			pe := int64(prog.PE)
			f, err := store.Open(ShardPath(dir, prog.PE, format))
			if err != nil {
				res.Faults = append(res.Faults, Fault{Worker: w, PE: pe, Chunk: -1, Reason: FaultShard, Detail: err.Error()})
				continue
			}
			leaves, _ := prog.leafDigests()
			var root merkle.Digest
			haveRoot := prog.Done && decodeDigest(prog.Root, &root) == nil
			first, _ := spec.ChunkRange(prog.PE)
			for _, c := range sampleIndices(int(prog.ChunksDone), opts, rng) {
				res.ChunksChecked++
				rec := prog.Chunks[c]
				fault := func(reason, detail string) {
					res.Faults = append(res.Faults, Fault{Worker: w, PE: pe, Chunk: int64(c), Reason: reason, Detail: detail})
				}
				var em kagen.Emitter
				if err := streamer.EmitChunk(first+uint64(c), &em); err != nil {
					fault(FaultManifestDigest, fmt.Sprintf("cannot re-derive chunk: %v", err))
					continue
				}
				leaf := merkle.Digest(sha256.Sum256(payloadFormat(format).AppendEdges(nil, em.Edges())))
				edges := uint64(len(em.Edges()))
				if hex.EncodeToString(leaf[:]) != rec.Digest || edges != rec.Edges {
					fault(FaultManifestDigest, fmt.Sprintf("manifest records digest %.12s…/%d edges, spec derives %.12s…/%d", rec.Digest, rec.Edges, hex.EncodeToString(leaf[:]), edges))
					continue
				}
				if haveRoot && !merkle.VerifyProof(leaf, merkle.Proof(leaves, c), root) {
					fault(FaultMerkleRoot, "inclusion proof does not reach the committed root")
					continue
				}
				start, end := prog.chunkBounds(c)
				disk, err := readChunkPayload(f, format, start, end)
				if err != nil {
					fault(FaultShard, fmt.Sprintf("bytes [%d,%d): %v", start, end, err))
					continue
				}
				if sha256.Sum256(disk) != leaf {
					fault(FaultShard, fmt.Sprintf("bytes [%d,%d) do not reproduce the chunk digest", start, end))
				}
			}
			f.Close()
		}
	}
	return res, nil
}

// readChunkPayload reads a chunk's payload whole from its segment
// [start, end): verbatim for plain formats, decompressed for compressed
// ones.
func readChunkPayload(ra io.ReaderAt, format kagen.Format, start, end int64) ([]byte, error) {
	if end == start {
		return nil, nil
	}
	raw := make([]byte, end-start)
	if _, err := ra.ReadAt(raw, start); err != nil {
		return nil, err
	}
	if !format.Compressed() {
		return raw, nil
	}
	gz, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	defer gz.Close()
	return io.ReadAll(gz)
}

// TestVerifyParallelMatchesSequential: checking chunks on many goroutines
// changes nothing Verify reports. With faults in three PEs of two workers
// — flipped bytes, a truncated shard, a missing one — the parallel pass
// at one and at four goroutines returns exactly the sequential
// reference's result, fault order included, exhaustively and sampled.
// Repair driven by those faults restores the clean shards.
func TestVerifyParallelMatchesSequential(t *testing.T) {
	for _, format := range []string{"text", "text.gz"} {
		t.Run(format, func(t *testing.T) {
			spec := Spec{Model: "gnm_undirected", N: 600, M: 4000, Seed: 8, PEs: 4, ChunksPerPE: 4, Workers: 2, Format: format}
			clean, dir := t.TempDir(), t.TempDir()
			for _, d := range []string{clean, dir} {
				if err := Init(d, spec); err != nil {
					t.Fatal(err)
				}
				runAll(t, d, spec)
			}
			rot := func(pe uint64, edit func(b []byte, p *PEProgress) []byte) {
				m, err := ReadManifest(ManifestPath(dir, pe/2), spec)
				if err != nil {
					t.Fatal(err)
				}
				path := ShardPath(dir, pe, spec.ShardFormat())
				b, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, edit(b, m.progress(pe)), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			flip := func(chunk int) func(b []byte, p *PEProgress) []byte {
				return func(b []byte, p *PEProgress) []byte {
					start, end := p.chunkBounds(chunk)
					b[(start+end)/2] ^= 0x01
					return b
				}
			}
			rot(0, flip(2))
			rot(1, flip(0))
			rot(1, flip(3))
			rot(3, func(b []byte, p *PEProgress) []byte {
				_, end := p.chunkBounds(1)
				return b[:end+3]
			})
			for _, opts := range []VerifyOptions{{All: true}, {Sample: 2, Seed: 5}, {Sample: 3, Seed: 77}} {
				want, err := verifySequential(dir, opts)
				if err != nil {
					t.Fatal(err)
				}
				if opts.All && len(want.Faults) != 5 {
					t.Fatalf("reference finds %d faults, want 5: %v", len(want.Faults), want.Faults)
				}
				for _, g := range []int{1, 4} {
					prev := runtime.GOMAXPROCS(g)
					got, err := Verify(dir, opts)
					runtime.GOMAXPROCS(prev)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%+v, GOMAXPROCS=%d:\n got %+v\nwant %+v", opts, g, got, want)
					}
				}
			}

			// A lost shard is one PE-wide fault, and draws no sample.
			lost := ShardPath(dir, 2, spec.ShardFormat())
			saved, err := os.ReadFile(lost)
			if err != nil {
				t.Fatal(err)
			}
			os.Remove(lost)
			opts := VerifyOptions{Sample: 2, Seed: 5}
			want, _ := verifySequential(dir, opts)
			got, err := Verify(dir, opts)
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("with PE 2's shard lost:\n got %+v (%v)\nwant %+v", got, err, want)
			}
			if err := os.WriteFile(lost, saved, 0o644); err != nil {
				t.Fatal(err)
			}

			res, err := Verify(dir, VerifyOptions{All: true})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Repair(dir, res.Faults); err != nil {
				t.Fatal(err)
			}
			if after, err := Verify(dir, VerifyOptions{All: true}); err != nil || !after.OK() {
				t.Fatalf("faults survive repair: %v (%v)", after, err)
			}
			assertShardsAndMergeEqual(t, clean, dir, spec)
		})
	}
}

// TestVerifierRederivesInOneBlock: a verifier re-derives a chunk through
// its chunk encoder over the plain payload format and finds the payload
// digest and edge count the job's compressed encoder computes, holding
// one block whatever the chunk's size — and, once warm, allocating
// nothing.
func TestVerifierRederivesInOneBlock(t *testing.T) {
	spec := Spec{Model: "gnm_directed", N: 1 << 20, M: 1 << 20, Seed: 4, PEs: 2, ChunksPerPE: 1, Workers: 1, Format: "text.gz"}
	streamer, err := spec.Streamer()
	if err != nil {
		t.Fatal(err)
	}
	enc := &newChunkEncoders(spec.ShardFormat(), 1).enc[0]
	encs := newChunkEncoders(payloadFormat(spec.ShardFormat()), 1)
	v := verifier{spec: spec, streamer: streamer, enc: &encs.enc[0]}
	for chunk := uint64(0); chunk < 2; chunk++ {
		want, err := enc.encodeTo(nil, func(e *chunkEncoder) error { return streamer.EmitChunk(chunk, &e.em) })
		if err != nil {
			t.Fatal(err)
		}
		got, err := v.rederive(chunk)
		if err != nil {
			t.Fatal(err)
		}
		if got.payload != want.payload || got.edges != want.edges {
			t.Errorf("chunk %d: re-derived %x/%d edges, encoder %x/%d", chunk, got.payload, got.edges, want.payload, want.edges)
		}
		if got.payloadBytes < 4<<20 || got.wireBytes != got.payloadBytes {
			t.Fatalf("chunk %d: %d payload bytes, %d wire bytes: want >= 4 MiB of plain payload", chunk, got.payloadBytes, got.wireBytes)
		}
	}
	if n := encs.blocks.peak; n != 1 {
		t.Errorf("verifier held %d blocks at once, want 1", n)
	}
	if allocs := testing.AllocsPerRun(2, func() {
		if _, err := v.rederive(1); err != nil {
			t.Error(err)
		}
	}); allocs != 0 {
		t.Errorf("%.0f allocs per re-derived chunk after warm-up, want 0", allocs)
	}
}

// FuzzReadManifest feeds the manifest parser bytes it did not write. Merge
// copies shard byte ranges straight out of what it accepts, so an accepted
// manifest must describe segments that tile each shard: chunk ends at or
// past the header end, monotone, the last one at the committed offset, a
// record per committed chunk and every chunk of a finalized PE. Nothing
// may panic. The seeds are the manifests of a real 4 PE x 16 chunk job,
// finished and interrupted.
func FuzzReadManifest(f *testing.F) {
	spec := Spec{Model: "gnm_undirected", N: 4096, M: 16384, Seed: 7, PEs: 4, ChunksPerPE: 16, Workers: 2, Format: "text.gz"}
	for _, interrupt := range []bool{false, true} {
		dir := f.TempDir()
		if err := Init(dir, spec); err != nil {
			f.Fatal(err)
		}
		for w := uint64(0); w < spec.Workers; w++ {
			opts := RunOptions{}
			if interrupt {
				opts.OnCheckpoint = interruptAfter(5 + 20*int(w))
			}
			if err := Run(dir, w, opts); err != nil && !errors.Is(err, errSimCrash) {
				f.Fatal(err)
			}
			b, err := os.ReadFile(ManifestPath(dir, w))
			if err != nil {
				f.Fatal(err)
			}
			f.Add(b)
		}
	}
	spec = spec.Normalized()
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := parseManifest(b, "fuzz.json", spec)
		if err != nil {
			return
		}
		lo, hi := spec.WorkerPEs(m.Worker)
		if uint64(len(m.PEs)) != hi-lo {
			t.Fatalf("accepted %d PE records for worker %d's %d PEs", len(m.PEs), m.Worker, hi-lo)
		}
		for i, p := range m.PEs {
			if p.PE != lo+uint64(i) || uint64(len(p.Chunks)) != p.ChunksDone || p.ChunksDone > spec.ChunksPerPE ||
				(p.Done && p.ChunksDone != spec.ChunksPerPE) {
				t.Fatalf("accepted PE record %d: %+v", i, p)
			}
			if p.HeaderEnd < 0 || p.HeaderEnd > p.Offset {
				t.Fatalf("PE %d: header end %d outside [0, offset %d]", p.PE, p.HeaderEnd, p.Offset)
			}
			prev := p.HeaderEnd
			for c := range p.Chunks {
				start, end := p.chunkBounds(c)
				if start != prev || end < start {
					t.Fatalf("PE %d chunk %d: segment [%d,%d) after end %d", p.PE, c, start, end, prev)
				}
				prev = end
			}
			if prev != p.Offset {
				t.Fatalf("PE %d: segments end at %d, offset is %d", p.PE, prev, p.Offset)
			}
		}
	})
}
