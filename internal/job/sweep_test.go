package job

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/failpoint"
	"repro/internal/storage"
)

// auditStore wraps a backend for the crash sweep and checks, on every
// manifest that reaches the store, the two invariants the asynchronous
// checkpoint rests on:
//
//   - durability order: no PE's recorded offset is past what the last
//     completed Sync (or Finalize) of its shard vouched for;
//   - chunk-prefix state: every PE's record is a prefix of the finished
//     job's, and no PE has progress before its predecessor is done —
//     the states the one-PE-at-a-time runner could write.
//
// gate, when set, holds PE 0's Finalize until PE 1's shard has committed
// its header and a chunk: the "PE k finishing while PE k+1 has committed
// chunks" crash point, made deterministic.
type auditStore struct {
	storage.Backend
	t     *testing.T
	what  string
	dir   string
	spec  Spec
	final *Manifest // the finished job's manifest
	gate  bool

	mu      sync.Mutex
	synced  map[string]int64 // shard name -> durable prefix vouched for
	commits map[string]int
	cond    *sync.Cond
}

func newAuditStore(t *testing.T, what, dir string, spec Spec, final *Manifest, gate bool) *auditStore {
	store, err := storage.Resolve(dir)
	if err != nil {
		t.Fatal(err)
	}
	a := &auditStore{Backend: store, t: t, what: what, dir: dir, spec: spec, final: final, gate: gate,
		synced: map[string]int64{}, commits: map[string]int{}}
	a.cond = sync.NewCond(&a.mu)
	return a
}

func (a *auditStore) CreateShard(name string) (storage.ShardWriter, error) {
	sw, err := a.Backend.CreateShard(name)
	a.mu.Lock()
	a.synced[name] = 0
	a.mu.Unlock()
	return &auditShard{sw, a, name}, err
}

func (a *auditStore) ResumeShard(name string, off int64) (storage.ShardWriter, error) {
	sw, err := a.Backend.ResumeShard(name, off)
	a.mu.Lock()
	a.synced[name] = off // a manifest recorded it, so a Sync vouched for it
	a.mu.Unlock()
	return &auditShard{sw, a, name}, err
}

func (a *auditStore) Put(name string, data []byte, opts storage.PutOptions) error {
	if name == ManifestPath(a.dir, 0) {
		a.checkManifest(data)
	}
	return a.Backend.Put(name, data, opts)
}

func (a *auditStore) checkManifest(data []byte) {
	scratch := "mem://sweep-audit/manifest.json"
	mem, err := storage.Resolve(scratch)
	if err != nil {
		a.t.Fatal(err)
	}
	if err := mem.Put(scratch, data, storage.PutOptions{}); err != nil {
		a.t.Fatal(err)
	}
	m, err := ReadManifest(scratch, a.spec)
	if err != nil {
		a.t.Errorf("%s: published manifest does not validate: %v", a.what, err)
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	format := a.spec.ShardFormat()
	for i := range m.PEs {
		p, want := &m.PEs[i], &a.final.PEs[i]
		if p.Offset > 0 {
			if i > 0 && !m.PEs[i-1].Done {
				a.t.Errorf("%s: PE %d has progress recorded before PE %d is done", a.what, p.PE, m.PEs[i-1].PE)
			}
			if p.HeaderEnd != want.HeaderEnd {
				a.t.Errorf("%s: PE %d header end %d, finished job has %d", a.what, p.PE, p.HeaderEnd, want.HeaderEnd)
			}
		}
		for c, rec := range p.Chunks {
			if rec != want.Chunks[c] {
				a.t.Errorf("%s: PE %d chunk %d recorded as %+v, finished job has %+v", a.what, p.PE, c, rec, want.Chunks[c])
			}
		}
		if p.Done && p.Root != want.Root {
			a.t.Errorf("%s: PE %d root %s, finished job has %s", a.what, p.PE, p.Root, want.Root)
		}
		if dur, opened := a.synced[ShardPath(a.dir, p.PE, format)]; opened && p.Offset > dur {
			a.t.Errorf("%s: manifest records PE %d at offset %d, last completed Sync vouched for %d", a.what, p.PE, p.Offset, dur)
		}
	}
}

type auditShard struct {
	storage.ShardWriter
	a    *auditStore
	name string
}

func (s *auditShard) Commit(d [32]byte) (int64, error) {
	off, err := s.ShardWriter.Commit(d)
	s.a.mu.Lock()
	s.a.commits[s.name]++
	s.a.mu.Unlock()
	s.a.cond.Broadcast()
	return off, err
}

func (s *auditShard) Sync() (int64, error) {
	dur, err := s.ShardWriter.Sync()
	if err == nil {
		s.a.mu.Lock()
		s.a.synced[s.name] = max(s.a.synced[s.name], dur)
		s.a.mu.Unlock()
	}
	return dur, err
}

func (s *auditShard) Finalize() error {
	a := s.a
	format := a.spec.ShardFormat()
	if a.gate && s.name == ShardPath(a.dir, 0, format) {
		next := ShardPath(a.dir, 1, format)
		timeout := time.AfterFunc(10*time.Second, func() {
			a.t.Errorf("%s: PE 1 never committed a chunk while PE 0 was finishing", a.what)
			a.mu.Lock()
			a.commits[next] = 2
			a.mu.Unlock()
			a.cond.Broadcast()
		})
		a.mu.Lock()
		for a.commits[next] < 2 { // header, then a chunk
			a.cond.Wait()
		}
		a.mu.Unlock()
		timeout.Stop()
	}
	err := s.ShardWriter.Finalize()
	if err == nil {
		a.mu.Lock()
		a.synced[s.name] = math.MaxInt64
		a.mu.Unlock()
	}
	return err
}

// TestCheckpointCrashSweep crashes a job at every failpoint site of the
// checkpoint path — the per-chunk sites, the manifest publish sites inside
// the backends, and the sites between the steps of a round — on each of
// their first k evaluations, for every shard format kind, backend and
// goroutine count; resumes it under the other goroutine count; and
// requires shards, manifest and merged output byte-identical to an
// uninterrupted run, and a clean exhaustive verify. Every manifest
// published on the way is checked by auditStore.
func TestCheckpointCrashSweep(t *testing.T) {
	setupJobS3(t, 1)
	t.Cleanup(failpoint.Reset)
	type site struct {
		name  string
		local bool // reaches into the shard file: filesystem only
		gate  bool // hold PE 0's Finalize until PE 1 has committed a chunk
	}
	sites := []site{
		{name: "job/crash"},
		{name: "job/torn-tail", local: true},
		{name: "job/shard-truncate", local: true},
		{name: "job/chunk-bitflip", local: true},
		{name: "job/crash-before-rename"},
		{name: "job/manifest-truncate"},
		{name: "job/crash-after-sync"},
		{name: "job/crash-after-publish"},
		{name: "job/crash-before-finalize"},
		{name: "job/crash-after-finalize"},
		{name: "job/crash-after-finalize", gate: true},
	}
	goroutines := []int{1, 3}
	for _, format := range []string{"text", "binary", "text.gz"} {
		spec := Spec{Model: "gnm_undirected", N: 600, M: 4000, Seed: 77,
			PEs: 2, ChunksPerPE: 2, Workers: 1, Format: format}
		// A job publishes at most one manifest per chunk and one per
		// finished PE after the initial one, so no site is evaluated more
		// often than this.
		rounds := int(spec.PEs*(spec.ChunksPerPE+1)) + 1

		ref := t.TempDir()
		if err := Init(ref, spec); err != nil {
			t.Fatal(err)
		}
		if err := Run(ref, 0, RunOptions{Goroutines: 1}); err != nil {
			t.Fatal(err)
		}
		want := jobBytes(t, ref, spec)
		var wantMerged bytes.Buffer
		if err := Merge(ref, &wantMerged); err != nil {
			t.Fatal(err)
		}
		final, err := ReadManifest(ManifestPath(ref, 0), spec)
		if err != nil {
			t.Fatal(err)
		}

		for _, backend := range []string{"fs", "mem", "s3"} {
			for _, s := range sites {
				if s.local && backend != "fs" {
					continue
				}
				for gi, g := range goroutines {
					fired := 0
					for countdown := 1; countdown <= rounds; countdown++ {
						if s.gate && countdown > 1 {
							break
						}
						id := fmt.Sprintf("%s-%s-g%d-n%d", strings.ReplaceAll(format, ".", ""),
							strings.ReplaceAll(s.name, "/", "_"), g, countdown)
						if s.gate {
							id += "-gated"
						}
						var dir string
						switch backend {
						case "fs":
							dir = t.TempDir()
						case "mem":
							dir = "mem://sweep/" + id
						case "s3":
							dir = "s3://bkt/sweep/" + id
						}
						what := fmt.Sprintf("%s/%s/%s=%d/G=%d", format, backend, s.name, countdown, g)
						if s.gate {
							what += "/gated"
						}
						if err := Init(dir, spec); err != nil {
							t.Fatal(err)
						}

						failpoint.Arm(s.name, countdown)
						err := run(newAuditStore(t, what, dir, spec, final, s.gate), dir, 0, RunOptions{Goroutines: g})
						didFire := !failpoint.Armed()
						failpoint.Reset()
						switch {
						case !didFire && err != nil:
							t.Fatalf("%s: run failed without the failpoint firing: %v", what, err)
						case didFire && s.name == "job/chunk-bitflip" && err != nil:
							t.Fatalf("%s: the bitflip does not stop a run, got %v", what, err)
						case didFire && s.name != "job/chunk-bitflip" && !errors.Is(err, failpoint.ErrCrash):
							t.Fatalf("%s: run returned %v, want the simulated crash", what, err)
						}
						if didFire {
							fired++
						}

						resumeG := goroutines[(gi+1)%len(goroutines)]
						switch {
						case didFire && (s.name == "job/manifest-truncate" || s.name == "job/chunk-bitflip"):
							// Rot, not a crash: resume refuses a torn manifest and a
							// flipped bit survives a run. Verify finds it, repair
							// mends it and finishes the worker.
							if s.name == "job/manifest-truncate" {
								if err := Resume(dir, 0, RunOptions{}); err == nil {
									t.Fatalf("%s: resume over a torn manifest succeeded", what)
								}
							}
							res, err := Verify(dir, VerifyOptions{All: true})
							if err != nil {
								t.Fatal(err)
							}
							if len(res.Faults) == 0 {
								t.Fatalf("%s: verify found nothing to repair", what)
							}
							rep, err := Repair(dir, res.Faults)
							if err != nil || len(rep.Unrepaired) != 0 {
								t.Fatalf("%s: repair: %+v, %v", what, rep, err)
							}
						default:
							if err := run(newAuditStore(t, what+"/resume", dir, spec, final, false), dir, 0,
								RunOptions{Goroutines: resumeG}); err != nil {
								t.Fatalf("%s: resume under G=%d: %v", what, resumeG, err)
							}
						}
						if s.name == "job/shard-truncate" || s.name == "job/chunk-bitflip" {
							// The resume audit keeps what it cut off; not part of the job.
							store, _ := storage.Resolve(dir)
							for pe := uint64(0); pe < spec.PEs; pe++ {
								store.Delete(ShardPath(dir, pe, spec.ShardFormat()) + ".quarantine")
							}
						}

						assertJobBytes(t, what, jobBytes(t, dir, spec), want)
						var merged bytes.Buffer
						if err := Merge(dir, &merged); err != nil {
							t.Fatalf("%s: merge: %v", what, err)
						}
						if !bytes.Equal(merged.Bytes(), wantMerged.Bytes()) {
							t.Errorf("%s: merged output differs from an uninterrupted run", what)
						}
						res, err := Verify(dir, VerifyOptions{All: true})
						if err != nil {
							t.Fatal(err)
						}
						if !res.OK() {
							t.Errorf("%s: faults after resume: %v", what, res.Faults)
						}
						if t.Failed() {
							t.FailNow() // one broken crash point is enough output
						}
					}
					if fired == 0 {
						t.Errorf("%s/%s/%s/G=%d: the site never fired", format, backend, s.name, g)
					}
				}
			}
		}
	}
}
