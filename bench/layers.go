package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	kagen "repro"
	"repro/internal/job"
	"repro/internal/merkle"
	"repro/internal/obs"
	"repro/internal/storage"
)

// captureEdges bounds the edges kept from the generator replay as input
// to the codec replays (encode, digest, compress).
const captureEdges = 1 << 20

// maxTracedRounds caps the traced-run loop on workloads whose job is so
// small that the time budget would hold hundreds of rounds.
const maxTracedRounds = 10

// discardSink is the kagen.Sink that keeps nothing: what remains of a
// Stream into it is generation plus the batch hand-off.
type discardSink struct{}

func (discardSink) Begin(n, pes uint64) error                 { return nil }
func (discardSink) Batch(pe uint64, edges []kagen.Edge) error { return nil }
func (discardSink) EndPE(pe uint64) error                     { return nil }
func (discardSink) Close() error                              { return nil }

// layerPass is the state of one per-layer pass over one workload.
type layerPass struct {
	b    *bench
	w    *workload
	spec job.Spec
	samples
	// trace holds the benchmark's own spans, one per replayed layer call,
	// all children of root; it is written next to the job trace.
	trace *obs.Trace
	root  obs.Span
}

// timed runs f inside a benchmark-owned span and returns its seconds.
func (p *layerPass) timed(name string, f func()) float64 {
	sp := p.trace.Start("bench", name, obs.LaneWorker, p.root)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	sp.End()
	return d.Seconds()
}

// layers produces every per-layer metric of one workload. It never feeds
// the end-to-end numbers. Three parts:
//
//   - layer replay: direct single-goroutine calls of each layer's public
//     functions on the workload's own inputs, under benchmark-owned spans;
//   - traced runs: the same job.Run with the public observability hooks
//     on (RunOptions.Trace, obs.SetActive, OnCommitLatency, OnCheckpoint,
//     storage.UploadStats), folded into self time per span name, at the
//     workload's goroutine count and at one, beside an untraced run for
//     the tracing overhead — repeated until `seconds` have passed;
//   - serve probe: the workload's specs submitted to a serve.Server with
//     every request timed on the client.
func (b *bench) layers(w *workload, specs []job.Spec, seconds float64) samples {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	p := &layerPass{b: b, w: w, spec: specs[0], samples: samples{}, trace: obs.NewTrace(1 << 10)}
	p.root = p.trace.Start("bench", w.Name, obs.LaneWorker, obs.Span{})

	p.replay()
	p.heapRun()
	p.serveProbe(specs)
	p.tracedRuns(deadline)

	p.root.End()
	p.writeTrace(p.trace, "replay")
	return p.samples
}

func (p *layerPass) writeTrace(tr *obs.Trace, kind string) {
	path := filepath.Join(p.b.out, fmt.Sprintf("%s-%s.trace.json", p.w.Name, kind))
	f, err := os.Create(path)
	if err == nil {
		err = tr.WriteJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	p.b.op("write "+path, err)
}

// replay measures each layer on its own. It first runs the job once,
// untraced, so that the storage and codec replays read real artefacts:
// the finished manifest, a finished shard, the real chunk sizes.
func (p *layerPass) replay() {
	b, spec := p.b, p.spec
	st, err := b.newSite(p.w)
	if !b.op("replay site", err) {
		return
	}
	defer st.close()
	initS := p.timed("job.Init", func() { err = job.Init(st.dir, spec) })
	if !b.op("replay Init", err) {
		return
	}
	p.add("job.init_ms", initS*1e3)
	if !b.op("replay Run", job.Run(st.dir, 0, b.runOptions())) {
		return
	}
	facts, err := inspectJob(st.dir)
	if !b.op("replay Inspect", err) {
		return
	}
	p.add("job.wire_bytes_per_edge", float64(facts.wireBytes)/float64(facts.edges))

	streamer, err := spec.Streamer()
	if !b.op("Streamer", err) {
		return
	}
	chunks := streamer.PEs()
	format := spec.ShardFormat()

	// --- generator: every chunk, serial, into a counting emit ---
	captured := make([]kagen.Edge, 0, captureEdges)
	for c := uint64(0); c < chunks && len(captured) < cap(captured) && err == nil; c++ {
		err = streamer.StreamChunk(c, func(e kagen.Edge) {
			if len(captured) < cap(captured) {
				captured = append(captured, e)
			}
		})
	}
	var edges float64
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	genS := p.timed("gen.StreamChunk", func() {
		for c := uint64(0); c < chunks && err == nil; c++ {
			err = streamer.StreamChunk(c, func(kagen.Edge) { edges++ })
		}
	})
	runtime.ReadMemStats(&m1)
	if !b.op("generator replay", err) || edges == 0 {
		return
	}
	p.add("gen.stream_ns_per_edge", genS*1e9/edges)
	p.add("gen.allocs_per_chunk", float64(m1.Mallocs-m0.Mallocs)/float64(chunks))
	p.add("gen.alloc_bytes_per_edge", float64(m1.TotalAlloc-m0.TotalAlloc)/edges)

	// --- pe: the same chunks through the batch pipeline into a discard sink ---
	stream := func(workers int) float64 {
		return p.timed(fmt.Sprintf("pe.Stream/%d", workers), func() {
			err = kagen.StreamChunksFrom(streamer, 0, chunks, workers, 0, discardSink{})
		})
	}
	s1 := stream(1)
	s2 := stream(b.goroutines)
	if !b.op("pe replay", err) {
		return
	}
	p.add("pe.handoff_ns_per_edge", (s1-genS)*1e9/edges)
	p.add("pe.stream_speedup_g2", s1/s2)

	// --- kagen: encode the captured edges in pipeline-sized batches ---
	n := float64(len(captured))
	var buf []byte
	payloadLen := 0
	encS := p.timed("kagen.AppendEdges", func() {
		for i := 0; i < len(captured); i += 4096 {
			buf = format.AppendEdges(buf[:0], captured[i:min(i+4096, len(captured))])
			payloadLen += len(buf)
		}
	})
	p.add("kagen.encode_ns_per_edge", encS*1e9/n)
	p.add("kagen.payload_bytes_per_edge", float64(payloadLen)/n)
	payload := format.AppendEdges(make([]byte, 0, payloadLen), captured)

	// --- job: what shardWriter does per chunk, with the same stdlib calls ---
	digS := p.timed("sha256(payload)", func() { sha256.Sum256(payload) })
	p.add("job.digest_ns_per_edge", digS*1e9/n)
	if format.Compressed() {
		// One gzip member per chunk, default level, through a 1 MiB bufio.
		member := max(1, int(float64(len(payload))*(edges/float64(chunks))/n))
		var wire countingDiscard
		gz := gzip.NewWriter(&wire)
		bw := bufio.NewWriterSize(gz, 1<<20)
		compS := p.timed("gzip members", func() {
			for off := 0; off < len(payload) && err == nil; off += member {
				gz.Reset(&wire)
				bw.Reset(gz)
				bw.Write(payload[off:min(off+member, len(payload))])
				if err = bw.Flush(); err == nil {
					err = gz.Close()
				}
			}
		})
		if !b.op("compress replay", err) {
			return
		}
		p.add("job.compress_ns_per_edge", compS*1e9/n)
		p.add("job.compress_ratio", float64(len(payload))/float64(wire.n))
	} else {
		p.add("job.compress_ns_per_edge", 0)
		p.add("job.compress_ratio", 1)
	}

	// --- storage read, then kagen decode of the bytes read ---
	store, err := storage.Resolve(st.dir)
	if !b.op("Resolve", err) {
		return
	}
	var shard []byte
	readS := p.timed("storage.Open+Read", func() { shard, err = readObject(store, job.ShardPath(st.dir, 0, format)) })
	if !b.op("shard read", err) {
		return
	}
	p.add("storage.read_mb_per_s", float64(len(shard))/1e6/readS)
	var el *kagen.EdgeList
	decS := p.timed("kagen.ReadEdgeList", func() { el, err = kagen.ReadEdgeList(bytes.NewReader(shard), format) })
	if !b.op("decode replay", err) || el.Len() == 0 {
		return
	}
	p.add("kagen.decode_ns_per_edge", decS*1e9/float64(el.Len()))

	// --- job manifest publish, storage Put of the same size, merkle root ---
	mpath := job.ManifestPath(st.dir, 0)
	m, err := job.ReadManifest(mpath, spec)
	if !b.op("ReadManifest", err) {
		return
	}
	msize, err := store.Stat(mpath)
	if !b.op("manifest Stat", err) {
		return
	}
	p.add("job.manifest_bytes_final", float64(msize))
	scratch := storage.Join(st.dir, "replay")
	if !b.op("EnsureDir", store.EnsureDir(scratch)) {
		return
	}
	blob := make([]byte, msize)
	for i := 0; i < 50 && err == nil; i++ {
		p.add("job.manifest_put_ms_p50", 1e3*p.timed("job.WriteManifest", func() {
			err = job.WriteManifest(storage.Join(scratch, "manifest.json"), m)
		}))
	}
	for i := 0; i < 50 && err == nil; i++ {
		p.add("storage.put_ms_p50", 1e3*p.timed("storage.Put", func() {
			err = store.Put(storage.Join(scratch, "object"), blob, storage.PutOptions{})
		}))
	}
	if !b.op("publish replay", err) {
		return
	}
	leaves := make([]merkle.Digest, len(m.PEs[0].Chunks))
	for i, c := range m.PEs[0].Chunks {
		d, err := hex.DecodeString(c.Digest)
		if err != nil || len(d) != len(leaves[i]) {
			b.op("manifest digest", fmt.Errorf("chunk %d: bad digest %q", i, c.Digest))
			return
		}
		copy(leaves[i][:], d)
	}
	const rootCalls = 2000
	var root merkle.Digest
	rootS := p.timed("merkle.Root", func() {
		for i := 0; i < rootCalls; i++ {
			root = merkle.Root(leaves)
		}
	})
	if hex.EncodeToString(root[:]) != m.PEs[0].Root {
		b.op("merkle root", fmt.Errorf("replayed root differs from the manifest's"))
	}
	p.add("merkle.root_us", rootS*1e6/rootCalls)

	// --- storage shard path: the job's real chunk sizes, one shard per PE ---
	var commits []float64
	var written, storeS float64
	for _, pe := range m.PEs {
		sizes := []int64{pe.HeaderEnd}
		prev := pe.HeaderEnd
		for _, c := range pe.Chunks {
			sizes = append(sizes, c.End-prev)
			prev = c.End
		}
		s, err := p.shardReplay(store, storage.Join(scratch, fmt.Sprintf("shard-%d", pe.PE)), sizes, payload, &commits)
		if !b.op("shard replay", err) {
			return
		}
		storeS += s
		written += float64(prev)
	}
	p.add("storage.commit_ms_p50", quantile(commits, 0.5))
	p.add("storage.commit_ms_p90", quantile(commits, 0.9))
	p.add("storage.write_mb_per_s", written/1e6/storeS)
}

// readObject opens name and reads all of it sequentially.
func readObject(store storage.Backend, name string) ([]byte, error) {
	r, err := store.Open(name)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	data := make([]byte, r.Size())
	_, err = io.ReadFull(r, data)
	return data, err
}

// shardReplay writes one shard of the given chunk sizes through the
// backend's checkpointed writer — Write, then Commit with the chunk's
// SHA-256 (the S3 backend forwards it as the part checksum, so it must
// be right) — and returns the seconds spent in the backend. Chunk bytes
// are taken from fill, repeated as needed.
func (p *layerPass) shardReplay(store storage.Backend, name string, sizes []int64, fill []byte, commits *[]float64) (float64, error) {
	var largest int64
	for _, s := range sizes {
		largest = max(largest, s)
	}
	data := make([]byte, largest)
	for off := 0; off < len(data); off += copy(data[off:], fill) {
	}
	digests := map[int64][32]byte{}
	for _, s := range sizes {
		if _, ok := digests[s]; !ok {
			digests[s] = sha256.Sum256(data[:s])
		}
	}
	var err error
	total := p.timed("storage.ShardWriter", func() {
		var sw storage.ShardWriter
		if sw, err = store.CreateShard(name); err != nil {
			return
		}
		defer sw.Close()
		for _, s := range sizes {
			if _, err = sw.Write(data[:s]); err != nil {
				return
			}
			t0 := time.Now()
			if _, err = sw.Commit(digests[s]); err != nil {
				return
			}
			*commits = append(*commits, float64(time.Since(t0))/1e6)
		}
		err = sw.Finalize()
	})
	return total, err
}

// heapRun is one extra run that forces a collection at every durable
// checkpoint and keeps the largest live heap seen: the streaming-memory
// promise. It is kept apart from every timing because the forced GCs
// distort them.
func (p *layerPass) heapRun() {
	st, _, err := p.b.startJob(p.w, p.spec)
	if !p.b.op("heap-run Init", err) {
		return
	}
	defer st.close()
	var mu sync.Mutex
	var live uint64
	opts := p.b.runOptions()
	opts.OnCheckpoint = func(pe, chunksDone, edges uint64) error {
		mu.Lock()
		defer mu.Unlock()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		live = max(live, ms.HeapAlloc)
		return nil
	}
	if p.b.op("heap-run Run", job.Run(st.dir, 0, opts)) {
		p.add("job.live_heap_mb", float64(live)/1e6)
	}
}

// tracedRun is one job.Run with every public observability hook on.
type tracedRun struct {
	wall        float64
	spans       map[string]spanStat
	trace       *obs.Trace
	commitsMS   []float64
	checkpoints int64
	uploads     storage.Stats
}

func (p *layerPass) tracedRun(goroutines int) (tracedRun, bool) {
	var r tracedRun
	st, _, err := p.b.startJob(p.w, p.spec)
	if !p.b.op("traced Init", err) {
		return r, false
	}
	defer st.close()
	r.trace = obs.NewTrace(1 << 16)
	var mu sync.Mutex
	var checkpoints atomic.Int64
	opts := job.RunOptions{
		Goroutines: goroutines,
		Trace:      r.trace,
		OnCheckpoint: func(pe, chunksDone, edges uint64) error {
			checkpoints.Add(1)
			return nil
		},
		OnCommitLatency: func(pe uint64, seconds float64) {
			mu.Lock()
			r.commitsMS = append(r.commitsMS, seconds*1e3)
			mu.Unlock()
		},
	}
	// Storage spans (upload-part) go to the process-global trace.
	obs.SetActive(r.trace)
	storage.ResetUploadStats()
	t0 := time.Now()
	err = job.Run(st.dir, 0, opts)
	r.wall = time.Since(t0).Seconds()
	obs.SetActive(nil)
	r.uploads = storage.UploadStats()
	r.checkpoints = checkpoints.Load()
	r.spans = foldSpans(r.trace.Events())
	return r, p.b.op("traced Run", err)
}

// tracedRuns alternates untraced, traced and traced single-goroutine runs
// until the deadline and reports medians over the rounds.
func (p *layerPass) tracedRuns(deadline time.Time) {
	b := p.b
	var untraced, tracedWall, singleWall, commits []float64
	var last tracedRun
	for round := 0; round == 0 || (round < maxTracedRounds && time.Now().Before(deadline)); round++ {
		st, _, err := b.startJob(p.w, p.spec)
		if !b.op("untraced Init", err) {
			return
		}
		c, err := measure(func() error { return job.Run(st.dir, 0, b.runOptions()) })
		st.close()
		if !b.op("untraced Run", err) {
			return
		}
		untraced = append(untraced, c.wall)

		r, ok := p.tracedRun(b.goroutines)
		if !ok {
			return
		}
		last = r
		tracedWall = append(tracedWall, r.wall)
		commits = append(commits, r.commitsMS...)
		sec := func(name string) float64 { return float64(r.spans[name].Total) / 1e9 }
		p.add("job.chunk_generate_s", sec("chunk-generate"))
		p.add("job.chunk_commit_s", sec("chunk-commit"))
		p.add("job.pe_s", sec("pe"))
		p.add("job.worker_s", sec("worker"))
		p.add("storage.upload_part_s", sec("upload-part"))
		p.add("job.checkpoints", float64(r.checkpoints))
		p.add("storage.parts_uploaded", float64(r.uploads.PartsUploaded))
		p.add("storage.part_retries", float64(r.uploads.PartRetries))
		p.add("storage.max_in_flight", float64(r.uploads.MaxInFlight))
		p.add("storage.checksum_rehashed", float64(r.uploads.ChecksumRehashed))
		p.add("obs.spans_recorded", float64(r.trace.Len()))
		p.add("obs.spans_dropped", float64(r.trace.Dropped()))

		// One goroutine: nothing overlaps, so the time under the pe spans
		// that no named span explains is the dark share.
		single, ok := p.tracedRun(1)
		if !ok {
			return
		}
		singleWall = append(singleWall, single.wall)
		explained := single.spans["chunk-generate"].Self + single.spans["chunk-commit"].Self + single.spans["upload-part"].Self
		p.add("job.dark_share", 1-float64(explained)/float64(single.spans["pe"].Total))
	}
	p.add("job.commit_ms_p50", quantile(commits, 0.5))
	p.add("job.commit_ms_p90", quantile(commits, 0.9))
	p.add("pe.run_speedup_g2", median(singleWall)/median(tracedWall))
	p.add("obs.trace_overhead_pct", 100*(median(tracedWall)-median(untraced))/median(untraced))
	p.writeTrace(last.trace, "run")
}

// serveProbe submits the workload's specs to a fresh serve.Server and
// times every step of the API on the client: the layer's cost for this
// workload's jobs. The server's own counters come from a final /metrics
// scrape.
func (p *layerPass) serveProbe(specs []job.Spec) {
	b := p.b
	s, _, err := b.startServe()
	if !b.op("probe serve start", err) {
		return
	}
	defer s.close()
	jobs, _ := b.submitAll(s, specs)
	var totals []float64
	for _, j := range jobs {
		if !j.complete {
			return
		}
		p.add("serve.post_ms_p50", j.postMS)
		p.add("serve.status_poll_us_p50", j.pollsUS...)
		totals = append(totals, j.totalMS)
	}
	p.add("serve.submit_to_complete_ms_p90", quantile(totals, 0.9))

	for _, j := range jobs[:min(referenceSpecs, len(jobs))] {
		ttfb, err := s.firstByte("/jobs/"+j.id+"/result", "")
		if b.op("GET /result", err) {
			p.add("serve.result_ttfb_ms_p50", ttfb)
		}
		ranged, err := s.firstByte("/jobs/"+j.id+"/shards/0", "bytes=0-65535")
		if b.op("GET /shards/0 range", err) {
			p.add("serve.shard_range_ms_p50", ranged)
		}
	}

	// Cache hits: closed-loop re-submission of completed specs.
	burst := 500 * time.Millisecond
	if b.quick {
		burst = 20 * time.Millisecond
	}
	var hits atomic.Int64
	stop := time.Now().Add(burst)
	wall := each(b.goroutines, b.goroutines, func(c int) {
		for i := c; time.Now().Before(stop); i++ {
			j, err := s.submit(specs[i%len(specs)])
			if err == nil && len(j.pollsUS) > 0 {
				err = fmt.Errorf("job %s was not served from the cache", j.id)
			}
			if b.op("re-POST", err) {
				hits.Add(1)
			}
		}
	})
	p.add("serve.cache_hits_per_s", float64(hits.Load())/wall)

	var text []byte
	scrapeS := p.timed("GET /metrics", func() { _, text, err = s.do("GET", "/metrics", nil) })
	if !b.op("GET /metrics", err) {
		return
	}
	p.add("serve.metrics_scrape_ms", scrapeS*1e3)
	prom := parseProm(string(text))
	mean := func(name string) float64 {
		if prom[name+"_count"] == 0 {
			return 0
		}
		return 1e3 * prom[name+"_sum"] / prom[name+"_count"]
	}
	p.add("serve.queue_wait_ms_mean", mean("kagen_queue_wait_seconds"))
	p.add("serve.commit_ms_mean", mean("kagen_commit_seconds"))
	p.add("serve.rejected_429", prom["kagen_queue_rejected_total"])
	p.add("serve.jobs_failed", prom["kagen_jobs_failed_total"])
	if prom["kagen_queue_rejected_total"]+prom["kagen_jobs_failed_total"] > 0 {
		b.op("serve counters", fmt.Errorf("%g rejected, %g failed", prom["kagen_queue_rejected_total"], prom["kagen_jobs_failed_total"]))
	}
}

// firstByte GETs path (with an optional Range header), returns the
// milliseconds until the first body byte arrived, and drains the rest.
func (s *serveSite) firstByte(path, byteRange string) (float64, error) {
	req, err := http.NewRequest("GET", s.ts.URL+path, nil)
	if err != nil {
		return 0, err
	}
	if byteRange != "" {
		req.Header.Set("Range", byteRange)
	}
	t0 := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusPartialContent {
		return 0, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	var one [1]byte
	if _, err := io.ReadFull(resp.Body, one[:]); err != nil {
		return 0, err
	}
	ms := float64(time.Since(t0)) / 1e6
	_, err = io.Copy(io.Discard, resp.Body)
	return ms, err
}
