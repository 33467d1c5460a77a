package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/failpoint"
	"repro/internal/job"
)

func testSpec() job.Spec {
	return job.Spec{Model: "gnm_undirected", N: 600, M: 4000, Seed: 42,
		PEs: 2, ChunksPerPE: 3, Workers: 1, Format: "text"}
}

// directMerged runs the spec directly through the job runner and returns
// the merged bytes — the ground truth the service must reproduce.
func directMerged(t *testing.T, spec job.Spec) []byte {
	t.Helper()
	dir := t.TempDir()
	if err := job.Init(dir, spec); err != nil {
		t.Fatal(err)
	}
	for w := uint64(0); w < spec.Normalized().Workers; w++ {
		if err := job.Run(dir, w, job.RunOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, "merged")
	if err := job.MergeToFile(dir, path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func submit(t testing.TB, ts *httptest.Server, spec job.Spec) (JobStatus, int) {
	t.Helper()
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp.StatusCode
}

// waitState polls a job until it reaches want (failing on failed states
// that are not the wanted one) or the deadline passes.
func waitState(t testing.TB, ts *httptest.Server, id, want string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		if st.State == StateFailed && want != StateFailed {
			t.Fatalf("job %s failed: %s", id, st.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached state %s", id, want)
	return JobStatus{}
}

func get(t testing.TB, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestServeEndToEnd: submit → poll → merged result identical to a direct
// job run; an identical re-submission is a content-addressed cache hit
// that runs no generator; shards stream with range support.
func TestServeEndToEnd(t *testing.T) {
	spec := testSpec()
	want := directMerged(t, spec)

	srv, err := New(Config{Dir: t.TempDir(), Executors: 1, QueueCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	st, code := submit(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit returned %d, want 202", code)
	}
	if st.ID != spec.Hash() {
		t.Fatalf("job ID %s is not the spec hash %s", st.ID, spec.Hash())
	}
	fin := waitState(t, ts, st.ID, StateComplete)
	if fin.ChunksDone != fin.ChunksTotal || fin.ChunksTotal != spec.TotalChunks() {
		t.Errorf("progress %d/%d, want %d/%d", fin.ChunksDone, fin.ChunksTotal,
			spec.TotalChunks(), spec.TotalChunks())
	}
	if fin.Edges != 2*spec.M { // undirected: both orientations emitted
		t.Errorf("edge count %d, want %d", fin.Edges, 2*spec.M)
	}

	code, got := get(t, ts.URL+"/jobs/"+st.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("result returned %d", code)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("served result differs from direct run (%d vs %d bytes)", len(got), len(want))
	}

	// Content-addressed cache: same spec again is a hit, with zero new
	// generator work (chunk checkpoint counter frozen).
	chunksBefore := srv.Metrics().ChunksCommitted.Value()
	st2, code := submit(t, ts, spec)
	if code != http.StatusOK || !st2.Cached || st2.State != StateComplete {
		t.Fatalf("re-submission: code %d, cached %v, state %s — want a cache hit", code, st2.Cached, st2.State)
	}
	if hits := srv.Metrics().CacheHits.Value(); hits != 1 {
		t.Errorf("cache hits %d, want 1", hits)
	}
	if after := srv.Metrics().ChunksCommitted.Value(); after != chunksBefore {
		t.Errorf("cache hit ran the generator: %d checkpoints before, %d after", chunksBefore, after)
	}

	// Shard streaming with a range request.
	code, whole := get(t, ts.URL+"/jobs/"+st.ID+"/shards/0")
	if code != http.StatusOK || len(whole) == 0 {
		t.Fatalf("shard fetch: code %d, %d bytes", code, len(whole))
	}
	req, _ := http.NewRequest("GET", ts.URL+"/jobs/"+st.ID+"/shards/0", nil)
	req.Header.Set("Range", "bytes=0-9")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	part, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("range request returned %d, want 206", resp.StatusCode)
	}
	if !bytes.Equal(part, whole[:10]) {
		t.Error("range body is not the shard prefix")
	}

	// The exposition endpoint reflects the counters.
	code, metrics := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics returned %d", code)
	}
	for _, want := range []string{
		"kagen_cache_hits_total 1",
		"kagen_jobs_submitted_total 1",
		"kagen_jobs_completed_total 1",
		fmt.Sprintf("kagen_edges_generated_total %d", 2*spec.M),
		"kagen_checkpoint_seconds_count",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

// TestServeShutdownResume is the crash-recovery contract in-process: a
// server stopped mid-job leaves durable checkpoints; a new server over
// the same directory auto-resumes and the final result is byte-identical
// to an uninterrupted run. (CI's serve-smoke does the same with kill -9.)
func TestServeShutdownResume(t *testing.T) {
	spec := testSpec()
	want := directMerged(t, spec)
	dir := t.TempDir()

	interrupted := make(chan struct{})
	var once sync.Once
	srv1, err := New(Config{Dir: dir, Executors: 1, QueueCap: 4,
		OnCheckpoint: func(id string, pe, chunks uint64) error {
			once.Do(func() { close(interrupted) })
			// Slow the checkpoints down so the shutdown lands mid-job,
			// after at least one durable checkpoint.
			time.Sleep(5 * time.Millisecond)
			return nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	st, code := submit(t, ts1, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit returned %d", code)
	}
	<-interrupted
	srv1.Close() // running job aborts at its next durable checkpoint
	ts1.Close()

	stDisk, err := job.Inspect(filepath.Join(dir, st.ID))
	if err != nil {
		t.Fatal(err)
	}
	if stDisk.Complete() {
		t.Skip("job finished before shutdown landed; nothing to resume")
	}

	srv2, err := New(Config{Dir: dir, Executors: 1, QueueCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if resumed := srv2.Metrics().JobsResumed.Value(); resumed != 1 {
		t.Fatalf("restart resumed %d jobs, want 1", resumed)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	waitState(t, ts2, st.ID, StateComplete)

	code, got := get(t, ts2.URL+"/jobs/"+st.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("result after resume returned %d", code)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("resumed result differs from uninterrupted run (%d vs %d bytes)", len(got), len(want))
	}
}

// TestServeBackpressure: with the lone executor wedged and the queue
// full, a further submission is rejected with 429 and counted.
func TestServeBackpressure(t *testing.T) {
	release := make(chan struct{})
	var hold, unhold sync.Once
	unblock := func() { unhold.Do(func() { close(release) }) }
	srv, err := New(Config{Dir: t.TempDir(), Executors: 1, QueueCap: 1,
		OnCheckpoint: func(id string, pe, chunks uint64) error {
			hold.Do(func() { <-release })
			return nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer unblock()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	specs := make([]job.Spec, 3)
	for i := range specs {
		specs[i] = testSpec()
		specs[i].Seed = uint64(100 + i) // three distinct jobs
	}
	if _, code := submit(t, ts, specs[0]); code != http.StatusAccepted {
		t.Fatalf("first submit returned %d", code)
	}
	// Wait until the executor picked up job 0 (it wedges in the hook), so
	// job 1 occupies the queue slot.
	deadline := time.Now().Add(10 * time.Second)
	for srv.Metrics().JobsInflight.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, code := submit(t, ts, specs[1]); code != http.StatusAccepted {
		t.Fatalf("second submit returned %d", code)
	}
	st, code := submit(t, ts, specs[2])
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit returned %d (state %+v), want 429", code, st)
	}
	if rej := srv.Metrics().QueueRejected.Value(); rej != 1 {
		t.Errorf("queue rejections %d, want 1", rej)
	}
	// The rejected spec left nothing behind: once capacity frees up it
	// can be submitted again.
	unblock()
	waitState(t, ts, specs[0].Hash(), StateComplete)
	waitState(t, ts, specs[1].Hash(), StateComplete)
	if _, code := submit(t, ts, specs[2]); code != http.StatusAccepted {
		t.Fatalf("re-submit after rejection returned %d", code)
	}
	waitState(t, ts, specs[2].Hash(), StateComplete)
}

// TestServeCancel: cancelling a running job aborts it at the next
// checkpoint, removes its partial directory from the cache, and a
// re-submission starts a fresh run.
func TestServeCancel(t *testing.T) {
	slow := make(chan struct{})
	srv, err := New(Config{Dir: t.TempDir(), Executors: 1, QueueCap: 4,
		OnCheckpoint: func(id string, pe, chunks uint64) error {
			select {
			case <-slow:
			case <-time.After(20 * time.Millisecond):
			}
			return nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := testSpec()
	st, code := submit(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit returned %d", code)
	}
	waitState(t, ts, st.ID, StateRunning)
	req, _ := http.NewRequest("DELETE", ts.URL+"/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	fin := waitState(t, ts, st.ID, StateCancelled)
	if fin.State != StateCancelled {
		t.Fatalf("state %s after cancel", fin.State)
	}
	if cancelled := srv.Metrics().JobsCancelled.Value(); cancelled != 1 {
		t.Errorf("cancelled count %d, want 1", cancelled)
	}
	if _, err := os.Stat(filepath.Join(srv.cfg.Dir, st.ID)); !os.IsNotExist(err) {
		t.Error("cancelled job directory not removed")
	}
	close(slow) // let the re-run proceed at full speed
	if _, code := submit(t, ts, spec); code != http.StatusAccepted {
		t.Fatalf("re-submit after cancel returned %d", code)
	}
	waitState(t, ts, st.ID, StateComplete)
}

// TestServeRejectsBadSpecs: malformed JSON, unknown fields and invalid
// specs are 400s, unknown jobs 404, results of unfinished jobs 409.
func TestServeRejectsBadSpecs(t *testing.T) {
	srv, err := New(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for name, body := range map[string]string{
		"malformed":     `{not json`,
		"unknown field": `{"model":"gnm_undirected","n":10,"bogus":1}`,
		"bad model":     `{"model":"nope","n":10}`,
		"too many workers": `{"model":"gnm_undirected","n":10,"m":5,` +
			`"pes":2,"workers":8}`,
	} {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: returned %d, want 400", name, resp.StatusCode)
		}
	}
	if code, _ := get(t, ts.URL+"/jobs/deadbeef"); code != http.StatusNotFound {
		t.Errorf("unknown job returned %d, want 404", code)
	}
	if code, _ := get(t, ts.URL+"/jobs/deadbeef/result"); code != http.StatusNotFound {
		t.Errorf("unknown result returned %d, want 404", code)
	}
}

// TestServeVerifyAndRepair: the integrity surface end to end — a chunk
// corrupted (by the armed failpoint) during generation is caught by
// POST /jobs/{id}/verify, repaired by ?repair=true, the job's integrity
// status tracks the passes, and the repaired result is byte-identical to
// a clean run.
func TestServeVerifyAndRepair(t *testing.T) {
	t.Cleanup(failpoint.Reset)
	spec := testSpec()
	want := directMerged(t, spec)

	srv, err := New(Config{Dir: t.TempDir(), Executors: 1, QueueCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	failpoint.Arm("job/chunk-bitflip", 2)
	st, code := submit(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit returned %d", code)
	}
	waitState(t, ts, st.ID, StateComplete)
	if failpoint.Armed() {
		t.Fatal("bitflip failpoint never fired")
	}

	post := func(url string) (int, VerifyResponse) {
		t.Helper()
		resp, err := http.Post(url, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var vr VerifyResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&vr); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, vr
	}

	code, vr := post(ts.URL + "/jobs/" + st.ID + "/verify?all=true")
	if code != http.StatusOK {
		t.Fatalf("verify returned %d", code)
	}
	if len(vr.Faults) == 0 || vr.Integrity.State != "corrupt" {
		t.Fatalf("verify of corrupted job: %+v", vr)
	}
	// The corrupt status surfaces in GET /jobs/{id}.
	stNow := waitState(t, ts, st.ID, StateComplete)
	if stNow.Integrity == nil || stNow.Integrity.State != "corrupt" {
		t.Fatalf("status integrity %+v, want corrupt", stNow.Integrity)
	}

	code, vr = post(ts.URL + "/jobs/" + st.ID + "/verify?all=true&repair=true")
	if code != http.StatusOK {
		t.Fatalf("repair returned %d", code)
	}
	if vr.Integrity.State != "repaired" || vr.Repair == nil || vr.Repair.ChunksSpliced == 0 {
		t.Fatalf("repair outcome: %+v (repair %+v)", vr.Integrity, vr.Repair)
	}

	code, got := get(t, ts.URL+"/jobs/"+st.ID+"/result")
	if code != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("repaired result: code %d, matches clean run: %v", code, bytes.Equal(got, want))
	}

	_, metrics := get(t, ts.URL+"/metrics")
	for _, wantMetric := range []string{
		"kagen_verify_chunks_checked_total",
		"kagen_verify_failures_total",
		"kagen_verify_repaired_total",
	} {
		if !strings.Contains(string(metrics), wantMetric) {
			t.Errorf("metrics exposition missing %q", wantMetric)
		}
	}
	if strings.Contains(string(metrics), "kagen_verify_failures_total 0\n") {
		t.Error("verify failures counter never moved")
	}
}

// TestServeETags: the spec hash is a strong ETag for the merged result
// and (suffixed with the PE) for each shard; If-None-Match revalidation
// returns 304 with no body.
func TestServeETags(t *testing.T) {
	spec := testSpec()
	srv, err := New(Config{Dir: t.TempDir(), Executors: 1, QueueCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	st, _ := submit(t, ts, spec)
	waitState(t, ts, st.ID, StateComplete)

	check := func(url, wantTag string) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if got := resp.Header.Get("ETag"); got != wantTag {
			t.Fatalf("%s: ETag %q, want %q", url, got, wantTag)
		}
		req, _ := http.NewRequest("GET", url, nil)
		req.Header.Set("If-None-Match", wantTag)
		resp, err = http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotModified {
			t.Errorf("%s with If-None-Match: %d, want 304", url, resp.StatusCode)
		}
		if len(body) != 0 {
			t.Errorf("%s: 304 carried a %d-byte body", url, len(body))
		}
	}
	check(ts.URL+"/jobs/"+st.ID+"/result", `"`+st.ID+`"`)
	check(ts.URL+"/jobs/"+st.ID+"/shards/1", `"`+st.ID+`-pe1"`)
}

// TestServeFailedCompaction: a terminally failed job is moved to
// failed/, is not re-resumed by a restart's startup scan, stays visible
// (with its error) until DELETEd, and an identical re-submission starts
// a fresh run.
func TestServeFailedCompaction(t *testing.T) {
	dir := t.TempDir()
	var failing atomic.Bool
	failing.Store(true)
	srv1, err := New(Config{Dir: dir, Executors: 1, QueueCap: 4,
		OnCheckpoint: func(id string, pe, chunks uint64) error {
			if failing.Load() {
				return fmt.Errorf("injected terminal failure")
			}
			return nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	spec := testSpec()
	st, code := submit(t, ts1, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit returned %d", code)
	}
	fin := waitState(t, ts1, st.ID, StateFailed)
	if !strings.Contains(fin.Error, "injected terminal failure") {
		t.Errorf("failed job error %q does not carry the cause", fin.Error)
	}
	if _, err := os.Stat(filepath.Join(dir, "failed", st.ID, "job.json")); err != nil {
		t.Fatalf("failed job not compacted into failed/: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, st.ID)); !os.IsNotExist(err) {
		t.Error("failed job directory still in the scan path")
	}
	srv1.Close()
	ts1.Close()

	// Restart: the failed job is registered, not resumed.
	srv2, err := New(Config{Dir: dir, Executors: 1, QueueCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	if resumed := srv2.Metrics().JobsResumed.Value(); resumed != 0 {
		t.Fatalf("restart resumed %d jobs; failed jobs must stay compacted", resumed)
	}
	code, body := get(t, ts2.URL+"/jobs/"+st.ID)
	if code != http.StatusOK || !strings.Contains(string(body), StateFailed) {
		t.Fatalf("failed job not listed after restart: %d %s", code, body)
	}

	// DELETE works on the compacted job.
	req, _ := http.NewRequest("DELETE", ts2.URL+"/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, err := os.Stat(filepath.Join(dir, "failed", st.ID)); !os.IsNotExist(err) {
		t.Error("DELETE left the compacted directory behind")
	}
	if code, _ := get(t, ts2.URL+"/jobs/"+st.ID); code != http.StatusNotFound {
		t.Errorf("deleted job still listed: %d", code)
	}

	// A healthy re-submission of the same spec runs fresh.
	failing.Store(false)
	if _, code := submit(t, ts2, spec); code != http.StatusAccepted {
		t.Fatalf("re-submit after failure returned %d", code)
	}
	waitState(t, ts2, st.ID, StateComplete)
}

// FuzzShardRange: whatever Range and If-Range a client sends for a
// finalized shard, the endpoint answers 200 with the whole shard, 206 or
// 416, and never panics; a single-range 206 carries exactly the shard
// bytes its Content-Range names.
func FuzzShardRange(f *testing.F) {
	for _, seed := range [][2]string{
		{"bytes=0-9", ""},
		{"bytes=-5", ""},
		{"bytes=-0", ""},
		{"bytes=10-", `"stale"`},
		{"bytes=0-0,5-9", ""},
		{"bytes=999999-", ""},
		{"bytes=5-2", ""},
		{"items=0-1", ""},
		{"bytes=0-9", "Mon, 02 Jan 2006 15:04:05 GMT"},
	} {
		f.Add(seed[0], seed[1])
	}
	srv, err := New(Config{Dir: f.TempDir(), Executors: 1, QueueCap: 1})
	if err != nil {
		f.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	st, code := submit(f, ts, testSpec())
	if code != http.StatusAccepted {
		f.Fatalf("submit returned %d, want 202", code)
	}
	waitState(f, ts, st.ID, StateComplete)
	path := "/jobs/" + st.ID + "/shards/0"
	code, shard := get(f, ts.URL+path)
	if code != http.StatusOK || len(shard) == 0 {
		f.Fatalf("shard fetch: code %d, %d bytes", code, len(shard))
	}
	f.Add("bytes=3-7", fmt.Sprintf(`"%s-pe0"`, st.ID))
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, rng, ifRange string) {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		req.Header.Set("Range", rng)
		if ifRange != "" {
			req.Header.Set("If-Range", ifRange)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		body := rec.Body.Bytes()
		switch rec.Code {
		case http.StatusOK:
			if !bytes.Equal(body, shard) {
				t.Fatalf("Range %q If-Range %q: 200 body of %d bytes is not the %d-byte shard", rng, ifRange, len(body), len(shard))
			}
		case http.StatusRequestedRangeNotSatisfiable:
		case http.StatusPartialContent:
			if strings.HasPrefix(rec.Header().Get("Content-Type"), "multipart/byteranges") {
				return
			}
			var first, last, size int
			cr := rec.Header().Get("Content-Range")
			if _, err := fmt.Sscanf(cr, "bytes %d-%d/%d", &first, &last, &size); err != nil ||
				size != len(shard) || first < 0 || first > last || last >= size {
				t.Fatalf("Range %q If-Range %q: 206 with Content-Range %q for a %d-byte shard", rng, ifRange, cr, len(shard))
			}
			if !bytes.Equal(body, shard[first:last+1]) {
				t.Fatalf("Range %q If-Range %q: 206 body is not shard bytes %d-%d", rng, ifRange, first, last)
			}
		default:
			t.Fatalf("Range %q If-Range %q: status %d, want 200, 206 or 416", rng, ifRange, rec.Code)
		}
	})
}

// TestSatisfiableRange: ranges that select no byte are dropped before
// http.ServeContent sees them; malformed headers pass through for it to
// refuse.
func TestSatisfiableRange(t *testing.T) {
	for _, tc := range []struct {
		in   string
		size int64
		want string
	}{
		{"bytes=0-9", 100, "bytes=0-9"},
		{"bytes=-0", 100, "bytes=100-"},
		{"bytes= -0 ,0-4", 100, "bytes=0-4"},
		{"bytes=-5", 0, "bytes=0-"},
		{"bytes=--0", 100, "bytes=--0"},
		{"items=-0", 100, "items=-0"},
	} {
		if got := satisfiableRange(tc.in, tc.size); got != tc.want {
			t.Errorf("satisfiableRange(%q, %d) = %q, want %q", tc.in, tc.size, got, tc.want)
		}
	}
}
