package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/job"
	"repro/internal/serve"
)

// serveSite is one serve.Server on a fresh data directory behind an
// httptest listener, with the one HTTP client all load goes through.
type serveSite struct {
	srv    *serve.Server
	ts     *httptest.Server
	dir    string
	client *http.Client
}

// startServe is the service's set-up: data directory, startup scan,
// executor pool, listener. It returns the seconds that took.
func (b *bench) startServe() (*serveSite, float64, error) {
	t0 := time.Now()
	b.seq++
	dir := filepath.Join(b.out, "serve", fmt.Sprintf("data-%d", b.seq))
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, err
	}
	srv, err := serve.New(serve.Config{Dir: dir, Executors: b.goroutines, QueueCap: 16, Goroutines: 1})
	if err != nil {
		return nil, 0, err
	}
	ts := httptest.NewServer(srv.Handler())
	client := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     b.goroutines,
		MaxIdleConnsPerHost: b.goroutines,
	}}
	return &serveSite{srv: srv, ts: ts, dir: dir, client: client}, time.Since(t0).Seconds(), nil
}

func (s *serveSite) close() {
	s.client.CloseIdleConnections()
	s.ts.Close()
	s.srv.Close()
	os.RemoveAll(s.dir)
}

// do sends one request and returns the status code and the whole body.
func (s *serveSite) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, s.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// each runs f(i) for i in [0, n) on `clients` closed-loop goroutines —
// a client takes its next index only after its previous call returned —
// and returns the wall seconds until the last one finished.
func each(n, clients int, f func(i int)) float64 {
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < min(clients, n); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				f(i)
			}
		}()
	}
	wg.Wait()
	return time.Since(t0).Seconds()
}

// submitted is the client-side record of one job taken from POST to the
// first status poll that reads "complete".
type submitted struct {
	id       string
	edges    uint64
	postMS   float64   // POST /jobs round trip
	totalMS  float64   // POST sent -> complete observed
	pollsUS  []float64 // each GET /jobs/{id} round trip
	complete bool
}

// submit posts one spec and polls its status every millisecond until the
// job completes. Any non-2xx answer (a 429 included) or a failed job is
// an error.
func (s *serveSite) submit(spec job.Spec) (submitted, error) {
	var out submitted
	body, err := json.Marshal(spec)
	if err != nil {
		return out, err
	}
	t0 := time.Now()
	code, data, err := s.do("POST", "/jobs", body)
	out.postMS = float64(time.Since(t0)) / 1e6
	if err != nil {
		return out, err
	}
	if code != http.StatusAccepted && code != http.StatusOK {
		return out, fmt.Errorf("POST /jobs: status %d: %s", code, bytes.TrimSpace(data))
	}
	var st serve.JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return out, err
	}
	out.id = st.ID
	for st.State != serve.StateComplete {
		if st.State == serve.StateFailed || st.State == serve.StateCancelled {
			return out, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
		}
		time.Sleep(time.Millisecond)
		p0 := time.Now()
		code, data, err := s.do("GET", "/jobs/"+out.id, nil)
		out.pollsUS = append(out.pollsUS, float64(time.Since(p0))/1e3)
		if err != nil {
			return out, err
		}
		if code != http.StatusOK {
			return out, fmt.Errorf("GET /jobs/%s: status %d", out.id, code)
		}
		if err := json.Unmarshal(data, &st); err != nil {
			return out, err
		}
	}
	out.totalMS = float64(time.Since(t0)) / 1e6
	out.edges, out.complete = st.Edges, true
	return out, nil
}

// submitAll drives every spec through submit with closed-loop clients.
// Failures are counted by the caller from the complete flags.
func (b *bench) submitAll(s *serveSite, specs []job.Spec) ([]submitted, cost) {
	jobs := make([]submitted, len(specs))
	c, _ := measure(func() error {
		each(len(specs), b.goroutines, func(i int) {
			j, err := s.submit(specs[i])
			b.op("submit->complete", err)
			jobs[i] = j
		})
		return nil
	})
	return jobs, c
}

// mergedDigest runs the spec through job.Init/Run/Merge in process and
// returns the SHA-256 of the merged stream — the reference a /result
// body must match byte for byte.
func (b *bench) mergedDigest(spec job.Spec) (string, error) {
	st, _, err := b.startJob(&workload{Name: "reference"}, spec)
	if err != nil {
		return "", err
	}
	defer st.close()
	if err := job.Run(st.dir, 0, b.runOptions()); err != nil {
		return "", err
	}
	h := sha256.New()
	if err := job.Merge(st.dir, h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// referenceSpecs is how many jobs per repetition have their /result
// downloaded and compared against an in-process job.Merge of the same
// spec.
const referenceSpecs = 8

// serveE2E measures the serve workload with tracing off (the server's
// own per-job trace collection stays at its default, as a user gets it).
// Each repetition starts a fresh server and runs three closed-loop
// phases over the same specs: submit every job to completion, download
// every /result, and verify every job through POST /jobs/{id}/verify.
func (b *bench) serveE2E(w *workload, specs []job.Spec, seconds float64) samples {
	out := samples{}
	add := out.add

	refs := make([]string, min(referenceSpecs, len(specs)))
	for i := range refs {
		var err error
		refs[i], err = b.mergedDigest(specs[i])
		if !b.op("reference Merge", err) {
			return out
		}
	}

	rep := func(record bool) bool {
		for i := 0; i < setupSamples && record && !b.quick; i++ {
			s, setup, err := b.startServe()
			if !b.op("set-up", err) {
				return false
			}
			s.close()
			add("setup_s", setup)
		}
		s, setup, err := b.startServe()
		if !b.op("serve start", err) {
			return false
		}
		defer s.close()
		jobs, c := b.submitAll(s, specs)
		var edges uint64
		var latencies []float64
		for i, j := range jobs {
			if !j.complete {
				return false
			}
			if want := w.ExactEdges(specs[i]); j.edges != want {
				b.op("edge count", fmt.Errorf("job %s: %d edges, want %d", j.id, j.edges, want))
			}
			edges += j.edges
			latencies = append(latencies, j.totalMS)
		}

		// Only the jobs with a reference are downloaded: a /result is a
		// whole job.Merge, and fetching all of them would take longer than
		// generating them.
		var resultBytes atomic.Int64
		resultWall := each(len(refs), b.goroutines, func(i int) {
			code, body, err := s.do("GET", "/jobs/"+jobs[i].id+"/result", nil)
			if err == nil && code != http.StatusOK {
				err = fmt.Errorf("status %d", code)
			}
			if sum := sha256.Sum256(body); err == nil && hex.EncodeToString(sum[:]) != refs[i] {
				err = fmt.Errorf("job %s: body differs from an in-process job.Merge of the same spec", jobs[i].id)
			}
			b.op("GET /result", err)
			resultBytes.Add(int64(len(body)))
		})

		var checked atomic.Int64
		verifyWall := each(len(jobs), b.goroutines, func(i int) {
			path := fmt.Sprintf("/jobs/%s/verify?sample=%d&seed=%d", jobs[i].id, verifyChunks(specs[i]), specs[i].Seed)
			code, body, err := s.do("POST", path, nil)
			var vr serve.VerifyResponse
			if err == nil && code != http.StatusOK {
				err = fmt.Errorf("status %d", code)
			}
			if err == nil {
				err = json.Unmarshal(body, &vr)
			}
			if err == nil && (vr.Integrity == nil || vr.Integrity.Faults != 0) {
				err = fmt.Errorf("job %s: verify reported faults: %s", jobs[i].id, bytes.TrimSpace(body))
			}
			if b.op("POST /verify", err) {
				checked.Add(int64(vr.Integrity.ChunksChecked))
			}
		})
		if !record {
			return true
		}
		medges := float64(edges) / 1e6
		totalChunks := float64(len(specs)) * float64(specs[0].TotalChunks())
		add("setup_s", setup)
		add("edges_per_s", float64(edges)/c.wall)
		add("cpu_s_per_medge", c.cpu/medges)
		add("alloc_mb_per_medge", c.alloc/1e6/medges)
		add("read_mb_per_s", float64(resultBytes.Load())/1e6/resultWall)
		add("verify_edges_per_s", float64(checked.Load())/totalChunks*float64(edges)/verifyWall)
		// Latencies are pooled over all repetitions; the median of the
		// pool is the reported p50.
		add("job_ms_p50", latencies...)
		return true
	}

	if rep(false) { // warm-up
		repeatFor(seconds, func() bool { return rep(true) })
	}
	return out
}
