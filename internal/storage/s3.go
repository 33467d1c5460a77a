package storage

import (
	"bytes"
	"context"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/failpoint"
	"repro/internal/obs"
)

// s3Config is the endpoint/credential configuration of the S3 backend,
// read from the environment: KAGEN_S3_ENDPOINT (or AWS_ENDPOINT_URL)
// for MinIO and other compatible stores, AWS_ACCESS_KEY_ID /
// AWS_SECRET_ACCESS_KEY / AWS_SESSION_TOKEN for credentials, AWS_REGION
// (default us-east-1). Path-style addressing is the default whenever an
// explicit endpoint is set (MinIO), virtual-host style otherwise;
// KAGEN_S3_PATH_STYLE=0/1 overrides. KAGEN_S3_PART_SIZE (bytes, default
// 5 MiB — the S3 minimum part size) is the chunk-coalescing threshold
// of the striped uploader and KAGEN_S3_CONCURRENCY (default 4) its
// in-flight part bound; tests shrink both.
type s3Config struct {
	endpoint    *url.URL // nil: AWS virtual-host endpoints
	region      string
	access      string
	secret      string
	token       string
	pathStyle   bool
	partSize    int64
	concurrency int
	maxAttempts int
	retryBase   time.Duration
	lockTTL     time.Duration
}

func s3ConfigFromEnv() (s3Config, error) {
	cfg := s3Config{
		region:      "us-east-1",
		partSize:    5 << 20,
		concurrency: 4,
		maxAttempts: 4,
		retryBase:   50 * time.Millisecond,
		lockTTL:     time.Hour,
	}
	if r := os.Getenv("AWS_REGION"); r != "" {
		cfg.region = r
	} else if r := os.Getenv("AWS_DEFAULT_REGION"); r != "" {
		cfg.region = r
	}
	cfg.access = os.Getenv("AWS_ACCESS_KEY_ID")
	cfg.secret = os.Getenv("AWS_SECRET_ACCESS_KEY")
	cfg.token = os.Getenv("AWS_SESSION_TOKEN")
	if cfg.access == "" || cfg.secret == "" {
		return cfg, errors.New("storage: s3 destination needs AWS_ACCESS_KEY_ID and AWS_SECRET_ACCESS_KEY in the environment")
	}
	ep := os.Getenv("KAGEN_S3_ENDPOINT")
	if ep == "" {
		ep = os.Getenv("AWS_ENDPOINT_URL")
	}
	if ep != "" {
		u, err := url.Parse(ep)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return cfg, fmt.Errorf("storage: bad s3 endpoint %q", ep)
		}
		cfg.endpoint = u
		cfg.pathStyle = true
	}
	if v := os.Getenv("KAGEN_S3_PATH_STYLE"); v != "" {
		cfg.pathStyle = v != "0" && v != "false"
	}
	if v := os.Getenv("KAGEN_S3_PART_SIZE"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n <= 0 {
			return cfg, fmt.Errorf("storage: bad KAGEN_S3_PART_SIZE %q", v)
		}
		cfg.partSize = n
	}
	if v := os.Getenv("KAGEN_S3_CONCURRENCY"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			return cfg, fmt.Errorf("storage: bad KAGEN_S3_CONCURRENCY %q", v)
		}
		cfg.concurrency = n
	}
	if v := os.Getenv("KAGEN_S3_MAX_ATTEMPTS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			return cfg, fmt.Errorf("storage: bad KAGEN_S3_MAX_ATTEMPTS %q", v)
		}
		cfg.maxAttempts = n
	}
	if v := os.Getenv("KAGEN_S3_LOCK_TTL"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			return cfg, fmt.Errorf("storage: bad KAGEN_S3_LOCK_TTL %q", v)
		}
		cfg.lockTTL = d
	}
	return cfg, nil
}

// s3Backend talks the S3 REST dialect (AWS or MinIO) over net/http with
// SigV4 signing — no SDK. It implements Backend for s3://bucket/key
// destinations.
type s3Backend struct {
	cfg  s3Config
	hc   *http.Client
	sign signer
}

// freeParts is the free list of multipart part buffers, one for the
// process: a buffer outlives the shard, and the backend, that grew it. A
// shard takes a buffer for every part it builds and gives it back once
// the store acknowledged that part's upload, so the next shard written —
// in this run or a later one, whose worker resolves a backend of its own
// — fills the buffers of the ones before instead of growing new ones.
// The list keeps at most what two open shards can have out,
// 2 * (concurrency + 1) of the giving backend; any buffer beyond that is
// dropped.
var freeParts struct {
	mu   sync.Mutex
	list [][]byte
}

// takePart returns an empty part buffer from the free list, or nil. It
// hands out only a buffer of at least twice the backend's part size, the
// size of a fresh one, so a part of one chunk never regrows.
func (b *s3Backend) takePart() []byte {
	freeParts.mu.Lock()
	defer freeParts.mu.Unlock()
	list := freeParts.list
	for i := len(list) - 1; i >= 0; i-- {
		if buf := list[i]; int64(cap(buf)) >= 2*b.cfg.partSize {
			last := len(list) - 1
			list[i], list[last] = list[last], nil
			freeParts.list = list[:last]
			return buf
		}
	}
	return nil
}

// givePart puts back the buffer of a part whose upload was acknowledged.
func (b *s3Backend) givePart(buf []byte) {
	freeParts.mu.Lock()
	defer freeParts.mu.Unlock()
	if len(freeParts.list) < 2*(b.cfg.concurrency+1) {
		freeParts.list = append(freeParts.list, buf[:0])
	}
}

func newS3FromEnv() (Backend, error) {
	cfg, err := s3ConfigFromEnv()
	if err != nil {
		return nil, err
	}
	return &s3Backend{
		cfg: cfg,
		hc:  &http.Client{Timeout: 5 * time.Minute},
		sign: signer{
			accessKey: cfg.access, secretKey: cfg.secret, sessionToken: cfg.token,
			region: cfg.region, service: "s3",
		},
	}, nil
}

func (*s3Backend) Local() bool { return false }

// splitS3 parses s3://bucket/key into its bucket and key.
func splitS3(name string) (bucket, key string, err error) {
	rest := strings.TrimPrefix(name, "s3://")
	if rest == name {
		return "", "", fmt.Errorf("storage: %q is not an s3:// destination", name)
	}
	bucket, key, _ = strings.Cut(rest, "/")
	if bucket == "" {
		return "", "", fmt.Errorf("storage: s3 destination %q has no bucket", name)
	}
	return bucket, key, nil
}

// urlFor builds the request URL of one object (or bucket operation when
// key is empty). query must already be canonical (buildQuery).
func (b *s3Backend) urlFor(bucket, key, query string) (*url.URL, string) {
	u := &url.URL{Scheme: "https"}
	if b.cfg.endpoint != nil {
		u.Scheme = b.cfg.endpoint.Scheme
		u.Host = b.cfg.endpoint.Host
	} else {
		u.Host = "s3." + b.cfg.region + ".amazonaws.com"
	}
	p := "/" + key
	if b.cfg.pathStyle || b.cfg.endpoint != nil {
		p = "/" + bucket + "/" + key
	} else {
		u.Host = bucket + "." + u.Host
	}
	u.Path = strings.TrimSuffix(p, "/")
	if key == "" {
		u.Path = p[:len(p)-len(key)] // keep the trailing slash of a bucket URL
	}
	u.RawQuery = query
	return u, u.Host
}

// s3Error is the parsed XML error body of a failed request.
type s3Error struct {
	Status  int
	Code    string `xml:"Code"`
	Message string `xml:"Message"`
}

func (e *s3Error) Error() string {
	return fmt.Sprintf("s3: http %d %s: %s", e.Status, e.Code, e.Message)
}

// asSentinel maps an s3Error onto the package sentinels so errors.Is
// keeps working across backends.
func (e *s3Error) Unwrap() error {
	switch {
	case e.Status == http.StatusNotFound:
		return ErrNotExist
	case e.Status == http.StatusPreconditionFailed, e.Code == "PreconditionFailed":
		return ErrExists
	}
	return nil
}

// retryable reports whether a request error or status is transient.
func retryable(err error, status int) bool {
	if err != nil {
		return true // network-level errors: connection reset, timeout, EOF
	}
	switch status {
	case http.StatusInternalServerError, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout,
		http.StatusTooManyRequests, http.StatusRequestTimeout:
		return true
	}
	return false
}

// do signs and performs one request built by build, retrying transient
// failures with exponential backoff. build is called once per attempt so
// request bodies restart from the beginning. Returns the response (body
// unread) and the number of retries performed.
func (b *s3Backend) do(build func() (*http.Request, error)) (*http.Response, int, error) {
	var lastErr error
	for attempt := 0; attempt < b.cfg.maxAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(b.cfg.retryBase << (attempt - 1))
		}
		req, err := build()
		if err != nil {
			return nil, attempt, err
		}
		resp, err := b.hc.Do(req)
		if err == nil && resp.StatusCode < 300 {
			return resp, attempt, nil
		}
		status := 0
		if err == nil {
			status = resp.StatusCode
			if !retryable(nil, status) {
				defer resp.Body.Close()
				return nil, attempt, parseS3Error(resp)
			}
			lastErr = parseS3Error(resp)
			resp.Body.Close()
		} else {
			lastErr = err
		}
		if !retryable(err, status) {
			break
		}
	}
	return nil, b.cfg.maxAttempts - 1, fmt.Errorf("storage: s3 request failed after %d attempts: %w", b.cfg.maxAttempts, lastErr)
}

// parseS3Error reads a failed response's XML error body.
func parseS3Error(resp *http.Response) error {
	e := &s3Error{Status: resp.StatusCode}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	_ = xml.Unmarshal(body, e)
	if e.Code == "" {
		e.Message = strings.TrimSpace(string(body))
	}
	return e
}

// newReq builds one signed request. body may be nil.
func (b *s3Backend) newReq(method, bucket, key, query string, body []byte, hdr http.Header) (*http.Request, error) {
	u, host := b.urlFor(bucket, key, query)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, u.String(), rd)
	if err != nil {
		return nil, err
	}
	req.Host = host
	if body != nil {
		req.ContentLength = int64(len(body))
	}
	for k, vs := range hdr {
		for _, v := range vs {
			req.Header.Set(k, v)
		}
	}
	b.sign.sign(req, unsignedPayload, time.Now())
	return req, nil
}

// --- basic object operations ---

func (b *s3Backend) Get(name string) ([]byte, error) {
	bucket, key, err := splitS3(name)
	if err != nil {
		return nil, err
	}
	resp, _, err := b.do(func() (*http.Request, error) {
		return b.newReq(http.MethodGet, bucket, key, "", nil, nil)
	})
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

func (b *s3Backend) Stat(name string) (int64, error) {
	bucket, key, err := splitS3(name)
	if err != nil {
		return 0, err
	}
	resp, _, err := b.do(func() (*http.Request, error) {
		return b.newReq(http.MethodHead, bucket, key, "", nil, nil)
	})
	if err != nil {
		// HEAD errors carry no XML body; normalize 404s to the sentinel.
		var se *s3Error
		if errors.As(err, &se) && se.Status == http.StatusNotFound {
			return 0, fmt.Errorf("%w: %s", ErrNotExist, name)
		}
		return 0, err
	}
	defer resp.Body.Close()
	return resp.ContentLength, nil
}

func (b *s3Backend) Delete(name string) error {
	bucket, key, err := splitS3(name)
	if err != nil {
		return err
	}
	resp, _, err := b.do(func() (*http.Request, error) {
		return b.newReq(http.MethodDelete, bucket, key, "", nil, nil)
	})
	if err != nil {
		return err
	}
	resp.Body.Close()
	return nil
}

func (*s3Backend) EnsureDir(string) error { return nil } // object stores have no directories

func (b *s3Backend) List(prefix string) ([]string, error) {
	bucket, keyPrefix, err := splitS3(prefix)
	if err != nil {
		return nil, err
	}
	if keyPrefix != "" && !strings.HasSuffix(keyPrefix, "/") {
		keyPrefix += "/"
	}
	var names []string
	token := ""
	for {
		q := map[string]string{"list-type": "2", "prefix": keyPrefix}
		if token != "" {
			q["continuation-token"] = token
		}
		var out struct {
			Contents []struct {
				Key string `xml:"Key"`
			} `xml:"Contents"`
			IsTruncated           bool   `xml:"IsTruncated"`
			NextContinuationToken string `xml:"NextContinuationToken"`
		}
		if err := b.listPage("ListObjectsV2", bucket, "", q, &out); err != nil {
			return nil, err
		}
		for _, c := range out.Contents {
			names = append(names, "s3://"+bucket+"/"+c.Key)
		}
		if !out.IsTruncated || out.NextContinuationToken == "" {
			break
		}
		if out.NextContinuationToken == token {
			return nil, fmt.Errorf("storage: ListObjectsV2 pagination did not advance past continuation token %q", token)
		}
		token = out.NextContinuationToken
	}
	return sortedNames(names), nil
}

// Put uploads data as one atomic PUT. The failpoint semantics mirror the
// filesystem backend at the analogous instants: CrashBefore fires before
// the PUT (previous object still current), CorruptAfter overwrites the
// published object with its truncated first half before crashing.
func (b *s3Backend) Put(name string, data []byte, opts PutOptions) error {
	bucket, key, err := splitS3(name)
	if err != nil {
		return err
	}
	if opts.CrashBefore != "" && failpoint.Armed() && failpoint.Eval(opts.CrashBefore) {
		return failpoint.Crash(opts.CrashBefore)
	}
	hdr := http.Header{}
	if opts.IfAbsent {
		hdr.Set("If-None-Match", "*")
	}
	resp, _, err := b.do(func() (*http.Request, error) {
		return b.newReq(http.MethodPut, bucket, key, "", data, hdr)
	})
	if err != nil {
		if opts.IfAbsent && errors.Is(err, ErrExists) {
			return fmt.Errorf("%w: %s", ErrExists, name)
		}
		return err
	}
	resp.Body.Close()
	if opts.CorruptAfter != "" && failpoint.Armed() && failpoint.Eval(opts.CorruptAfter) {
		if resp, _, err := b.do(func() (*http.Request, error) {
			return b.newReq(http.MethodPut, bucket, key, "", data[:len(data)/2], nil)
		}); err == nil {
			resp.Body.Close()
		}
		return failpoint.Crash(opts.CorruptAfter)
	}
	return nil
}

// --- reader ---

// s3Reader reads an object with ranged GETs: sequential reads stream one
// long-lived GET from the current position, ReadAt issues independent
// range requests (what verify's chunk reads want).
type s3Reader struct {
	b      *s3Backend
	bucket string
	key    string
	size   int64
	pos    int64
	body   io.ReadCloser
}

func (b *s3Backend) Open(name string) (Reader, error) {
	size, err := b.Stat(name)
	if err != nil {
		return nil, err
	}
	bucket, key, err := splitS3(name)
	if err != nil {
		return nil, err
	}
	return &s3Reader{b: b, bucket: bucket, key: key, size: size}, nil
}

func (r *s3Reader) Size() int64 { return r.size }

func (r *s3Reader) Read(p []byte) (int, error) {
	if r.pos >= r.size {
		return 0, io.EOF
	}
	if r.body == nil {
		hdr := http.Header{}
		if r.pos > 0 {
			hdr.Set("Range", fmt.Sprintf("bytes=%d-", r.pos))
		}
		resp, _, err := r.b.do(func() (*http.Request, error) {
			return r.b.newReq(http.MethodGet, r.bucket, r.key, "", nil, hdr)
		})
		if err != nil {
			return 0, err
		}
		r.body = resp.Body
	}
	n, err := r.body.Read(p)
	r.pos += int64(n)
	if err == io.EOF && r.pos < r.size {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

func (r *s3Reader) ReadAt(p []byte, off int64) (int, error) {
	if off >= r.size {
		return 0, io.EOF
	}
	want := int64(len(p))
	if off+want > r.size {
		want = r.size - off
	}
	if want == 0 {
		return 0, nil
	}
	hdr := http.Header{}
	hdr.Set("Range", fmt.Sprintf("bytes=%d-%d", off, off+want-1))
	resp, _, err := r.b.do(func() (*http.Request, error) {
		return r.b.newReq(http.MethodGet, r.bucket, r.key, "", nil, hdr)
	})
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	n, err := io.ReadFull(resp.Body, p[:want])
	if err == nil && int64(n) < int64(len(p)) {
		err = io.EOF
	}
	return n, err
}

func (r *s3Reader) Seek(offset int64, whence int) (int64, error) {
	var next int64
	switch whence {
	case io.SeekStart:
		next = offset
	case io.SeekCurrent:
		next = r.pos + offset
	case io.SeekEnd:
		next = r.size + offset
	default:
		return 0, fmt.Errorf("storage: bad seek whence %d", whence)
	}
	if next < 0 {
		return 0, fmt.Errorf("storage: negative seek position %d", next)
	}
	if next != r.pos && r.body != nil {
		r.body.Close()
		r.body = nil
	}
	r.pos = next
	return next, nil
}

func (r *s3Reader) Close() error {
	if r.body != nil {
		err := r.body.Close()
		r.body = nil
		return err
	}
	return nil
}

// --- multipart plumbing ---

type s3Part struct {
	Num      int
	Size     int64
	ETag     string
	Checksum string // base64 SHA-256, empty when the store reported none
}

func (b *s3Backend) createMultipart(bucket, key string) (string, error) {
	hdr := http.Header{}
	hdr.Set("x-amz-checksum-algorithm", "SHA256")
	resp, _, err := b.do(func() (*http.Request, error) {
		return b.newReq(http.MethodPost, bucket, key, buildQuery(map[string]string{"uploads": ""}), nil, hdr)
	})
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var out struct {
		UploadID string `xml:"UploadId"`
	}
	if err := xml.NewDecoder(resp.Body).Decode(&out); err != nil || out.UploadID == "" {
		return "", fmt.Errorf("storage: bad InitiateMultipartUpload response: %v", err)
	}
	return out.UploadID, nil
}

// uploadPart uploads one part with its SHA-256 checksum, retrying
// transient failures. ctx aborts the upload between attempts and
// mid-request (Abort cancels it). The storage/s3-part-transient
// failpoint injects a retryable failure before a real attempt;
// storage/s3-part-fail injects a permanent one.
func (b *s3Backend) uploadPart(ctx context.Context, bucket, key, uploadID string, num int, data []byte, checksumB64 string) (string, error) {
	if failpoint.Armed() && failpoint.Eval("storage/s3-part-fail") {
		return "", fmt.Errorf("storage: injected permanent part-upload failure (part %d)", num)
	}
	attempt := func() (*http.Request, error) {
		if ctx != nil && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if failpoint.Armed() && failpoint.Eval("storage/s3-part-transient") {
			return nil, errInjectedTransient
		}
		hdr := http.Header{}
		hdr.Set("x-amz-checksum-sha256", checksumB64)
		req, err := b.newReq(http.MethodPut, bucket, key,
			buildQuery(map[string]string{"partNumber": strconv.Itoa(num), "uploadId": uploadID}),
			data, hdr)
		if err == nil && ctx != nil {
			req = req.WithContext(ctx)
		}
		return req, err
	}
	resp, retries, err := b.doTransient(attempt)
	stats.partRetries.Add(int64(retries))
	if retries > 0 {
		obs.Logger("storage").Warn("part upload retried",
			"key", key, "part", num, "retries", retries, "bytes", len(data), "err", err)
	}
	if err != nil {
		return "", err
	}
	etag := resp.Header.Get("ETag")
	resp.Body.Close()
	stats.partsUploaded.Add(1)
	stats.bytesUploaded.Add(int64(len(data)))
	return etag, nil
}

var errInjectedTransient = errors.New("storage: injected transient part-upload failure")

// doTransient is do, but treats errInjectedTransient from the builder as
// a retryable attempt instead of a hard error.
func (b *s3Backend) doTransient(build func() (*http.Request, error)) (*http.Response, int, error) {
	var lastErr error
	for attempt := 0; attempt < b.cfg.maxAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(b.cfg.retryBase << (attempt - 1))
		}
		req, err := build()
		if err == errInjectedTransient {
			lastErr = err
			continue
		}
		if err != nil {
			return nil, attempt, err
		}
		resp, err := b.hc.Do(req)
		if err == nil && resp.StatusCode < 300 {
			return resp, attempt, nil
		}
		if err == nil {
			if !retryable(nil, resp.StatusCode) {
				defer resp.Body.Close()
				return nil, attempt, parseS3Error(resp)
			}
			lastErr = parseS3Error(resp)
			resp.Body.Close()
		} else {
			lastErr = err
		}
	}
	return nil, b.cfg.maxAttempts, fmt.Errorf("storage: s3 part upload failed after %d attempts: %w", b.cfg.maxAttempts, lastErr)
}

func (b *s3Backend) completeMultipart(bucket, key, uploadID string, parts []s3Part) error {
	type xmlPart struct {
		XMLName        xml.Name `xml:"Part"`
		PartNumber     int      `xml:"PartNumber"`
		ETag           string   `xml:"ETag"`
		ChecksumSHA256 string   `xml:"ChecksumSHA256,omitempty"`
	}
	type completeReq struct {
		XMLName xml.Name `xml:"CompleteMultipartUpload"`
		Parts   []xmlPart
	}
	creq := completeReq{}
	for _, p := range parts {
		creq.Parts = append(creq.Parts, xmlPart{PartNumber: p.Num, ETag: p.ETag, ChecksumSHA256: p.Checksum})
	}
	body, err := xml.Marshal(creq)
	if err != nil {
		return err
	}
	hdr := http.Header{}
	hdr.Set("Content-Type", "application/xml")
	resp, _, err := b.do(func() (*http.Request, error) {
		return b.newReq(http.MethodPost, bucket, key, buildQuery(map[string]string{"uploadId": uploadID}), body, hdr)
	})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	// CompleteMultipartUpload can return 200 with an error body.
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if bytes.Contains(out, []byte("<Error>")) {
		e := &s3Error{Status: resp.StatusCode}
		_ = xml.Unmarshal(out, e)
		return e
	}
	return nil
}

func (b *s3Backend) abortMultipart(bucket, key, uploadID string) error {
	resp, _, err := b.do(func() (*http.Request, error) {
		return b.newReq(http.MethodDelete, bucket, key, buildQuery(map[string]string{"uploadId": uploadID}), nil, nil)
	})
	if err != nil {
		var se *s3Error
		if errors.As(err, &se) && se.Code == "NoSuchUpload" {
			return nil
		}
		return err
	}
	resp.Body.Close()
	return nil
}

// listPage GETs one page of an S3 listing and decodes its XML into out.
func (b *s3Backend) listPage(op, bucket, key string, q map[string]string, out any) error {
	resp, _, err := b.do(func() (*http.Request, error) {
		return b.newReq(http.MethodGet, bucket, key, buildQuery(q), nil, nil)
	})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := xml.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("storage: bad %s response: %w", op, err)
	}
	return nil
}

// listUploads returns the in-progress multipart uploads whose key equals
// key exactly, following the listing's key and upload ID markers past
// its first page (1,000 uploads on S3).
func (b *s3Backend) listUploads(bucket, key string) ([]string, error) {
	var ids []string
	var keyMarker, idMarker string
	for {
		q := map[string]string{"uploads": "", "prefix": key}
		if keyMarker != "" || idMarker != "" {
			q["key-marker"], q["upload-id-marker"] = keyMarker, idMarker
		}
		var out struct {
			Uploads []struct {
				Key      string `xml:"Key"`
				UploadID string `xml:"UploadId"`
			} `xml:"Upload"`
			IsTruncated        bool   `xml:"IsTruncated"`
			NextKeyMarker      string `xml:"NextKeyMarker"`
			NextUploadIDMarker string `xml:"NextUploadIdMarker"`
		}
		if err := b.listPage("ListMultipartUploads", bucket, "", q, &out); err != nil {
			return nil, err
		}
		for _, u := range out.Uploads {
			if u.Key == key {
				ids = append(ids, u.UploadID)
			}
		}
		if !out.IsTruncated {
			return ids, nil
		}
		// Keys list in ascending order, so the next pair must differ from
		// the one just sent and may not move the key backwards.
		if out.NextKeyMarker < keyMarker || out.NextKeyMarker == keyMarker && out.NextUploadIDMarker == idMarker {
			return nil, fmt.Errorf("storage: ListMultipartUploads pagination did not advance past key marker %q, upload ID marker %q", keyMarker, idMarker)
		}
		keyMarker, idMarker = out.NextKeyMarker, out.NextUploadIDMarker
	}
}

func (b *s3Backend) listParts(bucket, key, uploadID string) ([]s3Part, error) {
	var parts []s3Part
	marker := 0
	for {
		q := map[string]string{"uploadId": uploadID}
		if marker != 0 {
			q["part-number-marker"] = strconv.Itoa(marker)
		}
		var out struct {
			Parts []struct {
				PartNumber     int    `xml:"PartNumber"`
				Size           int64  `xml:"Size"`
				ETag           string `xml:"ETag"`
				ChecksumSHA256 string `xml:"ChecksumSHA256"`
			} `xml:"Part"`
			IsTruncated          bool   `xml:"IsTruncated"`
			NextPartNumberMarker string `xml:"NextPartNumberMarker"`
		}
		if err := b.listPage("ListParts", bucket, key, q, &out); err != nil {
			return nil, err
		}
		for _, p := range out.Parts {
			parts = append(parts, s3Part{Num: p.PartNumber, Size: p.Size, ETag: p.ETag, Checksum: p.ChecksumSHA256})
		}
		if !out.IsTruncated || out.NextPartNumberMarker == "" {
			break
		}
		next, err := strconv.Atoi(out.NextPartNumberMarker)
		if err != nil || next <= marker {
			return nil, fmt.Errorf("storage: ListParts pagination did not advance past part number marker %d (next %q)", marker, out.NextPartNumberMarker)
		}
		marker = next
	}
	sort.Slice(parts, func(i, j int) bool { return parts[i].Num < parts[j].Num })
	return parts, nil
}

// --- locks ---

// s3Lock is a lease object taken with a conditional PUT
// (If-None-Match: *, supported by AWS and MinIO). The body records the
// holder and an expiry; an expired lease is broken and retaken once. A
// crashed holder therefore blocks the worker only until the TTL lapses —
// the flock-style instant release has no object-store equivalent.
type s3Lock struct {
	b    *s3Backend
	name string
}

func (b *s3Backend) Lock(name string) (Unlock, error) {
	body := fmt.Sprintf("pid %d expires %s\n", os.Getpid(), time.Now().Add(b.cfg.lockTTL).UTC().Format(time.RFC3339))
	for attempt := 0; attempt < 2; attempt++ {
		err := b.Put(name, []byte(body), PutOptions{IfAbsent: true})
		if err == nil {
			return &s3Lock{b: b, name: name}, nil
		}
		if !errors.Is(err, ErrExists) {
			return nil, err
		}
		holder, gerr := b.Get(name)
		if gerr != nil {
			if errors.Is(gerr, ErrNotExist) {
				continue // released between PUT and GET: retry
			}
			return nil, gerr
		}
		if exp, ok := lockExpiry(string(holder)); ok && time.Now().After(exp) {
			// Expired lease: break it and retake once.
			if derr := b.Delete(name); derr != nil && !errors.Is(derr, ErrNotExist) {
				return nil, derr
			}
			continue
		}
		return nil, fmt.Errorf("%w: %s is held (%s)", ErrLocked, name, strings.TrimSpace(string(holder)))
	}
	return nil, fmt.Errorf("%w: %s is held", ErrLocked, name)
}

// lockExpiry parses the expiry out of a lease body.
func lockExpiry(body string) (time.Time, bool) {
	fields := strings.Fields(body)
	for i, f := range fields {
		if f == "expires" && i+1 < len(fields) {
			t, err := time.Parse(time.RFC3339, fields[i+1])
			return t, err == nil
		}
	}
	return time.Time{}, false
}

func (l *s3Lock) Release() error { return l.b.Delete(l.name) }
