// Package s3test is an in-process S3-compatible server for unit tests:
// path-style buckets, conditional PUTs, ranged GETs, ListObjectsV2, and
// the full multipart lifecycle with server-side part checksum
// verification — the subset the storage package's client speaks. It
// independently re-derives each request's SigV4 signature from the wire
// form, so a canonicalization bug in the client (query ordering, path
// escaping, host handling) fails loudly in unit tests instead of only
// against MinIO in CI.
package s3test

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/xml"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Server is one in-memory S3 endpoint. Create with New, point the
// client at URL(), and configure the same credentials on both sides.
type Server struct {
	Access string
	Secret string

	// OnPart, when set, runs before a part upload is stored; returning an
	// error turns the upload into a 500 (the client retries it). Tests use
	// it to block parts (prove striping) or fail them (prove retry).
	OnPart func(bucket, key string, partNumber int) error

	mu      sync.Mutex
	buckets map[string]*bucket
	nextID  int
	ts      *httptest.Server
}

type bucket struct {
	obj     map[string][]byte
	uploads map[string]*upload
}

type upload struct {
	key   string
	parts map[int]part
}

type part struct {
	data     []byte
	etag     string
	checksum string
}

// New starts a server holding the named buckets.
func New(access, secret string, bucketNames ...string) *Server {
	s := &Server{Access: access, Secret: secret, buckets: map[string]*bucket{}}
	for _, b := range bucketNames {
		s.buckets[b] = &bucket{obj: map[string][]byte{}, uploads: map[string]*upload{}}
	}
	s.ts = httptest.NewServer(s)
	return s
}

func (s *Server) URL() string { return s.ts.URL }
func (s *Server) Close()      { s.ts.Close() }

// Object returns a copy of an object's bytes, or nil if absent.
func (s *Server) Object(bucketName, key string) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.buckets[bucketName]
	if b == nil {
		return nil
	}
	data, ok := b.obj[key]
	if !ok {
		return nil
	}
	return append([]byte(nil), data...)
}

// PutObject plants an object directly (corruption injection in tests).
func (s *Server) PutObject(bucketName, key string, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b := s.buckets[bucketName]; b != nil {
		b.obj[key] = append([]byte(nil), data...)
	}
}

// Uploads returns the number of in-progress multipart uploads.
func (s *Server) Uploads(bucketName string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b := s.buckets[bucketName]; b != nil {
		return len(b.uploads)
	}
	return 0
}

// readBody reads a request body into a buffer of exactly its declared
// size. Part bodies are megabytes; growing a buffer towards them by
// doubling allocates several times what the part holds.
func readBody(r *http.Request) ([]byte, error) {
	if r.ContentLength <= 0 {
		return io.ReadAll(r.Body)
	}
	body := make([]byte, r.ContentLength)
	_, err := io.ReadFull(r.Body, body)
	return body, err
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(r)
	if err != nil {
		xmlError(w, http.StatusBadRequest, "IncompleteBody", err.Error())
		return
	}
	if msg := s.checkSignature(r); msg != "" {
		xmlError(w, http.StatusForbidden, "SignatureDoesNotMatch", msg)
		return
	}
	bucketName, key, _ := strings.Cut(strings.TrimPrefix(r.URL.Path, "/"), "/")
	s.mu.Lock()
	b := s.buckets[bucketName]
	s.mu.Unlock()
	if b == nil {
		xmlError(w, http.StatusNotFound, "NoSuchBucket", bucketName)
		return
	}
	q := r.URL.Query()
	switch {
	case q.Has("uploads") && r.Method == http.MethodPost:
		s.initiateUpload(w, b, bucketName, key)
	case q.Has("uploads") && r.Method == http.MethodGet:
		s.listUploads(w, b, bucketName, q.Get("prefix"))
	case q.Has("uploadId") && q.Has("partNumber") && r.Method == http.MethodPut:
		s.uploadPart(w, r, b, bucketName, key, q.Get("uploadId"), q.Get("partNumber"), body)
	case q.Has("uploadId") && r.Method == http.MethodPost:
		s.completeUpload(w, b, bucketName, key, q.Get("uploadId"), body)
	case q.Has("uploadId") && r.Method == http.MethodDelete:
		s.abortUpload(w, b, key, q.Get("uploadId"))
	case q.Has("uploadId") && r.Method == http.MethodGet:
		s.listParts(w, b, key, q.Get("uploadId"))
	case q.Get("list-type") == "2" && r.Method == http.MethodGet:
		s.listObjects(w, b, bucketName, q.Get("prefix"))
	case r.Method == http.MethodPut:
		s.putObject(w, r, b, key, body)
	case r.Method == http.MethodGet:
		s.getObject(w, r, b, key)
	case r.Method == http.MethodHead:
		s.headObject(w, b, key)
	case r.Method == http.MethodDelete:
		s.deleteObject(w, b, key)
	default:
		xmlError(w, http.StatusMethodNotAllowed, "MethodNotAllowed", r.Method)
	}
}

func (s *Server) putObject(w http.ResponseWriter, r *http.Request, b *bucket, key string, body []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r.Header.Get("If-None-Match") == "*" {
		if _, exists := b.obj[key]; exists {
			xmlError(w, http.StatusPreconditionFailed, "PreconditionFailed", key)
			return
		}
	}
	b.obj[key] = body
	w.WriteHeader(http.StatusOK)
}

func (s *Server) getObject(w http.ResponseWriter, r *http.Request, b *bucket, key string) {
	s.mu.Lock()
	data, ok := b.obj[key]
	s.mu.Unlock()
	if !ok {
		xmlError(w, http.StatusNotFound, "NoSuchKey", key)
		return
	}
	if rng := r.Header.Get("Range"); rng != "" {
		start, end, ok := parseRange(rng, int64(len(data)))
		if !ok {
			xmlError(w, http.StatusRequestedRangeNotSatisfiable, "InvalidRange", rng)
			return
		}
		w.Header().Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", start, end, len(data)))
		w.WriteHeader(http.StatusPartialContent)
		w.Write(data[start : end+1])
		return
	}
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

func (s *Server) headObject(w http.ResponseWriter, b *bucket, key string) {
	s.mu.Lock()
	data, ok := b.obj[key]
	s.mu.Unlock()
	if !ok {
		w.WriteHeader(http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.WriteHeader(http.StatusOK)
}

func (s *Server) deleteObject(w http.ResponseWriter, b *bucket, key string) {
	s.mu.Lock()
	delete(b.obj, key)
	s.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) listObjects(w http.ResponseWriter, b *bucket, bucketName, prefix string) {
	s.mu.Lock()
	var keys []string
	for k := range b.obj {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	s.mu.Unlock()
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteString("<ListBucketResult><Name>" + bucketName + "</Name>")
	for _, k := range keys {
		sb.WriteString("<Contents><Key>" + xmlEscape(k) + "</Key></Contents>")
	}
	sb.WriteString("<IsTruncated>false</IsTruncated></ListBucketResult>")
	writeXML(w, sb.String())
}

func (s *Server) initiateUpload(w http.ResponseWriter, b *bucket, bucketName, key string) {
	s.mu.Lock()
	s.nextID++
	id := fmt.Sprintf("upload-%d", s.nextID)
	b.uploads[id] = &upload{key: key, parts: map[int]part{}}
	s.mu.Unlock()
	writeXML(w, "<InitiateMultipartUploadResult><Bucket>"+bucketName+"</Bucket><Key>"+
		xmlEscape(key)+"</Key><UploadId>"+id+"</UploadId></InitiateMultipartUploadResult>")
}

func (s *Server) listUploads(w http.ResponseWriter, b *bucket, bucketName, prefix string) {
	s.mu.Lock()
	type up struct{ id, key string }
	var ups []up
	for id, u := range b.uploads {
		if strings.HasPrefix(u.key, prefix) {
			ups = append(ups, up{id, u.key})
		}
	}
	s.mu.Unlock()
	sort.Slice(ups, func(i, j int) bool { return ups[i].id < ups[j].id })
	var sb strings.Builder
	sb.WriteString("<ListMultipartUploadsResult><Bucket>" + bucketName + "</Bucket>")
	for _, u := range ups {
		sb.WriteString("<Upload><Key>" + xmlEscape(u.key) + "</Key><UploadId>" + u.id + "</UploadId></Upload>")
	}
	sb.WriteString("</ListMultipartUploadsResult>")
	writeXML(w, sb.String())
}

func (s *Server) uploadPart(w http.ResponseWriter, r *http.Request, b *bucket, bucketName, key, id, partStr string, body []byte) {
	num, err := strconv.Atoi(partStr)
	if err != nil || num < 1 {
		xmlError(w, http.StatusBadRequest, "InvalidArgument", "bad part number")
		return
	}
	if hook := s.OnPart; hook != nil {
		if err := hook(bucketName, key, num); err != nil {
			xmlError(w, http.StatusInternalServerError, "InternalError", err.Error())
			return
		}
	}
	sum := sha256.Sum256(body)
	if want := r.Header.Get("x-amz-checksum-sha256"); want != "" {
		if got := base64.StdEncoding.EncodeToString(sum[:]); got != want {
			xmlError(w, http.StatusBadRequest, "BadDigest", "part checksum mismatch")
			return
		}
	}
	etag := `"` + hex.EncodeToString(sum[:16]) + `"`
	s.mu.Lock()
	u := b.uploads[id]
	if u == nil || u.key != key {
		s.mu.Unlock()
		xmlError(w, http.StatusNotFound, "NoSuchUpload", id)
		return
	}
	u.parts[num] = part{data: body, etag: etag, checksum: r.Header.Get("x-amz-checksum-sha256")}
	s.mu.Unlock()
	w.Header().Set("ETag", etag)
	w.WriteHeader(http.StatusOK)
}

func (s *Server) completeUpload(w http.ResponseWriter, b *bucket, bucketName, key, id string, body []byte) {
	var req struct {
		Parts []struct {
			PartNumber     int    `xml:"PartNumber"`
			ETag           string `xml:"ETag"`
			ChecksumSHA256 string `xml:"ChecksumSHA256"`
		} `xml:"Part"`
	}
	if err := xml.Unmarshal(body, &req); err != nil {
		xmlError(w, http.StatusBadRequest, "MalformedXML", err.Error())
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	u := b.uploads[id]
	if u == nil || u.key != key {
		xmlError(w, http.StatusNotFound, "NoSuchUpload", id)
		return
	}
	var stored []part
	size, last := 0, 0
	for _, p := range req.Parts {
		if p.PartNumber <= last {
			xmlError(w, http.StatusBadRequest, "InvalidPartOrder", "part numbers not ascending")
			return
		}
		last = p.PartNumber
		sp, ok := u.parts[p.PartNumber]
		if !ok || sp.etag != p.ETag {
			xmlError(w, http.StatusBadRequest, "InvalidPart", fmt.Sprintf("part %d", p.PartNumber))
			return
		}
		if p.ChecksumSHA256 != "" && sp.checksum != "" && p.ChecksumSHA256 != sp.checksum {
			xmlError(w, http.StatusBadRequest, "InvalidPart", fmt.Sprintf("part %d checksum", p.PartNumber))
			return
		}
		stored = append(stored, sp)
		size += len(sp.data)
	}
	if len(req.Parts) == 0 {
		xmlError(w, http.StatusBadRequest, "InvalidRequest", "complete with no parts")
		return
	}
	// Assemble the object once, at its final size.
	data := make([]byte, 0, size)
	for _, sp := range stored {
		data = append(data, sp.data...)
	}
	b.obj[key] = data
	delete(b.uploads, id)
	writeXML(w, "<CompleteMultipartUploadResult><Bucket>"+bucketName+"</Bucket><Key>"+
		xmlEscape(key)+"</Key></CompleteMultipartUploadResult>")
}

func (s *Server) abortUpload(w http.ResponseWriter, b *bucket, key, id string) {
	s.mu.Lock()
	u := b.uploads[id]
	if u != nil && u.key == key {
		delete(b.uploads, id)
		u = nil
		s.mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
		return
	}
	s.mu.Unlock()
	xmlError(w, http.StatusNotFound, "NoSuchUpload", id)
}

func (s *Server) listParts(w http.ResponseWriter, b *bucket, key, id string) {
	s.mu.Lock()
	u := b.uploads[id]
	if u == nil || u.key != key {
		s.mu.Unlock()
		xmlError(w, http.StatusNotFound, "NoSuchUpload", id)
		return
	}
	nums := make([]int, 0, len(u.parts))
	for n := range u.parts {
		nums = append(nums, n)
	}
	sort.Ints(nums)
	var sb strings.Builder
	sb.WriteString("<ListPartsResult><Key>" + xmlEscape(key) + "</Key><UploadId>" + id + "</UploadId>")
	for _, n := range nums {
		p := u.parts[n]
		sb.WriteString(fmt.Sprintf("<Part><PartNumber>%d</PartNumber><Size>%d</Size><ETag>%s</ETag><ChecksumSHA256>%s</ChecksumSHA256></Part>",
			n, len(p.data), xmlEscape(p.etag), p.checksum))
	}
	sb.WriteString("<IsTruncated>false</IsTruncated></ListPartsResult>")
	s.mu.Unlock()
	writeXML(w, sb.String())
}

// checkSignature re-derives the request's SigV4 signature from the wire
// form and compares it to the Authorization header. Returns a diagnostic
// on mismatch, "" on success.
func (s *Server) checkSignature(r *http.Request) string {
	auth := r.Header.Get("Authorization")
	if !strings.HasPrefix(auth, "AWS4-HMAC-SHA256 ") {
		return "missing AWS4-HMAC-SHA256 authorization"
	}
	var cred, signedHeaders, sig string
	for _, f := range strings.Split(strings.TrimPrefix(auth, "AWS4-HMAC-SHA256 "), ",") {
		f = strings.TrimSpace(f)
		switch {
		case strings.HasPrefix(f, "Credential="):
			cred = strings.TrimPrefix(f, "Credential=")
		case strings.HasPrefix(f, "SignedHeaders="):
			signedHeaders = strings.TrimPrefix(f, "SignedHeaders=")
		case strings.HasPrefix(f, "Signature="):
			sig = strings.TrimPrefix(f, "Signature=")
		}
	}
	credParts := strings.Split(cred, "/")
	if len(credParts) != 5 || credParts[0] != s.Access {
		return "bad credential scope " + cred
	}
	date, region, service := credParts[1], credParts[2], credParts[3]

	var canonHeaders strings.Builder
	for _, h := range strings.Split(signedHeaders, ";") {
		v := r.Header.Get(h)
		if h == "host" {
			v = r.Host
		}
		canonHeaders.WriteString(h + ":" + strings.TrimSpace(v) + "\n")
	}
	// The wire query re-canonicalized: parsed and re-sorted by key.
	vals := r.URL.Query()
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var q strings.Builder
	for i, k := range keys {
		if i > 0 {
			q.WriteByte('&')
		}
		q.WriteString(sigEscape(k) + "=" + sigEscape(vals.Get(k)))
	}
	canonical := strings.Join([]string{
		r.Method, r.URL.EscapedPath(), q.String(), canonHeaders.String(),
		signedHeaders, r.Header.Get("x-amz-content-sha256"),
	}, "\n")
	csum := sha256.Sum256([]byte(canonical))
	toSign := strings.Join([]string{
		"AWS4-HMAC-SHA256", r.Header.Get("x-amz-date"),
		date + "/" + region + "/" + service + "/aws4_request",
		hex.EncodeToString(csum[:]),
	}, "\n")
	mac := func(key []byte, msg string) []byte {
		m := hmac.New(sha256.New, key)
		m.Write([]byte(msg))
		return m.Sum(nil)
	}
	k := mac([]byte("AWS4"+s.Secret), date)
	k = mac(k, region)
	k = mac(k, service)
	k = mac(k, "aws4_request")
	want := hex.EncodeToString(mac(k, toSign))
	if want != sig {
		return "signature mismatch for " + r.Method + " " + r.URL.String()
	}
	return ""
}

func sigEscape(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'A' && c <= 'Z', c >= 'a' && c <= 'z', c >= '0' && c <= '9',
			c == '-', c == '.', c == '_', c == '~':
			b.WriteByte(c)
		default:
			const hexdig = "0123456789ABCDEF"
			b.WriteByte('%')
			b.WriteByte(hexdig[c>>4])
			b.WriteByte(hexdig[c&0xf])
		}
	}
	return b.String()
}

func parseRange(spec string, size int64) (start, end int64, ok bool) {
	spec = strings.TrimPrefix(spec, "bytes=")
	a, b, found := strings.Cut(spec, "-")
	if !found {
		return 0, 0, false
	}
	start, err := strconv.ParseInt(a, 10, 64)
	if err != nil || start < 0 || start >= size {
		return 0, 0, false
	}
	end = size - 1
	if b != "" {
		end, err = strconv.ParseInt(b, 10, 64)
		if err != nil || end < start {
			return 0, 0, false
		}
		if end >= size {
			end = size - 1
		}
	}
	return start, end, true
}

func writeXML(w http.ResponseWriter, body string) {
	w.Header().Set("Content-Type", "application/xml")
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, `<?xml version="1.0" encoding="UTF-8"?>`+body)
}

func xmlError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/xml")
	w.WriteHeader(status)
	fmt.Fprintf(w, `<?xml version="1.0" encoding="UTF-8"?><Error><Code>%s</Code><Message>%s</Message></Error>`,
		code, xmlEscape(msg))
}

func xmlEscape(s string) string {
	var b strings.Builder
	xml.EscapeText(&b, []byte(s))
	return b.String()
}
