package storage_test

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/storage"
)

// listServer starts a server that answers every S3 list request with
// body(query) and 404s anything else, and points the s3 backend at it.
// It returns the number of list requests served.
func listServer(tb testing.TB, body func(q string) string) *atomic.Int64 {
	var lists atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		if r.Method != http.MethodGet || !(q.Has("list-type") || q.Has("uploads") || q.Has("uploadId")) {
			w.WriteHeader(http.StatusNotFound)
			return
		}
		lists.Add(1)
		w.Write([]byte(body(r.URL.RawQuery)))
	}))
	tb.Cleanup(srv.Close)
	tb.Setenv("KAGEN_S3_ENDPOINT", srv.URL)
	tb.Setenv("AWS_ACCESS_KEY_ID", "test-access")
	tb.Setenv("AWS_SECRET_ACCESS_KEY", "test-secret")
	tb.Setenv("AWS_REGION", "us-east-1")
	tb.Setenv("KAGEN_S3_MAX_ATTEMPTS", "1")
	return &lists
}

// TestS3PaginationMustAdvance: a list response that claims more pages
// but hands back the continuation token (or part number marker, or key
// and upload ID marker pair) just sent is an error, not a loop that
// re-lists the same page forever.
func TestS3PaginationMustAdvance(t *testing.T) {
	var stuckUploads atomic.Bool
	lists := listServer(t, func(q string) string {
		switch {
		case stuckUploads.Load() && strings.Contains(q, "uploads"):
			return `<ListMultipartUploadsResult><Upload><Key>p/shard</Key><UploadId>u1</UploadId></Upload>` +
				`<IsTruncated>true</IsTruncated><NextKeyMarker>p/shard</NextKeyMarker>` +
				`<NextUploadIdMarker>u1</NextUploadIdMarker></ListMultipartUploadsResult>`
		case strings.Contains(q, "list-type"):
			return `<ListBucketResult><Contents><Key>p/a</Key></Contents><IsTruncated>true</IsTruncated>` +
				`<NextContinuationToken>same</NextContinuationToken></ListBucketResult>`
		case strings.Contains(q, "uploadId"):
			return `<ListPartsResult><Part><PartNumber>1</PartNumber><Size>5</Size></Part>` +
				`<IsTruncated>true</IsTruncated><NextPartNumberMarker>1</NextPartNumberMarker></ListPartsResult>`
		}
		return `<ListMultipartUploadsResult><Upload><Key>p/shard</Key><UploadId>u1</UploadId></Upload></ListMultipartUploadsResult>`
	})
	be, err := storage.Resolve("s3://bkt/p")
	if err != nil {
		t.Fatal(err)
	}
	names, err := be.List("s3://bkt/p")
	if err == nil || !strings.Contains(err.Error(), "did not advance") {
		t.Fatalf("List of a stuck listing: %d names, err %v; want a pagination error", len(names), err)
	}
	if n := lists.Load(); n > 2 {
		t.Errorf("List sent %d requests before failing, want <= 2", n)
	}
	// ResumeShard lists the uploads once, then the parts: page one moves
	// the marker to 1, page two repeats it.
	lists.Store(0)
	w, err := be.ResumeShard("s3://bkt/p/shard", 5)
	if err == nil || !strings.Contains(err.Error(), "did not advance") {
		if w != nil {
			w.Close()
		}
		t.Fatalf("ResumeShard over a stuck part listing: err %v; want a pagination error", err)
	}
	if n := lists.Load(); n > 3 {
		t.Errorf("ResumeShard sent %d list requests before failing, want <= 3", n)
	}
	// The upload listing's first page moves the markers to (p/shard, u1),
	// the second repeats them.
	stuckUploads.Store(true)
	lists.Store(0)
	w, err = be.ResumeShard("s3://bkt/p/shard", 5)
	if err == nil || !strings.Contains(err.Error(), "ListMultipartUploads pagination did not advance") {
		if w != nil {
			w.Close()
		}
		t.Fatalf("ResumeShard over a stuck upload listing: err %v; want a pagination error", err)
	}
	if n := lists.Load(); n > 2 {
		t.Errorf("ResumeShard sent %d upload list requests before failing, want <= 2", n)
	}
}

// TestS3ResumeFindsUploadOnLaterPage: ListMultipartUploads returns at
// most 1,000 uploads a page, so the upload ResumeShard must reattach to
// can sit past the first page; it is found, not regenerated from zero.
func TestS3ResumeFindsUploadOnLaterPage(t *testing.T) {
	lists := listServer(t, func(q string) string {
		switch {
		case strings.Contains(q, "uploadId=u2"):
			return `<ListPartsResult><Part><PartNumber>1</PartNumber><Size>5</Size></Part></ListPartsResult>`
		case strings.Contains(q, "uploadId"):
			return `<ListPartsResult></ListPartsResult>`
		case strings.Contains(q, "key-marker=p%2Fshard"):
			return `<ListMultipartUploadsResult><Upload><Key>p/shard</Key><UploadId>u2</UploadId></Upload>` +
				`<IsTruncated>false</IsTruncated></ListMultipartUploadsResult>`
		}
		return `<ListMultipartUploadsResult><Upload><Key>p/shard</Key><UploadId>u1</UploadId></Upload>` +
			`<IsTruncated>true</IsTruncated><NextKeyMarker>p/shard</NextKeyMarker>` +
			`<NextUploadIdMarker>u1</NextUploadIdMarker></ListMultipartUploadsResult>`
	})
	be, err := storage.Resolve("s3://bkt/p")
	if err != nil {
		t.Fatal(err)
	}
	w, err := be.ResumeShard("s3://bkt/p/shard", 5)
	if err != nil {
		t.Fatalf("ResumeShard with the upload on page two: %v", err)
	}
	defer w.Close()
	if off, err := w.Sync(); off != 5 || err != nil {
		t.Errorf("resumed shard is durable to %d (err %v), want 5", off, err)
	}
	if n := lists.Load(); n != 4 {
		t.Errorf("%d list requests, want 4: two upload pages, two part listings", n)
	}
}

// FuzzS3ListResponses: whatever body a server returns for
// ListObjectsV2, ListParts or ListMultipartUploads, List and ResumeShard
// return a result or an error; they never panic or loop.
func FuzzS3ListResponses(f *testing.F) {
	for _, seed := range []string{
		`<ListBucketResult><Contents><Key>p/a</Key></Contents><IsTruncated>false</IsTruncated></ListBucketResult>`,
		`<ListBucketResult><IsTruncated>true</IsTruncated><NextContinuationToken>t</NextContinuationToken></ListBucketResult>`,
		// One root serves both the upload and the part listing.
		`<R><Upload><Key>p/shard</Key><UploadId>u</UploadId></Upload><Part><PartNumber>1</PartNumber><Size>5</Size></Part></R>`,
		`<ListPartsResult><IsTruncated>true</IsTruncated><NextPartNumberMarker>-1</NextPartNumberMarker></ListPartsResult>`,
		`<ListMultipartUploadsResult><Upload><Key>p/shard</Key><UploadId>u</UploadId></Upload><IsTruncated>true</IsTruncated>` +
			`<NextKeyMarker>p/shard</NextKeyMarker><NextUploadIdMarker>u</NextUploadIdMarker></ListMultipartUploadsResult>`,
		``,
		`<`,
	} {
		f.Add([]byte(seed))
	}
	var body atomic.Pointer[[]byte]
	listServer(f, func(string) string { return string(*body.Load()) })
	be, err := storage.Resolve("s3://bkt/p")
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		body.Store(&b)
		be.List("s3://bkt/p")
		if w, err := be.ResumeShard("s3://bkt/p/shard", 5); err == nil {
			w.Close()
		}
	})
}
