package collector

// Tests for the transport's HTTP/1.1 client: connection reuse and
// redial (TestHTTPConn*), the response framings it reads, the header
// cap, and FuzzReadResponse against net/http's ReadResponse.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"jitomev/internal/explorer"
	"jitomev/internal/faults"
)

// connServer serves h and counts the connections clients open to it.
func connServer(t *testing.T, h http.Handler) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var dials atomic.Int64
	srv := httptest.NewUnstartedServer(h)
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			dials.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	return srv, &dials
}

// attempts reads the transport's request and retry counters for one
// endpoint.
func attempts(tr *HTTP, endpoint string) (requests, retries uint64) {
	eo := tr.obsFor(endpoint)
	return eo.attempts.Value(), eo.retries.Value()
}

// TestHTTPConnKeepAlive: each method keeps one connection across calls.
func TestHTTPConnKeepAlive(t *testing.T) {
	srv, dials := connServer(t, explorer.NewServer(seededStore(10, 3), 0))
	tr := NewHTTP(srv.URL)
	defer tr.Close()
	for _, m := range transportMethods {
		for i := 0; i < 5; i++ {
			if n, err := m.call(tr); err != nil || n != m.want {
				t.Fatalf("%s call %d: %d, %v; want %d", m.name, i, n, err, m.want)
			}
		}
	}
	if got := dials.Load(); got != int64(len(transportMethods)) {
		t.Errorf("%d connections for %d methods, want one each", got, len(transportMethods))
	}
}

// TestHTTPConnRedialsIdleClosed: a server that closes idle connections
// between calls costs a redial, not an attempt or a retry: the request
// is sent once more on a fresh connection, and the server sees each call
// once.
func TestHTTPConnRedialsIdleClosed(t *testing.T) {
	healthy := explorer.NewServer(seededStore(10, 3), 0)
	var hits atomic.Int64
	srv, dials := connServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		healthy.ServeHTTP(w, r)
	}))
	tr := NewHTTP(srv.URL)
	defer tr.Close()
	const calls = 4
	for _, m := range transportMethods {
		hits.Store(0)
		dials.Store(0)
		for i := 0; i < calls; i++ {
			if n, err := m.call(tr); err != nil || n != m.want {
				t.Fatalf("%s call %d: %d, %v; want %d", m.name, i, n, err, m.want)
			}
			srv.CloseClientConnections()
		}
		if got := hits.Load(); got != calls {
			t.Errorf("%s: server saw %d requests for %d calls", m.name, got, calls)
		}
		if got := dials.Load(); got != calls {
			t.Errorf("%s: %d connections for %d calls, want one each", m.name, got, calls)
		}
	}
	for _, endpoint := range []string{"recent", "details"} {
		req, retries := attempts(tr, endpoint)
		want := uint64(2 * calls)
		if endpoint == "details" {
			want = calls
		}
		if req != want || retries != 0 {
			t.Errorf("%s: %d attempts and %d retries, want %d and 0", endpoint, req, retries, want)
		}
	}
}

// TestHTTPConnCloseHeader: a response with Connection: close ends its
// connection; the next call dials afresh, at one attempt per call.
func TestHTTPConnCloseHeader(t *testing.T) {
	healthy := explorer.NewServer(seededStore(10, 3), 0)
	srv, dials := connServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Connection", "close")
		healthy.ServeHTTP(w, r)
	}))
	tr := NewHTTP(srv.URL)
	defer tr.Close()
	for i := 0; i < 3; i++ {
		if page, err := tr.RecentBundles(5); err != nil || len(page) != 5 {
			t.Fatalf("call %d: %d records, %v", i, len(page), err)
		}
	}
	if got := dials.Load(); got != 3 {
		t.Errorf("%d connections for 3 Connection: close responses, want 3", got)
	}
	if req, retries := attempts(tr, "recent"); req != 3 || retries != 0 {
		t.Errorf("%d attempts and %d retries, want 3 and 0", req, retries)
	}
}

// rawServer answers every request on a connection with the bytes resp
// returns, written as is; close ends the connection after each one.
func rawServer(t *testing.T, close bool, resp func(r *http.Request) []byte) (*httptest.Server, *atomic.Int64) {
	return connServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) //nolint:errcheck
		nc, buf, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		buf.Write(resp(r)) //nolint:errcheck
		buf.Flush()        //nolint:errcheck
		if close {
			nc.Close()
			return
		}
		// Serve the connection's next requests by hand.
		go func() {
			defer nc.Close()
			for {
				req, err := http.ReadRequest(buf.Reader)
				if err != nil {
					return
				}
				io.Copy(io.Discard, req.Body) //nolint:errcheck
				if _, err := nc.Write(resp(req)); err != nil {
					return
				}
			}
		}()
	}))
}

// chunk frames body as a chunked stream of parts of at most n bytes.
func chunk(body []byte, n int) []byte {
	var out []byte
	for len(body) > 0 {
		m := min(n, len(body))
		out = fmt.Appendf(out, "%x\r\n", m)
		out = append(append(out, body[:m]...), "\r\n"...)
		body = body[m:]
	}
	return append(out, "0\r\n\r\n"...)
}

// TestHTTPConnFramings: a page sent with Content-Length, chunked (with
// or without a trailer), or delimited by the connection's EOF decodes
// the same. A Content-Length or chunked response keeps its connection;
// one delimited by EOF, one with Connection: close and an HTTP/1.0 one
// without keep-alive cost a connection per call.
func TestHTTPConnFramings(t *testing.T) {
	store := seededStore(30, 3)
	page := explorer.AppendRecent(nil, explorer.RecentResponse{Bundles: store.Recent(20)})
	framings := []struct {
		name   string
		close  bool
		frame  func() []byte
		dialed int64
	}{
		{"content-length", false, func() []byte {
			return append(fmt.Appendf(nil, "HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n", len(page)), page...)
		}, 1},
		{"chunked", false, func() []byte {
			return append([]byte("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"), chunk(page, 700)...)
		}, 1},
		{"chunked-trailer", false, func() []byte {
			out := append([]byte("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nTrailer: X-Sum\r\n\r\n"), chunk(page, 1000)...)
			return append(out[:len(out)-2], "X-Sum: 1\r\n\r\n"...)
		}, 1},
		{"eof", true, func() []byte {
			return append([]byte("HTTP/1.1 200 OK\r\n\r\n"), page...)
		}, 3},
		// The server keeps these connections open; the client must not.
		{"connection-close", false, func() []byte {
			return append(fmt.Appendf(nil, "HTTP/1.1 200 OK\r\nConnection: keep-alive, Close\r\nContent-Length: %d\r\n\r\n", len(page)), page...)
		}, 3},
		{"http/1.0", false, func() []byte {
			return append(fmt.Appendf(nil, "HTTP/1.0 200 OK\r\nContent-Length: %d\r\n\r\n", len(page)), page...)
		}, 3},
		{"http/1.0-keep-alive", false, func() []byte {
			return append(fmt.Appendf(nil, "HTTP/1.0 200 OK\r\nConnection: Keep-Alive\r\nContent-Length: %d\r\n\r\n", len(page)), page...)
		}, 1},
	}
	for _, fr := range framings {
		t.Run(fr.name, func(t *testing.T) {
			srv, dials := rawServer(t, fr.close, func(*http.Request) []byte { return fr.frame() })
			tr := NewHTTP(srv.URL)
			defer tr.Close()
			want := store.Recent(20)
			for i := 0; i < 3; i++ {
				got, err := tr.RecentBundles(20)
				if err != nil || len(got) != len(want) {
					t.Fatalf("call %d: %d records, %v", i, len(got), err)
				}
				for j := range want {
					if !got[j].Equal(&want[j]) {
						t.Fatalf("call %d: record %d differs", i, j)
					}
				}
			}
			if got := dials.Load(); got != fr.dialed {
				t.Errorf("%d connections for 3 calls, want %d", got, fr.dialed)
			}
			if req, retries := attempts(tr, "recent"); req != 3 || retries != 0 {
				t.Errorf("%d attempts and %d retries, want 3 and 0", req, retries)
			}
		})
	}
}

// TestHTTPConnCutAndUnread: a body cut short by the connection fails as
// truncation, and a 5xx body longer than the drain reads leaves its
// connection unreusable; either way the next attempt dials afresh.
func TestHTTPConnCutAndUnread(t *testing.T) {
	store := seededStore(10, 3)
	page := explorer.AppendRecent(nil, explorer.RecentResponse{Bundles: store.Recent(5)})
	cases := []struct {
		name  string
		first []byte
		class faults.Class
	}{
		{"cut", append(fmt.Appendf(nil, "HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n", len(page)), page[:len(page)/2]...), faults.ClassTruncate},
		{"unread", append([]byte("HTTP/1.1 500 Internal Server Error\r\nContent-Length: 10000\r\n\r\n"), bytes.Repeat([]byte("x"), 10000)...), faults.ClassServer},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var hits atomic.Int64
			srv, dials := rawServer(t, tc.name == "cut", func(*http.Request) []byte {
				if hits.Add(1) == 1 {
					return tc.first
				}
				return append(fmt.Appendf(nil, "HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n", len(page)), page...)
			})
			tr := NewHTTP(srv.URL)
			defer tr.Close()
			tr.MaxRetries = 0
			_, err := tr.RecentBundles(5)
			if faults.Classify(err) != tc.class {
				t.Fatalf("first call: %v (class %v), want %v", err, faults.Classify(err), tc.class)
			}
			if got, err := tr.RecentBundles(5); err != nil || len(got) != 5 {
				t.Fatalf("second call: %d records, %v", len(got), err)
			}
			if got := dials.Load(); got != 2 {
				t.Errorf("%d connections, want a fresh one after the failed response", got)
			}
		})
	}
}

// TestHTTPConnHeaderCap: a head over maxHeaderBytes is refused as a
// transport failure — many lines, or one continuation line of spaces —
// while one just under it is read, a line longer than the read buffer
// included.
func TestHTTPConnHeaderCap(t *testing.T) {
	page := explorer.AppendRecent(nil, explorer.RecentResponse{Bundles: seededStore(10, 3).Recent(5)})
	// lines returns a head of 1,000-byte lines, after one longer than the
	// read buffer, up to about size bytes.
	lines := func(size int) string {
		head := "X-Long: " + strings.Repeat("b", 2*readBufferSize) + "\r\n"
		for len(head)+1_000 < size {
			head += "X-Pad: " + strings.Repeat("a", 991) + "\r\n"
		}
		return head
	}
	for _, tc := range []struct {
		name, fields string
		fail         bool
	}{
		{"under", lines(maxHeaderBytes - 1_000), false},
		{"over", lines(maxHeaderBytes + 1_000), true},
		{"spaces", "X-A: b\r\n" + strings.Repeat(" ", maxHeaderBytes) + "c\r\n", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, _ := rawServer(t, false, func(*http.Request) []byte {
				head := fmt.Appendf(nil, "HTTP/1.1 200 OK\r\n%sContent-Length: %d\r\n\r\n", tc.fields, len(page))
				return append(head, page...)
			})
			tr := NewHTTP(srv.URL)
			defer tr.Close()
			tr.MaxRetries = 0
			got, err := tr.RecentBundles(5)
			switch {
			case tc.fail && !errors.Is(err, errHeaderTooLarge):
				t.Fatalf("%v, want the header cap", err)
			case tc.fail && faults.Classify(err) != faults.ClassTransport:
				t.Fatalf("class %v, want transport", faults.Classify(err))
			case !tc.fail && (err != nil || len(got) != 5):
				t.Fatalf("%d records, %v", len(got), err)
			}
		})
	}
}

// TestHTTPConnBaseURL: only http:// base URLs are spoken; anything else
// fails at once, before an attempt is counted.
func TestHTTPConnBaseURL(t *testing.T) {
	for _, base := range []string{"https://127.0.0.1:1", "127.0.0.1:1", "http://", "ftp://x"} {
		tr := NewHTTP(base)
		if _, err := tr.RecentBundles(5); err == nil {
			t.Errorf("%q: call succeeded", base)
		}
		if req, _ := attempts(tr, "recent"); req != 0 {
			t.Errorf("%q: %d attempts counted", base, req)
		}
	}
}

// fuzzMaxBody is FuzzReadResponse's body cap, MaxBody's role.
const fuzzMaxBody = 64 << 10

// FuzzReadResponse feeds arbitrary bytes to the response reader and to
// net/http's ReadResponse plus io.ReadAll, both bodies capped alike.
// Neither may panic; where both accept the head, status and body bytes
// are equal and a body error classifies alike through DecodeClass; the
// reader refuses a head net/http accepts only over maxHeaderBytes, and
// never accepts one net/http refuses; where both refuse, the errors
// classify alike through Classify. The reader holds at most the header
// cap of head lines and the body cap of body bytes.
func FuzzReadResponse(f *testing.F) {
	page := explorer.AppendRecent(nil, explorer.RecentResponse{Bundles: seededStore(6, 3).Recent(4)})
	details := explorer.AppendDetailResponse(nil, explorer.DetailResponse{Transactions: fakeAccepted(1, 3, 1, 1_000).Details})
	var seeds [][]byte
	for _, body := range [][]byte{page, details} {
		cl := append(fmt.Appendf(nil, "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", len(body)), body...)
		ch := append([]byte("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nTransfer-Encoding: chunked\r\n\r\n"), chunk(body, 300)...)
		eof := append([]byte("HTTP/1.0 200 OK\r\n\r\n"), body...)
		seeds = append(seeds, cl, ch, eof)
		// ChaosHandler-style damage: bodies cut in half, and four bytes
		// flipped at hashed offsets.
		for _, s := range [][]byte{cl, ch, eof} {
			seeds = append(seeds, s[:len(s)/2], s[:len(s)-1])
			flipped := bytes.Clone(s)
			for k := uint64(0); k < 4; k++ {
				off := int((k*0x9e3779b97f4a7c15 + 7) % uint64(len(flipped)))
				flipped[off] ^= 0x5a
			}
			seeds = append(seeds, flipped)
		}
	}
	seeds = append(seeds,
		[]byte("HTTP/1.1 429 Too Many Requests\r\nRetry-After: 0.040\r\nContent-Length: 5\r\n\r\nslow\n"),
		[]byte("HTTP/1.1 503 Service Unavailable\r\nConnection: close\r\nRetry-After: 1e10\r\n\r\ndown"),
		[]byte("HTTP/1.1 204 No Content\r\nTransfer-Encoding: chunked\r\n\r\n"),
		[]byte("HTTP/1.1 200 OK\r\nX-A: b\r\n  c\r\nContent-Length: 2\r\n\r\nok"),
		[]byte("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nTrailer: X\r\n\r\n2;ext\r\nok\r\n0\r\nX: y\r\n\r\n"),
		[]byte("HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nabc"),
	)
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var r response
		r.br = bufio.NewReaderSize(bytes.NewReader(data), readBufferSize)
		ourErr := r.readHead()
		if cap(r.long) > 2*maxHeaderBytes+readBufferSize || cap(r.cont) > 2*maxHeaderBytes+readBufferSize {
			t.Fatalf("head buffers grew to %d and %d B", cap(r.long), cap(r.cont))
		}
		resp, theirErr := http.ReadResponse(bufio.NewReader(bytes.NewReader(data)), nil)
		switch {
		case ourErr != nil && theirErr != nil:
			if a, b := faults.Classify(ourErr), faults.Classify(theirErr); a != b {
				t.Fatalf("head refused as %v (%v), net/http as %v (%v)", a, ourErr, b, theirErr)
			}
			return
		case ourErr != nil:
			if !errors.Is(ourErr, errHeaderTooLarge) {
				t.Fatalf("head refused (%v) where net/http accepts status %d", ourErr, resp.StatusCode)
			}
			return
		case theirErr != nil:
			t.Fatalf("head accepted (status %d) where net/http refuses: %v", r.head.status, theirErr)
		}
		if r.head.status != resp.StatusCode {
			t.Fatalf("status %d, net/http %d", r.head.status, resp.StatusCode)
		}
		ours, ourErr := io.ReadAll(&io.LimitedReader{R: &r, N: fuzzMaxBody})
		theirs, theirErr := io.ReadAll(io.LimitReader(resp.Body, fuzzMaxBody))
		if len(ours) > fuzzMaxBody {
			t.Fatalf("read %d body bytes over a %d B cap", len(ours), fuzzMaxBody)
		}
		if !bytes.Equal(ours, theirs) {
			t.Fatalf("body %q, net/http %q", ours, theirs)
		}
		if (ourErr == nil) != (theirErr == nil) {
			t.Fatalf("body error %v, net/http %v", ourErr, theirErr)
		}
		if ourErr != nil {
			if a, b := faults.DecodeClass(ourErr), faults.DecodeClass(theirErr); a != b {
				t.Fatalf("body error classed %v (%v), net/http %v (%v)", a, ourErr, b, theirErr)
			}
		}
	})
}
