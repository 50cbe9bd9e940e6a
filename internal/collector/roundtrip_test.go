package collector

// Round-trip tests for the HTTP transport's per-method slots: the
// deadline that bounds each attempt, the reused request buffers, and the
// allocation budget of one steady-state poll.

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jitomev/internal/explorer"
	"jitomev/internal/faults"
	"jitomev/internal/jito"
	"jitomev/internal/obs"
	"jitomev/internal/solana"
)

// raceEnabled is set by race_test.go under the race detector.
var raceEnabled bool

// shortTimeout lowers the per-attempt bound for one test.
func shortTimeout(t *testing.T, d time.Duration) {
	old := requestTimeout
	requestTimeout = d
	t.Cleanup(func() { requestTimeout = old })
}

// settled waits for the goroutine count to fall back to base: no
// connection or handler goroutine outlives the test.
func settled(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines left behind, started with %d:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// transportMethods calls each Transport method once against a store
// holding at least ten length-3 bundles; want is the records or details
// a healthy call returns.
var transportMethods = []struct {
	name string
	call func(Transport) (int, error)
	want int
}{
	{"RecentBundles", func(tr Transport) (int, error) {
		page, err := tr.RecentBundles(5)
		return len(page), err
	}, 5},
	{"RecentBundlesBefore", func(tr Transport) (int, error) {
		page, err := tr.RecentBundlesBefore(8, 5)
		return len(page), err
	}, 5},
	{"TxDetails", func(tr Transport) (int, error) {
		ids := fakeAccepted(3, 3, 3, 1_000).Record.TxIDs
		details, err := tr.TxDetails(ids)
		return len(details), err
	}, 3},
}

// TestHTTPTimeoutStalls: a server that stalls before its response
// headers, and one that stalls halfway through the body, each fail the
// call as ClassTimeout once the per-attempt bound passes; the next call
// on the same transport succeeds, and nothing is left running.
func TestHTTPTimeoutStalls(t *testing.T) {
	shortTimeout(t, 100*time.Millisecond)
	store := seededStore(10, 3)
	for _, stall := range []string{"headers", "body"} {
		for _, m := range transportMethods {
			t.Run(stall+"/"+m.name, func(t *testing.T) {
				base := runtime.NumGoroutine()
				release := make(chan struct{})
				var hits atomic.Int64
				healthy := explorer.NewServer(store, 0)
				srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if hits.Add(1) > 1 {
						healthy.ServeHTTP(w, r)
						return
					}
					io.Copy(io.Discard, r.Body) //nolint:errcheck
					if stall == "body" {
						w.Write([]byte(`{"bundles":[{"seq":1,`)) //nolint:errcheck
						w.(http.Flusher).Flush()
					}
					select {
					case <-r.Context().Done():
					case <-release:
					}
				}))
				tr := NewHTTP(srv.URL)
				tr.MaxRetries = 0
				start := time.Now()
				_, err := m.call(tr)
				if got := faults.Classify(err); got != faults.ClassTimeout {
					t.Fatalf("stalled call: class %v (%v), want timeout", got, err)
				}
				if took := time.Since(start); took > 3*time.Second {
					t.Errorf("stalled call took %v under a 100ms bound", took)
				}
				if n, err := m.call(tr); err != nil || n != m.want {
					t.Fatalf("call after the timeout: %d, %v; want %d", n, err, m.want)
				}
				close(release)
				srv.Close()
				tr.Close()
				settled(t, base)
			})
		}
	}
}

// TestHTTPTimeoutCancelWins: cancelling the transport's Context aborts a
// stalled call as a cancellation, not a timeout, long before the
// per-attempt bound would have fired.
func TestHTTPTimeoutCancelWins(t *testing.T) {
	base := runtime.NumGoroutine()
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	ctx, cancel := context.WithCancel(context.Background())
	tr := NewHTTP(srv.URL).WithContext(ctx)
	time.AfterFunc(50*time.Millisecond, cancel)
	start := time.Now()
	_, err := tr.RecentBundles(5)
	if !errors.Is(err, context.Canceled) || faults.Classify(err) == faults.ClassTimeout {
		t.Fatalf("cancelled call: %v (class %v), want a cancellation", err, faults.Classify(err))
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("cancellation took %v to abort the call", took)
	}
	close(release)
	srv.Close()
	tr.Close()
	settled(t, base)
}

// TestHTTPTraceparentUnbound: a traceparent bound for one call is not
// sent on the next call after the trace is detached, though the request
// is reused.
func TestHTTPTraceparentUnbound(t *testing.T) {
	store := seededStore(10, 3)
	var mu sync.Mutex
	var seen []string
	healthy := explorer.NewServer(store, 0)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen = append(seen, r.Header.Get("traceparent"))
		mu.Unlock()
		healthy.ServeHTTP(w, r)
	}))
	defer srv.Close()

	tracer := obs.NewTracer(obs.NewRegistry(), obs.TraceConfig{})
	tr := NewHTTP(srv.URL)
	for _, m := range transportMethods {
		seen = seen[:0]
		trace := tracer.StartTrace("poll")
		tr.BindTrace(trace.Ctx())
		if _, err := m.call(tr); err != nil {
			t.Fatal(err)
		}
		trace.End()
		tr.BindTrace(obs.SpanCtx{})
		if _, err := m.call(tr); err != nil {
			t.Fatal(err)
		}
		if len(seen) != 2 || seen[0] == "" || seen[1] != "" {
			t.Fatalf("%s: traceparent headers %q, want one bound then none", m.name, seen)
		}
	}
}

// TestHTTPNoCompression: the collector's GET and POST requests ask for
// no compression, and a response sent gzipped anyway is not inflated: it
// fails decode and is classified as corrupt, like any other non-JSON
// body, for each of the three methods.
func TestHTTPNoCompression(t *testing.T) {
	store := seededStore(10, 3)
	healthy := explorer.NewServer(store, 0)
	var mu sync.Mutex
	var seen []string // "METHOD Accept-Encoding" per request
	var gzipped atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen = append(seen, r.Method+" "+strings.Join(r.Header.Values("Accept-Encoding"), ","))
		mu.Unlock()
		if !gzipped.Load() {
			healthy.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		healthy.ServeHTTP(rec, r)
		var body bytes.Buffer
		zw := gzip.NewWriter(&body)
		zw.Write(rec.Body.Bytes())
		zw.Close()
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Encoding", "gzip")
		w.Write(body.Bytes())
	}))
	defer srv.Close()

	tr := NewHTTP(srv.URL)
	for _, m := range transportMethods {
		if n, err := m.call(tr); err != nil || n != m.want {
			t.Fatalf("%s: %d, %v; want %d", m.name, n, err, m.want)
		}
	}
	if want := []string{"GET ", "GET ", "POST "}; strings.Join(seen, "|") != strings.Join(want, "|") {
		t.Fatalf("requests %q, want %q: no Accept-Encoding", seen, want)
	}

	gzipped.Store(true)
	for _, m := range transportMethods {
		_, err := m.call(tr)
		if got := faults.Classify(err); got != faults.ClassCorrupt {
			t.Errorf("%s: gzipped body gave %v (class %v), want %v", m.name, err, got, faults.ClassCorrupt)
		}
	}
}

// TestHTTPMethodsConcurrent: the three methods have their own slots and
// may run at once (run under -race); each call's result is intact until
// its own method's next call.
func TestHTTPMethodsConcurrent(t *testing.T) {
	store := seededStore(40, 3)
	srv := httptest.NewServer(explorer.NewServer(store, 0))
	defer srv.Close()
	tr := NewHTTP(srv.URL)
	recent := store.Recent(20)
	before, _ := store.RecentBefore(30, 20)
	ids := fakeAccepted(7, 3, 7, 1_000).Record.TxIDs
	sameRecords := func(got, want []jito.BundleRecord) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if !got[i].Equal(&want[i]) {
				return false
			}
		}
		return true
	}
	calls := []func() error{
		func() error {
			page, err := tr.RecentBundles(20)
			if err == nil && !sameRecords(page, recent) {
				err = errors.New("recent page differs from the store")
			}
			return err
		},
		func() error {
			page, err := tr.RecentBundlesBefore(30, 20)
			if err == nil && !sameRecords(page, before) {
				err = errors.New("before page differs from the store")
			}
			return err
		},
		func() error {
			details, err := tr.TxDetails(ids)
			if err == nil && (len(details) != len(ids) || details[0].Sig != ids[0]) {
				err = errors.New("details differ from the request")
			}
			return err
		},
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(calls))
	for _, call := range calls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				if err := call(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestHTTPPollAllocs pins the allocation cost of one warm poll over
// loopback HTTP (BenchmarkHTTPPoll: client, server and ingest together).
func TestHTTPPollAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	if testing.Short() {
		t.Skip("runs a benchmark")
	}
	res := testing.Benchmark(BenchmarkHTTPPoll)
	if b, n := res.AllocedBytesPerOp(), res.AllocsPerOp(); b > 3_140 || n > 27 {
		t.Fatalf("warm poll allocates %d B in %d allocs, budget 3,140 B in 27", b, n)
	}
}

// TestHTTPColdReadSized: a cold read of a ~1 MiB page that declares its
// Content-Length sizes the body buffer once, not by growing it: the
// whole call, decode included, allocates under twice the body.
func TestHTTPColdReadSized(t *testing.T) {
	recs := make([]jito.BundleRecord, 4_000)
	for i := range recs {
		recs[i] = fakeAccepted(i+1, 1, solana.Slot(i+1), 1_000).Record
	}
	body := explorer.AppendRecent(nil, explorer.RecentResponse{Bundles: recs})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.Write(body) //nolint:errcheck
	}))
	defer srv.Close()
	tr := NewHTTP(srv.URL)
	runtime.GC() // two cycles empty the decoder's scratch pool
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	page, err := tr.RecentBundles(len(recs))
	runtime.ReadMemStats(&after)
	if err != nil || len(page) != len(recs) {
		t.Fatalf("page: %d records, %v", len(page), err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 2*uint64(len(body)) {
		t.Fatalf("cold read of a %d B page allocated %d B, over twice the body", len(body), got)
	}
}
