package collector

// Resilience tests: the hardened HTTP loop (5xx retry, Retry-After,
// backoff cap, bounded bodies, circuit breaker) and the gracefully
// degrading collection paths (per-batch detail retry and requeue,
// backfill under failure, overlap-chain hygiene across outages, pending
// queue resume across checkpoints).

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"jitomev/internal/explorer"
	"jitomev/internal/faults"
	"jitomev/internal/jito"
	"jitomev/internal/solana"
)

// instantSleep makes retry waits immediate while preserving cancellation.
func instantSleep(ctx context.Context, _ time.Duration) error { return ctx.Err() }

func seededStore(n, bundleLen int) *explorer.Store {
	store := explorer.NewStore()
	for i := 1; i <= n; i++ {
		store.Accept(0, fakeAccepted(i, bundleLen, solana.Slot(i), 1_000))
	}
	return store
}

func TestHTTPRetries5xx(t *testing.T) {
	store := seededStore(10, 1)
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			http.Error(w, "bad gateway", http.StatusBadGateway)
			return
		}
		explorer.NewServer(store, 0).ServeHTTP(w, r)
	}))
	defer srv.Close()

	tr := NewHTTP(srv.URL)
	tr.Backoff = time.Millisecond
	page, err := tr.RecentBundles(5)
	if err != nil {
		t.Fatalf("5xx should be retried: %v", err)
	}
	if len(page) != 5 || hits.Load() != 3 {
		t.Errorf("page=%d hits=%d", len(page), hits.Load())
	}
}

func TestHTTPDoesNotRetryClient4xx(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "bad request", http.StatusBadRequest)
	}))
	defer srv.Close()
	tr := NewHTTP(srv.URL)
	tr.Backoff = time.Millisecond
	if _, err := tr.RecentBundles(5); err == nil {
		t.Fatal("400 should fail")
	}
	if hits.Load() != 1 {
		t.Errorf("400 retried: %d hits", hits.Load())
	}
}

func TestHTTPHonorsRetryAfter(t *testing.T) {
	store := seededStore(5, 1)
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			w.Header().Set("Retry-After", "0.08")
			http.Error(w, "throttled", http.StatusTooManyRequests)
			return
		}
		explorer.NewServer(store, 0).ServeHTTP(w, r)
	}))
	defer srv.Close()

	tr := NewHTTP(srv.URL)
	tr.Backoff = time.Millisecond // far below the advertised 80ms
	start := time.Now()
	if _, err := tr.RecentBundles(3); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 60*time.Millisecond {
		t.Errorf("Retry-After ignored: recovered in %v, server asked for 80ms", elapsed)
	}
}

func TestRetryDelayCapAndJitter(t *testing.T) {
	h := &HTTP{Backoff: 10 * time.Millisecond, MaxBackoff: 80 * time.Millisecond}
	for attempt := 1; attempt <= 12; attempt++ {
		d, _ := h.retryDelay(attempt, nil)
		if d > 120*time.Millisecond { // 1.5 × cap
			t.Fatalf("attempt %d: delay %v exceeds jittered cap", attempt, d)
		}
		if d <= 0 {
			t.Fatalf("attempt %d: non-positive delay %v", attempt, d)
		}
	}
	// Deep attempts saturate at the cap (within jitter bounds).
	if d, _ := h.retryDelay(10, nil); d < 40*time.Millisecond {
		t.Errorf("attempt 10 delay %v below 0.5×cap", d)
	}
	// Server-suggested delay dominates a smaller backoff…
	ra := &faults.Error{Class: faults.ClassThrottle, RetryAfter: 60 * time.Millisecond}
	if d, _ := h.retryDelay(1, ra); d < 60*time.Millisecond {
		t.Errorf("Retry-After not honored: %v", d)
	}
	// …but a hostile header is capped at MaxBackoff.
	hostile := &faults.Error{Class: faults.ClassThrottle, RetryAfter: time.Hour}
	if d, _ := h.retryDelay(1, hostile); d > 120*time.Millisecond {
		t.Errorf("hostile Retry-After not capped: %v", d)
	}
}

// TestHTTPRetryAfterClamped: a Retry-After delay is honoured up to
// MaxBackoff however large it is — one past time.Duration's range
// included — while NaN, negative and unparseable values count as absent
// and leave the computed backoff.
func TestHTTPRetryAfterClamped(t *testing.T) {
	const maxBackoff = 80 * time.Millisecond
	for _, tc := range []struct {
		value   string
		honored bool
		want    time.Duration // the wait when honored
	}{
		{"0.02", true, 20 * time.Millisecond},
		{"9000000000", true, maxBackoff},
		{"1e10", true, maxBackoff},
		{"10000000000", true, maxBackoff},
		{"1e300", true, maxBackoff},
		{"+Inf", true, maxBackoff},
		{"NaN", false, 0},
		{"-1", false, 0},
		{"-Inf", false, 0},
		{"soon", false, 0},
	} {
		t.Run(tc.value, func(t *testing.T) {
			var hits atomic.Int64
			store := seededStore(5, 1)
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if hits.Add(1) == 1 {
					w.Header().Set("Retry-After", tc.value)
					http.Error(w, "throttled", http.StatusTooManyRequests)
					return
				}
				explorer.NewServer(store, 0).ServeHTTP(w, r)
			}))
			defer srv.Close()
			tr := NewHTTP(srv.URL)
			defer tr.Close()
			tr.Backoff = time.Millisecond
			tr.MaxBackoff = maxBackoff
			var waits []time.Duration
			tr.sleep = func(_ context.Context, d time.Duration) error {
				waits = append(waits, d)
				return nil
			}
			if _, err := tr.RecentBundles(3); err != nil {
				t.Fatal(err)
			}
			honored := tr.obsFor("recent").retryAfter.Value() == 1
			if len(waits) != 1 || honored != tc.honored {
				t.Fatalf("waits %v, honored %v; want one wait, honored %v", waits, honored, tc.honored)
			}
			switch {
			case tc.honored && waits[0] != tc.want:
				t.Errorf("waited %v, want %v", waits[0], tc.want)
			case !tc.honored && waits[0] > 2*time.Millisecond:
				t.Errorf("waited %v, want the ~1ms backoff", waits[0])
			}
		})
	}
}

func TestHTTPBoundedBody(t *testing.T) {
	store := seededStore(200, 1)
	srv := httptest.NewServer(explorer.NewServer(store, 0))
	defer srv.Close()

	tr := NewHTTP(srv.URL)
	tr.MaxRetries = 0
	tr.MaxBody = 64 // far below the legitimate page's JSON
	_, err := tr.RecentBundles(200)
	if err == nil {
		t.Fatal("oversized body decoded despite MaxBody")
	}
	if got := faults.Classify(err); got != faults.ClassTruncate {
		t.Errorf("bounded body classified as %v (%v)", got, err)
	}
	// With the default bound the same page decodes fine.
	tr2 := NewHTTP(srv.URL)
	if page, err := tr2.RecentBundles(200); err != nil || len(page) != 200 {
		t.Fatalf("legitimate page failed: %v (%d)", err, len(page))
	}
}

// TestHTTPResponseBytesCounted: collector_http_response_bytes_total
// counts the body bytes read — the whole body on a clean response
// (trailing bytes after the JSON value included, however a decoder
// would have chunked its reads), the capped length on an oversized one.
func TestHTTPResponseBytesCounted(t *testing.T) {
	recent := explorer.AppendRecent(nil, explorer.RecentResponse{Bundles: seededStore(40, 3).Recent(40)})
	recent = append(recent, bytes.Repeat([]byte(" "), 8<<10)...)
	details := explorer.AppendDetailResponse(nil, explorer.DetailResponse{Transactions: fakeAccepted(1, 3, 1, 1_000).Details})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/api/v1/transactions" {
			w.Write(details)
			return
		}
		w.Write(recent)
	}))
	defer srv.Close()
	counted := func(tr *HTTP, endpoint string) uint64 { return tr.obsFor(endpoint).bytes.Value() }

	tr := NewHTTP(srv.URL)
	if page, err := tr.RecentBundles(40); err != nil || len(page) != 40 {
		t.Fatalf("clean page: %v (%d)", err, len(page))
	}
	if _, err := tr.TxDetails(nil); err != nil {
		t.Fatal(err)
	}
	if got := counted(tr, "recent"); got != uint64(len(recent)) {
		t.Errorf("recent counted %d bytes, body is %d", got, len(recent))
	}
	if got := counted(tr, "details"); got != uint64(len(details)) {
		t.Errorf("details counted %d bytes, body is %d", got, len(details))
	}

	capped := NewHTTP(srv.URL)
	capped.MaxRetries = 0
	capped.MaxBody = int64(len(recent) / 3)
	_, err := capped.RecentBundles(40)
	if got := faults.Classify(err); got != faults.ClassTruncate {
		t.Fatalf("capped body: class %v (%v)", got, err)
	}
	if got := counted(capped, "recent"); got != uint64(capped.MaxBody) {
		t.Errorf("capped body counted %d bytes, cap is %d", got, capped.MaxBody)
	}
}

func TestHTTPContextCancellation(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tr := NewHTTP(srv.URL).WithContext(ctx)
	tr.Backoff = time.Millisecond
	start := time.Now()
	_, err := tr.RecentBundles(1)
	if err == nil {
		t.Fatal("cancelled context should abort")
	}
	if time.Since(start) > time.Second {
		t.Error("cancelled context still waited through retries")
	}
}

func TestCircuitBreaker(t *testing.T) {
	var healthy atomic.Bool
	var hits atomic.Int64
	store := seededStore(5, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		if !healthy.Load() {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		explorer.NewServer(store, 0).ServeHTTP(w, r)
	}))
	defer srv.Close()

	now := time.Unix(1000, 0)
	tr := NewHTTP(srv.URL)
	tr.Backoff = time.Millisecond
	tr.MaxRetries = 0
	tr.BreakerThreshold = 2
	tr.BreakerCooldown = time.Minute
	tr.now = func() time.Time { return now }
	tr.sleep = instantSleep

	// Two exhausted calls open the breaker.
	for i := 0; i < 2; i++ {
		if _, err := tr.RecentBundles(1); err == nil {
			t.Fatal("unhealthy server succeeded")
		}
	}
	if tr.BreakerOpens() != 1 {
		t.Fatalf("BreakerOpens = %d", tr.BreakerOpens())
	}

	// While open, calls are shorted without touching the server.
	before := hits.Load()
	_, err := tr.RecentBundles(1)
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open breaker returned %v", err)
	}
	if hits.Load() != before || tr.BreakerShorted() != 1 {
		t.Errorf("open breaker hit server (%d → %d), shorted=%d", before, hits.Load(), tr.BreakerShorted())
	}

	// After the cooldown, a half-open probe against a still-down server
	// re-opens…
	now = now.Add(2 * time.Minute)
	if _, err := tr.RecentBundles(1); err == nil || errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("half-open probe should reach the server and fail: %v", err)
	}
	if _, err := tr.RecentBundles(1); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("failed probe should re-open: %v", err)
	}

	// …and once the server recovers, the probe closes the breaker for
	// good.
	healthy.Store(true)
	now = now.Add(2 * time.Minute)
	if _, err := tr.RecentBundles(1); err != nil {
		t.Fatalf("recovery probe failed: %v", err)
	}
	if _, err := tr.RecentBundles(1); err != nil {
		t.Fatalf("closed breaker rejected call: %v", err)
	}
}

// flakyDetails fails TxDetails while broken, then heals.
type flakyDetails struct {
	*Direct
	broken    func(ids []solana.Signature) bool
	detCalls  int
	pageCalls int
}

func (f *flakyDetails) TxDetails(ids []solana.Signature) ([]jito.TxDetail, error) {
	f.detCalls++
	if f.broken != nil && f.broken(ids) {
		return nil, &faults.Error{Class: faults.ClassServer, Status: 500}
	}
	return f.Direct.TxDetails(ids)
}

func TestFetchDetailsDegradesPerBatch(t *testing.T) {
	store := seededStore(6, 3) // 6 length-3 bundles → 18 ids
	var poison solana.Signature
	poison[0], poison[1], poison[2], poison[3] = 2, 0, 0, 0 // an id of bundle 2
	tr := &flakyDetails{Direct: &Direct{Store: store}}
	tr.broken = func(ids []solana.Signature) bool {
		for _, id := range ids {
			if id == poison {
				return true
			}
		}
		return false
	}
	c := New(Config{PageLimit: 100, DetailBatch: 3, DetailRetries: 1}, testClock, tr)
	c.Poll()

	fetched, err := c.FetchDetails()
	if !errors.Is(err, ErrDetailShortfall) {
		t.Fatalf("want ErrDetailShortfall, got %v", err)
	}
	// 18 ids in 6 batches of 3; the poisoned batch fails (1 retry → 2
	// attempts), the other 5 proceed — no aborted remainder.
	if fetched != 15 {
		t.Errorf("fetched = %d, want 15", fetched)
	}
	if c.PendingDetails() != 3 {
		t.Errorf("PendingDetails = %d, want 3", c.PendingDetails())
	}
	if c.DetailBatchesFailed() != 1 || c.DetailRetries() != 1 {
		t.Errorf("failed=%d retries=%d", c.DetailBatchesFailed(), c.DetailRetries())
	}
	if c.Faults()[faults.ClassServer] != 2 {
		t.Errorf("server faults = %d, want 2 (initial + retry)", c.Faults()[faults.ClassServer])
	}

	// The transport heals; the next call re-queues exactly the shortfall.
	tr.broken = nil
	fetched, err = c.FetchDetails()
	if err != nil || fetched != 3 {
		t.Fatalf("healed refetch: %d, %v", fetched, err)
	}
	if c.PendingDetails() != 0 {
		t.Errorf("PendingDetails after heal = %d", c.PendingDetails())
	}
	for i := range c.Data.Len3 {
		if _, ok := c.Data.DetailsFor(&c.Data.Len3[i]); !ok {
			t.Errorf("bundle %d still incomplete", i)
		}
	}
}

// TestPendingDetailsCountsWithoutAllocating: the shortfall count walks
// the retained records in place; it builds no id list.
func TestPendingDetailsCountsWithoutAllocating(t *testing.T) {
	store := seededStore(6, 3)
	tr := &flakyDetails{Direct: &Direct{Store: store}}
	tr.broken = func(ids []solana.Signature) bool { return ids[0][0] == 2 }
	c := New(Config{PageLimit: 100, DetailBatch: 3, DetailRetries: -1}, testClock, tr)
	c.Poll()
	if _, err := c.FetchDetails(); !errors.Is(err, ErrDetailShortfall) {
		t.Fatalf("want shortfall, got %v", err)
	}
	if n := c.PendingDetails(); n != 3 {
		t.Fatalf("PendingDetails = %d, want 3", n)
	}
	if allocs := testing.AllocsPerRun(20, func() { c.PendingDetails() }); allocs != 0 {
		t.Fatalf("PendingDetails made %.0f allocations", allocs)
	}
}

// repeatingDetails answers every detail batch with an extra, altered
// copy of the first detail it ever served.
type repeatingDetails struct {
	*Direct
	first *jito.TxDetail
}

func (r *repeatingDetails) TxDetails(ids []solana.Signature) ([]jito.TxDetail, error) {
	out, err := r.Direct.TxDetails(ids)
	if err != nil || len(out) == 0 {
		return out, err
	}
	if r.first == nil {
		r.first = &out[0]
		return out, nil
	}
	forged := *r.first
	forged.TipLamports++
	return append(out, forged), nil
}

// TestFetchDetailsNeverRewritesHeldDetails: a response that repeats a
// signature already held leaves the held detail untouched — stream
// detection may be reading it through a view.
func TestFetchDetailsNeverRewritesHeldDetails(t *testing.T) {
	tr := &repeatingDetails{Direct: &Direct{Store: seededStore(4, 3)}}
	c := New(Config{PageLimit: 100, DetailBatch: 3}, testClock, tr)
	c.Poll()
	if _, err := c.FetchDetails(); err != nil {
		t.Fatal(err)
	}
	if c.PendingDetails() != 0 {
		t.Fatalf("PendingDetails = %d", c.PendingDetails())
	}
	got, ok := c.Data.Details.Get(tr.first.Sig)
	if !ok || !got.Equal(tr.first) {
		t.Fatalf("held detail rewritten: %+v, first served %+v", got, *tr.first)
	}
}

// TestPendingDetailsResumeAcrossCheckpoint pins the crash-resume story:
// a checkpoint taken mid-shortfall re-derives its pending queue after
// load, and a later FetchDetails completes it.
func TestPendingDetailsResumeAcrossCheckpoint(t *testing.T) {
	store := seededStore(4, 3)
	tr := &flakyDetails{Direct: &Direct{Store: store}}
	tr.broken = func([]solana.Signature) bool { return true } // total outage
	c := New(Config{PageLimit: 100, DetailBatch: 6, DetailRetries: -1}, testClock, tr)
	c.Poll()
	if _, err := c.FetchDetails(); !errors.Is(err, ErrDetailShortfall) {
		t.Fatalf("want shortfall, got %v", err)
	}
	if c.PendingDetails() != 12 {
		t.Fatalf("PendingDetails = %d, want 12", c.PendingDetails())
	}

	var buf bytes.Buffer
	if err := c.Data.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDataset(&buf, 256)
	if err != nil {
		t.Fatal(err)
	}

	c2 := New(Config{PageLimit: 100, DetailBatch: 6}, testClock, &Direct{Store: store})
	c2.Data = loaded
	if c2.PendingDetails() != 12 {
		t.Fatalf("pending queue lost across checkpoint: %d", c2.PendingDetails())
	}
	fetched, err := c2.FetchDetails()
	if err != nil || fetched != 12 {
		t.Fatalf("resumed fetch: %d, %v", fetched, err)
	}
	if c2.PendingDetails() != 0 {
		t.Errorf("pending after resume = %d", c2.PendingDetails())
	}
}

// failingBefore fails only the backfill cursor endpoint.
type failingBefore struct{ *Direct }

func (f failingBefore) RecentBundlesBefore(uint64, int) ([]jito.BundleRecord, error) {
	return nil, &faults.Error{Class: faults.ClassTimeout}
}

func TestBackfillErrorPath(t *testing.T) {
	store := seededStore(5, 1)
	c := New(Config{PageLimit: 5, BackfillPages: 3}, testClock, failingBefore{&Direct{Store: store}})
	c.Poll()
	// A 20-bundle spike breaks the overlap pair and triggers backfill,
	// whose cursor endpoint is down.
	for i := 6; i <= 25; i++ {
		store.Accept(0, fakeAccepted(i, 1, solana.Slot(i), 1_000))
	}
	if err := c.Poll(); err != nil {
		t.Fatalf("poll itself should survive a backfill failure: %v", err)
	}
	if c.BackfillErrors() != 1 || c.Errors() != 1 {
		t.Errorf("backfillErrors=%d errors=%d", c.BackfillErrors(), c.Errors())
	}
	if c.Faults()[faults.ClassTimeout] != 1 {
		t.Errorf("faults = %v", c.Faults())
	}
	// The page itself was still ingested: 5 + newest 5 of the spike.
	if c.Data.Collected != 10 {
		t.Errorf("Collected = %d, want 10", c.Data.Collected)
	}
}

func TestBackfillClosesGap(t *testing.T) {
	store := seededStore(10, 1)
	c := New(Config{PageLimit: 5, BackfillPages: 10}, testClock, &Direct{Store: store})
	c.Poll() // covers 6..10
	for i := 11; i <= 30; i++ {
		store.Accept(0, fakeAccepted(i, 1, solana.Slot(i), 1_000))
	}
	c.Poll() // page 26..30: no overlap → backfill pages backwards

	// Backfill recovers 11..25, then reaches already-collected territory
	// (6..10) and stops with the gap closed: 5 (first poll) + 5 (second)
	// + 15 backfilled. Bundles 1..5 predate collection entirely.
	if c.Data.Collected != 25 {
		t.Errorf("Collected = %d, want 25 (gap fully closed)", c.Data.Collected)
	}
	if c.BackfilledBundles() != 15 {
		t.Errorf("BackfilledBundles = %d, want 15", c.BackfilledBundles())
	}
	if c.BackfillPolls() == 0 || c.BackfillErrors() != 0 {
		t.Errorf("polls=%d errors=%d", c.BackfillPolls(), c.BackfillErrors())
	}
	// The overlap diagnostic still records the broken pair — backfill
	// repairs coverage, not the statistic.
	if c.OverlapPairs() != 0 || c.Pairs() != 1 {
		t.Errorf("overlap stats polluted: %d/%d", c.OverlapPairs(), c.Pairs())
	}
}

// TestResetOverlapChainAfterOutage pins the outage-resume hygiene: the
// pair spanning a gap must not pollute the steady-state overlap
// statistic when the chain is reset, and must count (as a miss) when it
// is not.
func TestResetOverlapChainAfterOutage(t *testing.T) {
	run := func(reset bool) *Collector {
		store := seededStore(10, 1)
		c := New(Config{PageLimit: 5}, testClock, &Direct{Store: store})
		c.Poll() // covers 6..10
		// An outage: 90 bundles scroll past uncollected.
		for i := 11; i <= 100; i++ {
			store.Accept(0, fakeAccepted(i, 1, solana.Slot(i), 1_000))
		}
		if reset {
			c.ResetOverlapChain()
		}
		c.Poll() // covers 96..100 — shares nothing with 6..10
		// Steady state resumes.
		for i := 101; i <= 102; i++ {
			store.Accept(0, fakeAccepted(i, 1, solana.Slot(i), 1_000))
		}
		c.Poll() // covers 98..102 — overlaps
		return c
	}

	with := run(true)
	if with.Pairs() != 1 || with.OverlapPairs() != 1 || with.OverlapRate() != 1 {
		t.Errorf("reset run: pairs=%d overlap=%d rate=%v — gap pair polluted the statistic",
			with.Pairs(), with.OverlapPairs(), with.OverlapRate())
	}
	without := run(false)
	if without.Pairs() != 2 || without.OverlapPairs() != 1 {
		t.Errorf("control run: pairs=%d overlap=%d — gap pair should count as a miss",
			without.Pairs(), without.OverlapPairs())
	}
}
