package collector

import (
	"net/http/httptest"
	"testing"
	"time"

	"jitomev/internal/explorer"
	"jitomev/internal/jito"
	"jitomev/internal/solana"
	"jitomev/internal/workload"
)

var testClock = solana.Clock{Genesis: time.Date(2025, 2, 9, 0, 0, 0, 0, time.UTC)}

// fakeAccepted fabricates an accepted bundle of length n at the given slot.
func fakeAccepted(i int, n int, slot solana.Slot, tip uint64) *jito.Accepted {
	rec := jito.BundleRecord{Seq: uint64(i), Slot: slot, TipLamps: tip}
	rec.ID[0], rec.ID[1], rec.ID[2] = byte(i), byte(i>>8), byte(i>>16)
	details := make([]jito.TxDetail, n)
	for j := 0; j < n; j++ {
		var sig solana.Signature
		sig[0], sig[1], sig[2], sig[3] = byte(i), byte(i>>8), byte(i>>16), byte(j)
		rec.TxIDs = append(rec.TxIDs, sig)
		details[j] = jito.TxDetail{Sig: sig, Slot: slot}
	}
	return &jito.Accepted{Record: rec, Details: details}
}

func TestDedupWindow(t *testing.T) {
	w := newDedupWindow(3)
	ids := make([]jito.BundleID, 5)
	for i := range ids {
		ids[i][0] = byte(i + 1)
	}
	if !w.add(ids[0]) || !w.add(ids[1]) || !w.add(ids[2]) {
		t.Fatal("fresh ids rejected")
	}
	if w.add(ids[0]) {
		t.Fatal("duplicate accepted")
	}
	// Adding a 4th evicts the oldest (ids[0]).
	if !w.add(ids[3]) {
		t.Fatal("4th id rejected")
	}
	if !w.add(ids[0]) {
		t.Fatal("evicted id should be addable again")
	}
	if w.len() != 3 {
		t.Errorf("len = %d", w.len())
	}
}

func TestDatasetIngestAggregates(t *testing.T) {
	d := NewDataset(testClock, 100)
	// Day 0: one defensive, one priority, one length-3.
	d.Ingest(fakeAccepted(1, 1, 10, 5_000).Record)     // defensive
	d.Ingest(fakeAccepted(2, 1, 20, 2_000_000).Record) // priority
	d.Ingest(fakeAccepted(3, 3, 30, 1_000).Record)     // length 3
	// Day 1.
	d.Ingest(fakeAccepted(4, 2, solana.SlotsPerDay+5, 1_000).Record)

	if d.Collected != 4 {
		t.Fatalf("Collected = %d", d.Collected)
	}
	day0 := d.Days[0]
	if day0.Bundles != 3 || day0.ByLength[1] != 2 || day0.ByLength[3] != 1 {
		t.Errorf("day0 %+v", day0)
	}
	if day0.DefensiveCount != 1 || day0.PriorityCount != 1 || day0.DefensiveSpend != 5_000 {
		t.Errorf("day0 defense %+v", day0)
	}
	if d.Days[1].ByLength[2] != 1 {
		t.Error("day1 length-2 missing")
	}
	if len(d.Len3) != 1 {
		t.Errorf("Len3 = %d", len(d.Len3))
	}
	if d.TipsLen1.Total() != 2 || d.TipsLen3.Total() != 1 {
		t.Error("tip histograms wrong")
	}
	if days := d.SortedDays(); len(days) != 2 || days[0] != 0 || days[1] != 1 {
		t.Errorf("SortedDays = %v", days)
	}
}

func TestDatasetIngestDuplicates(t *testing.T) {
	d := NewDataset(testClock, 100)
	rec := fakeAccepted(1, 1, 10, 5_000).Record
	if !d.Ingest(rec) {
		t.Fatal("first ingest rejected")
	}
	if d.Ingest(rec) {
		t.Fatal("duplicate ingested")
	}
	if d.Duplicates != 1 || d.Collected != 1 {
		t.Errorf("dup=%d collected=%d", d.Duplicates, d.Collected)
	}
}

func TestPollOverlapAndDedup(t *testing.T) {
	store := explorer.NewStore()
	c := New(Config{PageLimit: 10}, testClock, &Direct{Store: store})

	// First burst of 6 bundles, then poll.
	for i := 1; i <= 6; i++ {
		store.Accept(0, fakeAccepted(i, 1, solana.Slot(i), 1_000))
	}
	if err := c.Poll(); err != nil {
		t.Fatal(err)
	}
	// 4 more bundles: page of 10 covers all 10, overlapping the previous.
	for i := 7; i <= 10; i++ {
		store.Accept(0, fakeAccepted(i, 1, solana.Slot(i), 1_000))
	}
	if err := c.Poll(); err != nil {
		t.Fatal(err)
	}
	if c.Data.Collected != 10 {
		t.Errorf("Collected = %d, want 10", c.Data.Collected)
	}
	if c.Pairs() != 1 || c.OverlapPairs() != 1 {
		t.Errorf("pairs=%d overlap=%d", c.Pairs(), c.OverlapPairs())
	}
	if c.OverlapRate() != 1 {
		t.Errorf("OverlapRate = %v", c.OverlapRate())
	}
}

func TestPollDetectsMissedSpike(t *testing.T) {
	store := explorer.NewStore()
	c := New(Config{PageLimit: 5}, testClock, &Direct{Store: store})

	for i := 1; i <= 5; i++ {
		store.Accept(0, fakeAccepted(i, 1, solana.Slot(i), 1_000))
	}
	c.Poll()
	// A spike of 20 bundles overflows the page: successive pages share
	// nothing, which is exactly the paper's missed-bundle signal.
	for i := 6; i <= 25; i++ {
		store.Accept(0, fakeAccepted(i, 1, solana.Slot(i), 1_000))
	}
	c.Poll()
	if c.OverlapPairs() != 0 || c.Pairs() != 1 {
		t.Errorf("spike should break overlap: pairs=%d overlap=%d", c.Pairs(), c.OverlapPairs())
	}
	// The collector only got the most recent 5 of the spike.
	if c.Data.Collected != 10 {
		t.Errorf("Collected = %d, want 10 (5 + last 5 of spike)", c.Data.Collected)
	}
}

func TestResetOverlapChain(t *testing.T) {
	store := explorer.NewStore()
	c := New(Config{PageLimit: 5}, testClock, &Direct{Store: store})
	store.Accept(0, fakeAccepted(1, 1, 1, 1_000))
	c.Poll()
	c.ResetOverlapChain()
	store.Accept(0, fakeAccepted(2, 1, 2, 1_000))
	c.Poll()
	if c.Pairs() != 0 {
		t.Errorf("pair counted across reset: %d", c.Pairs())
	}
}

func TestFetchDetails(t *testing.T) {
	store := explorer.NewStore()
	c := New(Config{PageLimit: 100, DetailBatch: 2}, testClock, &Direct{Store: store})

	for i := 1; i <= 3; i++ {
		store.Accept(0, fakeAccepted(i, 3, solana.Slot(i), 1_000))
	}
	store.Accept(0, fakeAccepted(4, 1, 4, 1_000))
	c.Poll()

	n, err := c.FetchDetails()
	if err != nil {
		t.Fatal(err)
	}
	if n != 9 {
		t.Errorf("fetched %d details, want 9", n)
	}
	// 9 ids at batch size 2 → 5 requests.
	if c.DetailRequests() != 5 {
		t.Errorf("DetailRequests = %d, want 5", c.DetailRequests())
	}
	for i := range c.Data.Len3 {
		if det, ok := c.Data.DetailsFor(&c.Data.Len3[i]); !ok || len(det) != 3 {
			t.Errorf("bundle %d details incomplete", i)
		}
	}
	// Second call is a no-op.
	if n, _ := c.FetchDetails(); n != 0 {
		t.Errorf("refetch fetched %d", n)
	}
}

func TestDetailsForMissing(t *testing.T) {
	d := NewDataset(testClock, 100)
	rec := fakeAccepted(1, 3, 1, 1_000).Record
	d.Ingest(rec)
	if _, ok := d.DetailsFor(&d.Len3[0]); ok {
		t.Error("DetailsFor reported complete without fetch")
	}
}

func TestHTTPTransportAgainstServer(t *testing.T) {
	store := explorer.NewStore()
	for i := 1; i <= 50; i++ {
		n := 1
		if i%10 == 0 {
			n = 3
		}
		store.Accept(0, fakeAccepted(i, n, solana.Slot(i), uint64(1_000+i)))
	}
	srv := httptest.NewServer(explorer.NewServer(store, 0))
	defer srv.Close()

	tr := NewHTTP(srv.URL)
	page, err := tr.RecentBundles(20)
	if err != nil {
		t.Fatal(err)
	}
	if len(page) != 20 || page[0].Seq != 50 {
		t.Fatalf("page len=%d first=%d", len(page), page[0].Seq)
	}

	// Detail fetch for a length-3 bundle.
	var len3 *jito.BundleRecord
	for i := range page {
		if page[i].NumTxs() == 3 {
			len3 = &page[i]
			break
		}
	}
	if len3 == nil {
		t.Fatal("no length-3 bundle in page")
	}
	details, err := tr.TxDetails(len3.TxIDs)
	if err != nil {
		t.Fatal(err)
	}
	if len(details) != 3 {
		t.Errorf("details = %d", len(details))
	}
}

func TestHTTPTransportRetriesOn429(t *testing.T) {
	store := explorer.NewStore()
	store.Accept(0, fakeAccepted(1, 1, 1, 1_000))
	// 2/min: first two requests pass, then throttle; retry must recover
	// after backoff refills ~nothing, so expect eventual error with tiny
	// backoff — and success when under the limit.
	srv := httptest.NewServer(explorer.NewServer(store, 2))
	defer srv.Close()

	tr := NewHTTP(srv.URL)
	tr.Backoff = time.Millisecond
	tr.MaxRetries = 1
	if _, err := tr.RecentBundles(1); err != nil {
		t.Fatalf("first request: %v", err)
	}
	if _, err := tr.RecentBundles(1); err != nil {
		t.Fatalf("second request: %v", err)
	}
	// Bucket empty; with 1ms backoff the retry cannot refill a 2/min
	// bucket, so this must fail cleanly rather than hang.
	if _, err := tr.RecentBundles(1); err == nil {
		t.Fatal("throttled request should error after retries")
	}
}

// TestEquivalenceHTTPvsDirect runs the same small study through both
// transports and requires identical datasets — the faithful HTTP path and
// the fast in-process path must be interchangeable.
func TestEquivalenceHTTPvsDirect(t *testing.T) {
	run := func(useHTTP bool) *Dataset {
		st := workload.New(workload.Params{Seed: 4, Days: 2, Scale: 20_000, Outages: []workload.DayRange{}})
		store := explorer.NewStore()
		var tr Transport = &Direct{Store: store}
		var srv *httptest.Server
		if useHTTP {
			srv = httptest.NewServer(explorer.NewServer(store, 0))
			defer srv.Close()
			tr = NewHTTP(srv.URL)
		}
		c := New(Config{PageLimit: 50}, st.P.Clock(), tr)
		sink := &PollingSink{Store: store, Collector: c}
		st.Run(sink)
		if _, err := c.FetchDetails(); err != nil {
			t.Fatal(err)
		}
		return c.Data
	}
	a, b := run(false), run(true)
	if a.Collected != b.Collected || len(a.Len3) != len(b.Len3) || a.Details.Len() != b.Details.Len() {
		t.Fatalf("direct (%d,%d,%d) != http (%d,%d,%d)",
			a.Collected, len(a.Len3), a.Details.Len(),
			b.Collected, len(b.Len3), b.Details.Len())
	}
	for i := range a.Len3 {
		if a.Len3[i].ID != b.Len3[i].ID {
			t.Fatalf("Len3 order diverges at %d", i)
		}
	}
}

func TestPollingSinkOutageSkipsPolls(t *testing.T) {
	st := workload.New(workload.Params{Seed: 5, Days: 2, Scale: 20_000,
		Outages: []workload.DayRange{{From: 1, To: 1}}})
	store := explorer.NewStore()
	c := New(Config{PageLimit: 50}, st.P.Clock(), &Direct{Store: store})
	sink := &PollingSink{Store: store, Collector: c, InOutage: st.P.InOutage}
	st.Run(sink)

	// Nothing from day 1 can be in the per-day aggregates beyond what a
	// final page straddles; with PageLimit 50 and ~700 bundles/day the
	// whole outage day must be missing.
	if agg, ok := c.Data.Days[1]; ok && agg.Bundles > 100 {
		t.Errorf("outage day collected %d bundles", agg.Bundles)
	}
	if day0 := c.Data.Days[0]; day0 == nil || day0.Bundles == 0 {
		t.Fatal("day 0 not collected")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.Defaults()
	if c.PageLimit != explorer.MaxPageLimit || c.DetailBatch != explorer.MaxDetailBatch || c.PollEverySlots != 300 {
		t.Errorf("defaults %+v", c)
	}
}

func TestPollingSinkCadence(t *testing.T) {
	// One poll per PollEverySlots of chain time, driven by bundle slots.
	store := explorer.NewStore()
	c := New(Config{PageLimit: 100, PollEverySlots: 300}, testClock, &Direct{Store: store})
	sink := &PollingSink{Store: store, Collector: c}

	// 10 bundles per 300-slot window across 10 windows.
	seq := 0
	for w := 0; w < 10; w++ {
		for i := 0; i < 10; i++ {
			seq++
			slot := solana.Slot(w*300 + i*30)
			sink.Accept(0, fakeAccepted(seq, 1, slot, 1_000))
		}
	}
	// First qualifying bundle of each window triggers one poll.
	if c.Polls() != 10 {
		t.Errorf("polls = %d, want 10", c.Polls())
	}
	// The last window's 9 post-poll bundles are never seen — collection
	// always trails the live feed by up to one cadence, exactly like the
	// paper's scraper.
	if c.Data.Collected != 91 {
		t.Errorf("collected = %d, want 91", c.Data.Collected)
	}
	if c.OverlapRate() != 1 {
		t.Errorf("overlap = %v, want 1 at this page size", c.OverlapRate())
	}
}

func TestCollectorErrorsCounted(t *testing.T) {
	c := New(Config{PageLimit: 10}, testClock, failingTransport{})
	if err := c.Poll(); err == nil {
		t.Fatal("poll against failing transport succeeded")
	}
	if c.Errors() != 1 || c.Polls() != 0 {
		t.Errorf("errors=%d polls=%d", c.Errors(), c.Polls())
	}
	if _, err := c.FetchDetails(); err != nil {
		t.Fatalf("FetchDetails with nothing pending should be a no-op: %v", err)
	}
}

type failingTransport struct{}

func (failingTransport) RecentBundles(int) ([]jito.BundleRecord, error) {
	return nil, errFail
}
func (failingTransport) RecentBundlesBefore(uint64, int) ([]jito.BundleRecord, error) {
	return nil, errFail
}
func (failingTransport) TxDetails([]solana.Signature) ([]jito.TxDetail, error) {
	return nil, errFail
}

var errFail = errTransport("transport down")

type errTransport string

func (e errTransport) Error() string { return string(e) }
