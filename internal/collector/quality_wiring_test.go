package collector

// Quality-sentinel wiring: the coverage ledger must see every poll —
// successful, failed, and backfill — and the overlap gauge must stay
// fresh through a fault storm instead of holding whatever the last
// successful poll published.

import (
	"testing"

	"jitomev/internal/faults"
	"jitomev/internal/jito"
	"jitomev/internal/obs"
	"jitomev/internal/quality"
	"jitomev/internal/solana"
)

// stormTransport fails RecentBundles on a fixed schedule.
type stormTransport struct {
	*Direct
	calls int
	fail  func(call int) bool
}

func (s *stormTransport) RecentBundles(limit int) ([]jito.BundleRecord, error) {
	s.calls++
	if s.fail != nil && s.fail(s.calls) {
		return nil, &faults.Error{Class: faults.ClassTimeout}
	}
	return s.Direct.RecentBundles(limit)
}

func TestOverlapGaugeFreshUnderFaultStorm(t *testing.T) {
	store := seededStore(10, 1)
	tr := &stormTransport{Direct: &Direct{Store: store}, fail: func(call int) bool { return call%2 == 0 }}
	reg := obs.NewRegistry()
	c := NewObs(Config{PageLimit: 5}, testClock, tr, reg)
	q := quality.New(quality.Config{}, reg)
	c.AttachQuality(q)

	gauge := reg.FloatGauge("collector_overlap_ratio")
	okPolls, failPolls := 0, 0
	for i := 0; i < 12; i++ {
		if err := c.Poll(); err != nil {
			failPolls++
		} else {
			okPolls++
		}
		// The gauge must track the live ratio after every poll, failed
		// ones included. Poison it before each check so a stale (not
		// rewritten) value is caught, not just a coincidentally equal one.
		if got, want := gauge.Value(), c.OverlapRate(); got != want {
			t.Fatalf("poll %d: gauge %v != live rate %v", i, got, want)
		}
		gauge.Set(-1)
	}
	if okPolls == 0 || failPolls == 0 {
		t.Fatalf("storm did not mix outcomes: ok=%d fail=%d", okPolls, failPolls)
	}

	sum := q.LedgerSummary()
	if int(sum.PollsOK) != okPolls || int(sum.PollsFailed) != failPolls {
		t.Errorf("ledger polls ok=%d fail=%d, want %d/%d", sum.PollsOK, sum.PollsFailed, okPolls, failPolls)
	}
	if sum.PollFailureRate == 0 {
		t.Error("ledger poll failure rate not populated")
	}
	// The drift detector saw the same storm.
	var pollFail quality.DetectorState
	for _, d := range q.DriftState() {
		if d.Name == "poll_failure_rate" {
			pollFail = d
		}
	}
	if pollFail.Samples != uint64(okPolls+failPolls) || pollFail.Value == 0 {
		t.Errorf("poll failure detector %+v", pollFail)
	}
}

func TestBackfillFeedsLedger(t *testing.T) {
	store := seededStore(5, 1)
	reg := obs.NewRegistry()
	c := NewObs(Config{PageLimit: 5, BackfillPages: 10}, testClock, &Direct{Store: store}, reg)
	q := quality.New(quality.Config{}, reg)
	c.AttachQuality(q)

	if err := c.Poll(); err != nil {
		t.Fatal(err)
	}
	// A spike larger than the page breaks the pair; backfill recovers it.
	for i := 6; i <= 25; i++ {
		store.Accept(0, fakeAccepted(i, 1, solana.Slot(i), 1_000))
	}
	if err := c.Poll(); err != nil {
		t.Fatal(err)
	}
	sum := q.LedgerSummary()
	if sum.Gaps != 1 {
		t.Fatalf("ledger gaps = %d, want 1", sum.Gaps)
	}
	if sum.BackfillRecovered == 0 {
		t.Fatal("backfill recovery not recorded in ledger")
	}
	if sum.BackfillRecovered != c.BackfilledBundles() {
		t.Errorf("ledger recovered %d != collector counter %d", sum.BackfillRecovered, c.BackfilledBundles())
	}
	// Recovery is credited against the missed estimate.
	if max := sum.Gaps * uint64(c.Cfg.PageLimit); sum.EstimatedMissed >= max {
		t.Errorf("estimated missed %d not credited (cap %d)", sum.EstimatedMissed, max)
	}
	if reg.Value("quality_page_gaps_total") != 1 {
		t.Errorf("gap counter = %v", reg.Value("quality_page_gaps_total"))
	}
}

func TestBackfillErrorFeedsLedgerAndGauge(t *testing.T) {
	store := seededStore(5, 1)
	reg := obs.NewRegistry()
	c := NewObs(Config{PageLimit: 5, BackfillPages: 3}, testClock, failingBefore{&Direct{Store: store}}, reg)
	q := quality.New(quality.Config{}, reg)
	c.AttachQuality(q)

	if err := c.Poll(); err != nil {
		t.Fatal(err)
	}
	for i := 6; i <= 25; i++ {
		store.Accept(0, fakeAccepted(i, 1, solana.Slot(i), 1_000))
	}
	gauge := reg.FloatGauge("collector_overlap_ratio")
	gauge.Set(-1)
	if err := c.Poll(); err != nil {
		t.Fatalf("poll should survive backfill failure: %v", err)
	}
	if got := gauge.Value(); got != c.OverlapRate() {
		t.Errorf("gauge %v != live rate %v after backfill failure", got, c.OverlapRate())
	}
	sum := q.LedgerSummary()
	if sum.BackfillErrors != 1 {
		t.Errorf("ledger backfill errors = %d, want 1", sum.BackfillErrors)
	}
	if sum.Gaps != 1 {
		t.Errorf("ledger gaps = %d, want 1", sum.Gaps)
	}
}

// TestDetailFeed pins FetchDetails → sentinel flow.
func TestDetailFeed(t *testing.T) {
	store := seededStore(4, 3)
	reg := obs.NewRegistry()
	c := NewObs(Config{PageLimit: 100, DetailBatch: 6}, testClock, &Direct{Store: store}, reg)
	q := quality.New(quality.Config{}, reg)
	c.AttachQuality(q)
	if err := c.Poll(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FetchDetails(); err != nil {
		t.Fatal(err)
	}
	// 4 length-3 bundles fully fetched → detail completeness is clean.
	sum := q.LedgerSummary()
	if sum.NewBundles != 4 {
		t.Errorf("ledger new bundles = %d, want 4", sum.NewBundles)
	}
}
