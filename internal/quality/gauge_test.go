package quality

import (
	"math/rand"
	"testing"

	"jitomev/internal/obs"
)

// TestObservePollAllocatesNothing pins the per-poll feed off the heap:
// once the day's window exists, a paired poll allocates nothing, broken
// pair (which refreshes the estimated-missed gauge) or not.
func TestObservePollAllocatesNothing(t *testing.T) {
	s := New(Config{}, obs.NewRegistry())
	s.ObservePoll(0, 50, 40, 10, false, false)
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		s.ObservePoll(0, 50, 40, 10, true, i%3 != 0)
		i++
	})
	if allocs != 0 {
		t.Fatalf("ObservePoll made %v allocations per call, want 0", allocs)
	}
}

// TestMissedGaugeMatchesSummary feeds a seeded mix of polls, broken
// pairs, backfills and failures over several days: after every step
// the published gauge equals the summary's estimate.
func TestMissedGaugeMatchesSummary(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{}, reg)
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 600; i++ {
		switch rng.Intn(10) {
		case 0:
			s.ObserveBackfill(rng.Intn(120))
		case 1:
			s.ObservePollError()
		default:
			s.ObservePoll(i/100, 50, rng.Intn(50), rng.Intn(10), i > 0, rng.Intn(4) != 0)
		}
		want := s.LedgerSummary().EstimatedMissed
		if got := reg.Value("quality_estimated_missed_bundles"); uint64(got) != want {
			t.Fatalf("step %d: gauge %v, summary %d", i, got, want)
		}
	}
	if s.LedgerSummary().EstimatedMissed == 0 {
		t.Fatal("the sequence never left an estimated miss standing")
	}
}

// TestMissedGaugeFollowsPageLimit: the estimate scales with the page
// size, so a poll at a new size refreshes the gauge even when it forms
// no pair, and an overlapping pair at the same size leaves it alone.
func TestMissedGaugeFollowsPageLimit(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{}, reg)
	for i, step := range []struct {
		pageLimit       int
		paired, overlap bool
		want            uint64
	}{
		{50, false, false, 0},
		{50, true, false, 50},
		{100, false, false, 100},
		{100, true, true, 100},
		{20, true, true, 20},
		{20, true, false, 40},
	} {
		s.ObservePoll(0, step.pageLimit, 10, 0, step.paired, step.overlap)
		sum := s.LedgerSummary().EstimatedMissed
		if got := reg.Value("quality_estimated_missed_bundles"); sum != step.want || uint64(got) != sum {
			t.Fatalf("step %d: gauge %v, summary %d, want %d", i, got, sum, step.want)
		}
	}
}
